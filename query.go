package mdlog

// The unified compile-once / run-many query API. The paper proves six
// formalisms equivalent in expressive power; this file makes them
// equivalent in use: every source language compiles through
// Compile(src, lang) into one CompiledQuery value whose Select / Eval
// / Wrap methods execute a prepared plan against any number of
// documents, concurrently, with per-document state memoized in a
// TreeCache. See DESIGN.md for the architecture.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"mdlog/internal/caterpillar"
	"mdlog/internal/datalog"
	"mdlog/internal/elog"
	"mdlog/internal/eval"
	"mdlog/internal/mso"
	"mdlog/internal/opt"
	"mdlog/internal/span"
	"mdlog/internal/tmnf"
	"mdlog/internal/tree"
	"mdlog/internal/wrap"
	"mdlog/internal/xpath"
)

// Language enumerates the query formalisms Compile accepts — the six
// languages the paper relates (query automata arrive via their
// ToDatalog translations and LangDatalog) plus LangSpanner, the
// span-extraction front end layered on top of them.
type Language int

const (
	// langInvalid is the zero value, deliberately not a real language:
	// an unset Language (a JSON wrapper spec missing its "lang" field,
	// an uninitialized struct) must fail compilation loudly rather
	// than silently meaning datalog.
	langInvalid Language = iota
	// LangDatalog is monadic datalog over τ_ur ∪ {child, lastchild}
	// (Section 3); programs using child/2 are normalized to TMNF for
	// the linear engine (Theorem 5.2).
	LangDatalog
	// LangTMNF is monadic datalog already in Tree-Marking Normal Form
	// (Definition 5.1); Compile validates the shape instead of
	// normalizing.
	LangTMNF
	// LangMSO is a unary MSO formula φ(x) compiled to a deterministic
	// tree automaton (Theorem 4.4).
	LangMSO
	// LangXPath is Core XPath (Section 7 remark); positive queries are
	// translated to monadic datalog and TMNF, queries using not(·)
	// fall back to the direct evaluator.
	LangXPath
	// LangCaterpillar is a caterpillar expression E evaluated as the
	// unary query root.E (Corollary 5.12).
	LangCaterpillar
	// LangElog is Elog⁻ / Elog⁻Δ (Section 6); Elog⁻ compiles through
	// datalog and TMNF (Corollary 6.4), Δ programs use the direct
	// evaluator.
	LangElog
	// LangSpanner is the document-spanner front end: monadic-datalog
	// node selection combined with span rules whose regex formulas run
	// as variable-set automata over node text and attribute values (see
	// internal/span). Results are span relations, read via
	// CompiledQuery.Spans rather than Select.
	LangSpanner
)

// languageNames is the single source of truth for the language list:
// String, ParseLanguage, MarshalText, and the CLI -lang help all
// derive from it, so adding a language is one entry here.
var languageNames = []struct {
	lang Language
	name string
}{
	{LangDatalog, "datalog"},
	{LangTMNF, "tmnf"},
	{LangMSO, "mso"},
	{LangXPath, "xpath"},
	{LangCaterpillar, "caterpillar"},
	{LangElog, "elog"},
	{LangSpanner, "spanner"},
}

// LanguageNames returns the flag names of every supported language in
// canonical order — the values ParseLanguage accepts. CLI help strings
// should derive from this rather than hard-coding the list.
func LanguageNames() []string {
	out := make([]string, len(languageNames))
	for i, e := range languageNames {
		out[i] = e.name
	}
	return out
}

// languageList renders the language names for error and help text,
// e.g. "datalog, tmnf, mso, xpath, caterpillar, elog or spanner".
func languageList() string {
	names := LanguageNames()
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// String names the language for CLI flags and error messages.
func (l Language) String() string {
	for _, e := range languageNames {
		if e.lang == l {
			return e.name
		}
	}
	return fmt.Sprintf("Language(%d)", int(l))
}

// ParseLanguage converts a CLI flag value into a Language.
func ParseLanguage(s string) (Language, error) {
	for _, e := range languageNames {
		if s == e.name {
			return e.lang, nil
		}
	}
	return 0, fmt.Errorf("mdlog: unknown language %q (want %s)", s, languageList())
}

// MarshalText implements encoding.TextMarshaler, so a Language field
// serializes as its flag name ("elog", "xpath", ...) in JSON configs.
func (l Language) MarshalText() ([]byte, error) {
	s := l.String()
	if _, err := ParseLanguage(s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// UnmarshalText implements encoding.TextUnmarshaler (the inverse of
// MarshalText), accepting the ParseLanguage names.
func (l *Language) UnmarshalText(b []byte) error {
	v, err := ParseLanguage(string(b))
	if err != nil {
		return err
	}
	*l = v
	return nil
}

// Stats is the per-query / per-run timing and fact-count record.
type Stats = eval.Stats

// TreeCache memoizes per-document evaluation state (navigation
// arrays, materialized tree databases) across runs and across queries
// sharing the cache.
type TreeCache = eval.TreeCache

// CacheStats is a snapshot of a TreeCache's contents and traffic (see
// TreeCache.Stats): cached trees, memoized per-(query, tree) results,
// hit/miss counts, and results evicted to enforce the per-tree bound.
type CacheStats = eval.CacheStats

// NewTreeCache builds a cache retaining state for up to maxTrees
// documents (≤ 0: unbounded).
func NewTreeCache(maxTrees int) *TreeCache { return eval.NewTreeCache(maxTrees) }

// WrapOptions controls output-tree construction for Wrap.
type WrapOptions = wrap.Options

// DefaultQueryPred is the query predicate name used for languages
// without a natural one (MSO, XPath, caterpillar) unless WithQueryPred
// overrides it.
const DefaultQueryPred = "q"

// DefaultCacheTrees bounds the per-query TreeCache created when no
// WithCache/WithoutCache option is given: state for at most this many
// distinct documents is retained, so streaming millions of
// seen-once pages through a query cannot grow memory without bound.
// Pass WithCache(NewTreeCache(0)) for an unbounded cache.
const DefaultCacheTrees = 256

// OptLevel selects how aggressively the compile-time optimizer
// (internal/opt) rewrites datalog-routed plans before evaluation:
// OptNone disables it, OptFull (the default) runs goal-directed
// dead-rule elimination, single-use predicate inlining, duplicate-rule
// removal and redundant-atom/label-test deduplication. Every level
// preserves the visible relations; see DESIGN.md §optimizer.
type OptLevel = opt.Level

const (
	// OptNone (-O0) disables the optimizer pipeline.
	OptNone OptLevel = opt.O0
	// OptFull (-O1) enables every optimizer pass (the default).
	OptFull OptLevel = opt.O1
)

// ParseOptLevel converts a CLI flag value ("0", "1", "O0", "O1") into
// an OptLevel.
func ParseOptLevel(s string) (OptLevel, error) { return opt.ParseLevel(s) }

// OptReport describes what the optimizer did to one compiled query:
// rule/atom counts before and after, and per-pass removal counters.
// The zero value means the plan did not route through the optimizer
// (MSO automata and the direct evaluators).
type OptReport = opt.Report

// Option configures Compile.
type Option func(*compileConfig)

type compileConfig struct {
	engine    Engine
	queryPred string
	extract   []string
	wrapOpts  WrapOptions
	cache     *TreeCache
	noCache   bool
	optLevel  OptLevel
}

// WithEngine selects the datalog evaluation engine (default
// EngineBitmap). Only plans that execute datalog honor it; the MSO
// automaton and the direct XPath/Elog⁻Δ evaluators ignore it. The
// grounding engines (EngineLinear, EngineBitmap) apply to every
// datalog-routed language; the set-oriented engines (seminaive,
// naive, lit) apply to datalog and Elog⁻ sources. An Engine value
// outside the defined set fails compilation (no silent fallback).
func WithEngine(e Engine) Option { return func(c *compileConfig) { c.engine = e } }

// WithQueryPred sets the predicate Select reads (default: the
// program's distinguished query predicate, the single Elog extraction
// pattern, or DefaultQueryPred for MSO/XPath/caterpillar).
func WithQueryPred(pred string) Option { return func(c *compileConfig) { c.queryPred = pred } }

// WithExtract restricts the predicates / patterns Wrap extracts.
func WithExtract(preds ...string) Option { return func(c *compileConfig) { c.extract = preds } }

// WithWrapOptions sets output-tree construction options for Wrap.
func WithWrapOptions(o WrapOptions) Option { return func(c *compileConfig) { c.wrapOpts = o } }

// WithCache shares a TreeCache between several compiled queries, so
// documents are materialized once for all of them.
func WithCache(tc *TreeCache) Option { return func(c *compileConfig) { c.cache = tc } }

// WithoutCache disables per-document memoization: every run rebuilds
// its navigation arrays and tree database.
func WithoutCache() Option { return func(c *compileConfig) { c.noCache = true } }

// WithOptLevel sets the compile-time optimization level (default
// OptFull). Only plans that execute datalog are affected; the MSO
// automaton and the direct XPath/Elog⁻Δ evaluators have no rules to
// rewrite.
func WithOptLevel(l OptLevel) Option { return func(c *compileConfig) { c.optLevel = l } }

// queryPlan is a prepared, immutable execution strategy. run returns
// the visible result relations for one document plus per-run
// measurements; implementations must be safe for concurrent use.
// engineName identifies the executor for stats attribution (the
// datalog engine name, "automaton", or a *-direct evaluator).
type queryPlan interface {
	run(ctx context.Context, t *Tree, cache *TreeCache) (*Database, Stats, error)
	engineName() string
}

// CompiledQuery is a query parsed, normalized and planned exactly
// once, ready for repeated and concurrent execution over documents.
// All methods are safe for concurrent use by multiple goroutines.
type CompiledQuery struct {
	lang      Language
	src       string
	queryPred string // "" if the language provides none and no option was given
	extract   []string
	wrapOpts  WrapOptions
	cache     *TreeCache
	plan      queryPlan
	optReport OptReport
	// memoKey keys this query's entries in the TreeCache result memo.
	// Datalog-routed plans use a planKey hashing the α-canonical form
	// of the post-optimization program (opt.Canonicalize), so queries
	// whose prepared plans coincide up to rule order and variable
	// naming share memoized results, while optimized/unoptimized
	// variants of the same source never alias. Plans without a datalog
	// program fall back to the query's own identity.
	memoKey any

	agg aggStats
}

// aggStats accumulates a query's lifetime statistics with atomic
// counters: record sits on the hot path of every run, and under a
// 16-way Runner fan-out a mutex here serializes otherwise independent
// workers. Parse/Compile are written once during compilation (before
// the owning value escapes to other goroutines) and only read after,
// so plain stores/loads through atomics keep the race detector and the
// memory model happy without a lock anywhere.
type aggStats struct {
	parse, compile       atomic.Int64 // ns, written at compile time
	materialize, eval    atomic.Int64 // ns, accumulated per run
	facts, runs          atomic.Int64
	cacheHits, fusedRuns atomic.Int64
	subsumedRuns         atomic.Int64
	spans                atomic.Int64
}

// record folds one run's measurements into the aggregate. Runs is
// incremented BEFORE the counters bounded by it; together with
// snapshot's reverse load order this keeps any per-record invariant
// of the form counter ≤ Runs intact in every snapshot, even ones
// concurrent with a record. (For a CompiledQuery each record carries
// at most one cache hit and one fused run per run, so CacheHits ≤
// Runs and FusedRuns ≤ Runs hold; a QuerySet record folds many
// members' cache hits into one set-level run, so only FusedRuns ≤
// Runs holds there.)
func (a *aggStats) record(rs Stats) {
	a.materialize.Add(int64(rs.Materialize))
	a.eval.Add(int64(rs.Eval))
	a.facts.Add(rs.Facts)
	a.runs.Add(rs.Runs)
	a.cacheHits.Add(rs.CacheHits)
	a.fusedRuns.Add(rs.FusedRuns)
	a.subsumedRuns.Add(rs.SubsumedRuns)
	a.spans.Add(rs.Spans)
}

// snapshot assembles the aggregate into a Stats value. The counters
// bounded per record (FusedRuns, CacheHits) are loaded before Runs —
// Go atomics are sequentially consistent, so any bounded increment
// this snapshot observes has its preceding Runs increment observed
// too, preserving record's ≤ Runs invariants without a lock.
// Unrelated fields can still tear against each other; the per-field
// totals are each exact.
func (a *aggStats) snapshot() Stats {
	subsumedRuns := a.subsumedRuns.Load()
	fusedRuns := a.fusedRuns.Load()
	cacheHits := a.cacheHits.Load()
	return Stats{
		Parse:        time.Duration(a.parse.Load()),
		Compile:      time.Duration(a.compile.Load()),
		Materialize:  time.Duration(a.materialize.Load()),
		Eval:         time.Duration(a.eval.Load()),
		Facts:        a.facts.Load(),
		Runs:         a.runs.Load(),
		CacheHits:    cacheHits,
		FusedRuns:    fusedRuns,
		SubsumedRuns: subsumedRuns,
		Spans:        a.spans.Load(),
	}
}

// planKey is the TreeCache result-memo key of a datalog-routed plan: a
// fingerprint of the post-optimization program plus engine and
// projection context, with the rule count mixed in as a collision
// backstop.
type planKey struct {
	hash  uint64
	rules int
}

func newPlanKey(p *Program, engine Engine, project []string) planKey {
	extra := append([]string{engine.String()}, project...)
	c := opt.Canonicalize(p, extra...)
	return planKey{hash: c.Hash, rules: c.Rules}
}

// Compile parses src in the given language, normalizes it onto one of
// the engine-ready forms (datalog plan, tree automaton, or direct
// evaluator), and prepares the execution plan. The result amortizes
// all of that across every later Select / Eval / Wrap call.
func Compile(src string, lang Language, opts ...Option) (*CompiledQuery, error) {
	start := time.Now()
	build, err := parseSource(src, lang, opts)
	if err != nil {
		return nil, err
	}
	parse := time.Since(start)
	q, err := build()
	if err != nil {
		return nil, err
	}
	q.src = src
	q.setParse(parse)
	return q, nil
}

// parseSource parses src and returns the deferred AST-level compile
// step, so Compile has exactly one success path for all languages.
func parseSource(src string, lang Language, opts []Option) (func() (*CompiledQuery, error), error) {
	switch lang {
	case LangDatalog, LangTMNF:
		p, err := datalog.ParseProgram(src)
		if err != nil {
			return nil, err
		}
		return func() (*CompiledQuery, error) { return compileDatalog(p, lang, newConfig(opts)) }, nil
	case LangMSO:
		f, err := mso.Parse(src)
		if err != nil {
			return nil, err
		}
		return func() (*CompiledQuery, error) { return CompileMSO(f, opts...) }, nil
	case LangXPath:
		x, err := xpath.Parse(src)
		if err != nil {
			return nil, err
		}
		return func() (*CompiledQuery, error) { return CompileXPath(x, opts...) }, nil
	case LangCaterpillar:
		e, err := caterpillar.Parse(src)
		if err != nil {
			return nil, err
		}
		return func() (*CompiledQuery, error) { return CompileCaterpillar(e, opts...) }, nil
	case LangElog:
		p, err := elog.ParseProgram(src)
		if err != nil {
			return nil, err
		}
		return func() (*CompiledQuery, error) { return CompileElog(p, opts...) }, nil
	case LangSpanner:
		p, err := span.ParseProgram(src)
		if err != nil {
			return nil, err
		}
		return func() (*CompiledQuery, error) { return CompileSpanner(p, opts...) }, nil
	}
	if lang == langInvalid {
		return nil, fmt.Errorf("mdlog: no query language specified (want %s)", languageList())
	}
	return nil, fmt.Errorf("mdlog: unknown language %v", lang)
}

func newConfig(opts []Option) *compileConfig {
	cfg := &compileConfig{engine: eval.DefaultEngine, optLevel: OptFull}
	for _, o := range opts {
		o(cfg)
	}
	return cfg
}

// visiblePreds computes the predicates whose extensions a caller can
// observe through Eval/Select/Wrap: the extraction list (WithExtract,
// defaulting to every intensional predicate of the source program)
// plus the distinguished query predicate. This set is both the
// optimizer's root set — everything else is fair game for elimination
// and inlining — and the projection applied to engine results, so all
// engines expose the same relations (normalization and splitting
// helpers such as tm_*/conn_* never leak).
func visiblePreds(p *Program, cfg *compileConfig, all []string) []string {
	var vis []string
	if len(cfg.extract) > 0 {
		vis = append(vis, cfg.extract...)
	} else {
		vis = append(vis, all...)
	}
	for _, pred := range []string{cfg.queryPred, p.Query} {
		if pred != "" && !slices.Contains(vis, pred) {
			vis = append(vis, pred)
		}
	}
	return vis
}

func (cfg *compileConfig) newQuery(lang Language, plan queryPlan, queryPred string, extract []string) *CompiledQuery {
	cache := cfg.cache
	if cache == nil && !cfg.noCache {
		cache = NewTreeCache(DefaultCacheTrees)
	}
	if cfg.queryPred != "" {
		queryPred = cfg.queryPred
	}
	if len(cfg.extract) > 0 {
		extract = cfg.extract
	}
	q := &CompiledQuery{
		lang:      lang,
		queryPred: queryPred,
		extract:   extract,
		wrapOpts:  cfg.wrapOpts,
		cache:     cache,
		plan:      plan,
	}
	q.memoKey = q
	return q
}

func (q *CompiledQuery) setParse(d time.Duration) { q.agg.parse.Store(int64(d)) }

func (q *CompiledQuery) setCompile(d time.Duration) { q.agg.compile.Store(int64(d)) }

// CompileProgram prepares an already-parsed monadic datalog program
// (the AST-level twin of Compile(src, LangDatalog)).
func CompileProgram(p *Program, opts ...Option) (*CompiledQuery, error) {
	return compileDatalog(p, LangDatalog, newConfig(opts))
}

// checkEngine rejects Engine values outside the defined set at
// compile time, naming the valid engines — an unknown engine must
// never defer its failure to the first run (or silently fall back).
func (cfg *compileConfig) checkEngine() error {
	if !eval.ValidEngine(cfg.engine) {
		return fmt.Errorf("mdlog: unknown engine %v (valid engines: %s)",
			cfg.engine, strings.Join(eval.EngineNames(), ", "))
	}
	return nil
}

// isGroundingEngine reports whether the engine executes prepared
// Theorem 4.2 grounding plans (per-rule anchor propagation) rather
// than set-oriented relational evaluation.
func isGroundingEngine(e Engine) bool { return e == EngineLinear || e == EngineBitmap }

// groundingEngine is the engine for a source that always grounds
// (XPath, caterpillar, a spanner's node part): the configured engine
// if it is a grounding one, the default otherwise — the set-oriented
// engines are ignored there, as documented on WithEngine.
func (c *compileConfig) groundingEngine() Engine {
	if isGroundingEngine(c.engine) {
		return c.engine
	}
	return eval.DefaultEngine
}

// groundPlan prepares an already-normalized program for one of the
// two grounding engines: the Theorem 4.2 linear engine or its
// columnar bitmap counterpart.
func groundPlan(np *Program, engine Engine, project []string) (queryPlan, error) {
	if engine == EngineBitmap {
		bp, err := eval.NewBitmapPlan(np)
		if err != nil {
			return nil, err
		}
		return &bitmapPlan{plan: bp, project: project}, nil
	}
	pl, err := eval.NewPlan(np)
	if err != nil {
		return nil, err
	}
	return &linearPlan{plan: pl, project: project}, nil
}

func compileDatalog(p *Program, lang Language, cfg *compileConfig) (*CompiledQuery, error) {
	start := time.Now()
	if err := cfg.checkEngine(); err != nil {
		return nil, err
	}
	extract := p.IntensionalPreds()
	if lang == LangTMNF {
		if err := tmnf.IsTMNF(p); err != nil {
			return nil, err
		}
	}
	visible := visiblePreds(p, cfg, extract)
	var plan queryPlan
	var report OptReport
	var memoKey any
	if isGroundingEngine(cfg.engine) {
		np := p
		// Normalize: the grounding engines cannot use child/2 (no
		// functional dependency, Proposition 4.1); Theorem 5.2
		// eliminates it. The visible-predicate projection keeps the
		// tm_* auxiliaries out of the result relations.
		if lang == LangDatalog && eval.SignatureOf(p).Child {
			tp, err := tmnf.Transform(p)
			if err != nil {
				return nil, err
			}
			np = tp
		}
		np, report = opt.Optimize(np, opt.Options{Level: cfg.optLevel, Roots: visible})
		pl, err := groundPlan(np, cfg.engine, visible)
		if err != nil {
			return nil, err
		}
		plan = pl
		memoKey = newPlanKey(np, cfg.engine, visible)
	} else {
		if err := p.Check(); err != nil {
			return nil, err
		}
		// The set-oriented engines admit programs by rule shape
		// (Datalog LIT most strictly), so the optimizer must not fuse
		// rules here; the goal-directed and deduplication passes still
		// apply.
		op, rep := opt.Optimize(p, opt.Options{Level: cfg.optLevel, Roots: visible, KeepShape: true})
		report = rep
		plan = &genericPlan{prog: op, engine: cfg.engine, sig: eval.GenericSignature(op), project: visible}
		memoKey = newPlanKey(op, cfg.engine, visible)
	}
	q := cfg.newQuery(lang, plan, p.Query, extract)
	q.optReport = report
	q.memoKey = memoKey
	q.setCompile(time.Since(start))
	return q, nil
}

// CompileMSO prepares an already-parsed unary MSO formula.
func CompileMSO(f MSOFormula, opts ...Option) (*CompiledQuery, error) {
	cfg := newConfig(opts)
	start := time.Now()
	if err := cfg.checkEngine(); err != nil {
		return nil, err
	}
	uq, err := mso.CompileQuery(f)
	if err != nil {
		return nil, err
	}
	pred := cfg.queryPred
	if pred == "" {
		pred = DefaultQueryPred
	}
	q := cfg.newQuery(LangMSO, &msoPlan{q: uq, pred: pred}, pred, []string{pred})
	q.setCompile(time.Since(start))
	return q, nil
}

// CompileXPath prepares an already-parsed Core XPath query.
func CompileXPath(x *XPath, opts ...Option) (*CompiledQuery, error) {
	cfg := newConfig(opts)
	start := time.Now()
	if err := cfg.checkEngine(); err != nil {
		return nil, err
	}
	pred := cfg.queryPred
	if pred == "" {
		pred = DefaultQueryPred
	}
	// XPath always routes through the TMNF translation.
	engine := cfg.groundingEngine()
	var plan queryPlan
	var report OptReport
	var memoKey any
	if x.HasNegation() {
		// not(·) has no positive datalog translation; use the direct
		// evaluator (reference semantics).
		plan = &xpathDirectPlan{x: x, pred: pred}
	} else {
		dp, err := xpath.ToDatalog(x, pred)
		if err != nil {
			return nil, err
		}
		tp, err := tmnf.Transform(dp)
		if err != nil {
			return nil, err
		}
		tp, report = opt.Optimize(tp, opt.Options{Level: cfg.optLevel, Roots: []string{pred}})
		pl, err := groundPlan(tp, engine, []string{pred})
		if err != nil {
			return nil, err
		}
		plan = pl
		memoKey = newPlanKey(tp, engine, []string{pred})
	}
	q := cfg.newQuery(LangXPath, plan, pred, []string{pred})
	q.optReport = report
	if memoKey != nil {
		q.memoKey = memoKey
	}
	q.setCompile(time.Since(start))
	return q, nil
}

// CompileCaterpillar prepares a caterpillar expression as the unary
// query root.E (Corollary 5.12).
func CompileCaterpillar(e CaterpillarExpr, opts ...Option) (*CompiledQuery, error) {
	cfg := newConfig(opts)
	start := time.Now()
	if err := cfg.checkEngine(); err != nil {
		return nil, err
	}
	pred := cfg.queryPred
	if pred == "" {
		pred = DefaultQueryPred
	}
	engine := cfg.groundingEngine()
	cp := caterpillar.QueryProgram(e, pred)
	if eval.SignatureOf(cp).Child {
		tp, err := tmnf.Transform(cp)
		if err != nil {
			return nil, err
		}
		cp = tp
	}
	cp, report := opt.Optimize(cp, opt.Options{Level: cfg.optLevel, Roots: []string{pred}})
	pl, err := groundPlan(cp, engine, []string{pred})
	if err != nil {
		return nil, err
	}
	q := cfg.newQuery(LangCaterpillar, pl, pred, []string{pred})
	q.optReport = report
	q.memoKey = newPlanKey(cp, engine, []string{pred})
	q.setCompile(time.Since(start))
	return q, nil
}

// CompileElog prepares an already-parsed Elog⁻ / Elog⁻Δ program.
func CompileElog(p *ElogProgram, opts ...Option) (*CompiledQuery, error) {
	cfg := newConfig(opts)
	start := time.Now()
	if err := cfg.checkEngine(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	patterns := p.Patterns()
	// Effective extraction list: WithExtract > program Extract > all
	// patterns; a unique entry doubles as Select's distinguished
	// pattern (Select errors with guidance otherwise).
	extract := p.Extract
	if len(cfg.extract) > 0 {
		extract = cfg.extract
	}
	if len(extract) == 0 {
		extract = patterns
	}
	pred := ""
	if len(extract) == 1 {
		pred = extract[0]
	} else if len(patterns) == 1 {
		pred = patterns[0]
	}
	var plan queryPlan
	var report OptReport
	var memoKey any
	switch {
	case p.UsesDelta():
		plan = &elogDirectPlan{prog: p, patterns: patterns}
	case !isGroundingEngine(cfg.engine):
		// WithEngine routes the Theorem 6.4 datalog translation (which
		// may use child/2) through the set-oriented engines.
		dp, err := p.ToDatalog()
		if err != nil {
			return nil, err
		}
		dp, report = opt.Optimize(dp, opt.Options{Level: cfg.optLevel, Roots: patterns, KeepShape: true})
		plan = &genericPlan{prog: dp, engine: cfg.engine, sig: eval.GenericSignature(dp), project: patterns}
		memoKey = newPlanKey(dp, cfg.engine, patterns)
	default:
		dp, err := p.CompileLinear() // ToDatalog + TMNF (Corollary 6.4)
		if err != nil {
			return nil, err
		}
		dp, report = opt.Optimize(dp, opt.Options{Level: cfg.optLevel, Roots: patterns})
		pl, err := groundPlan(dp, cfg.engine, patterns)
		if err != nil {
			return nil, err
		}
		plan = pl
		memoKey = newPlanKey(dp, cfg.engine, patterns)
	}
	q := cfg.newQuery(LangElog, plan, pred, extract)
	q.optReport = report
	if memoKey != nil {
		q.memoKey = memoKey
	}
	q.setCompile(time.Since(start))
	return q, nil
}

// Language returns the source language the query was compiled from.
func (q *CompiledQuery) Language() Language { return q.lang }

// Source returns the source text, if the query came from Compile.
func (q *CompiledQuery) Source() string { return q.src }

// QueryPred returns the predicate Select reads ("" if undetermined).
func (q *CompiledQuery) QueryPred() string { return q.queryPred }

// ExtractPreds returns the predicates / patterns Wrap extracts.
func (q *CompiledQuery) ExtractPreds() []string { return append([]string(nil), q.extract...) }

// Cache returns the query's TreeCache (nil when compiled with
// WithoutCache), e.g. to Forget a mutated document.
func (q *CompiledQuery) Cache() *TreeCache { return q.cache }

// EngineName reports which engine executes this query's plan:
// a datalog engine name ("linear", "bitmap", "seminaive", ...) or one
// of the direct evaluators ("automaton", "xpath-direct",
// "elog-direct"). It is the value per-run Stats carry in Engine.
func (q *CompiledQuery) EngineName() string { return q.plan.engineName() }

// OptStats reports what the compile-time optimizer did to this query's
// plan (rules before/after, per-pass counters). The zero value means
// the plan did not route through datalog (MSO automaton, direct
// evaluators).
func (q *CompiledQuery) OptStats() OptReport { return q.optReport }

// Stats returns a snapshot of the query's aggregate statistics: the
// one-time parse/compile cost plus materialize/eval time, fact counts
// and cache hits accumulated over all runs so far. Engine is the
// query's plan engine — a compile-time property, so it attributes the
// whole aggregate (QuerySet fused passes run member plans on the
// fused plan's engine, which member compilation pins to the same
// value).
func (q *CompiledQuery) Stats() Stats {
	rs := q.agg.snapshot()
	rs.Engine = q.plan.engineName()
	return rs
}

func (q *CompiledQuery) record(rs Stats) { q.agg.record(rs) }

// Eval runs the plan on one document and returns the visible result
// relations (all intensional predicates for datalog programs, the
// query predicate for MSO/XPath/caterpillar, every pattern for Elog).
//
// The returned database may be shared with the query's result memo
// and with concurrent callers: treat it as read-only and Clone before
// mutating.
func (q *CompiledQuery) Eval(ctx context.Context, t *Tree) (*Database, error) {
	db, _, err := q.EvalStats(ctx, t)
	return db, err
}

// runCached consults the per-(query, tree) result memo before the
// plan: on an immutable document the plan is deterministic, so a
// repeat run is a map lookup (use TreeCache.Forget after mutating a
// document, or WithoutCache to opt out). The cached database is
// shared and must be treated as read-only.
func (q *CompiledQuery) runCached(ctx context.Context, t *Tree) (*Database, Stats, error) {
	return q.runCachedIn(ctx, t, q.cache)
}

// runCachedIn is runCached against an explicit cache instead of the
// query's own — a QuerySet routes its unfused members through the
// set's cache, so one Forget invalidates every member's state for a
// mutated document.
func (q *CompiledQuery) runCachedIn(ctx context.Context, t *Tree, cache *TreeCache) (*Database, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if cache != nil {
		if db, ok := cache.Result(t, q.memoKey); ok {
			return db, Stats{CacheHits: 1, Engine: q.plan.engineName()}, nil
		}
	}
	db, rs, err := q.plan.run(ctx, t, cache)
	if err == nil && cache != nil {
		cache.SetResult(t, q.memoKey, db)
	}
	return db, rs, err
}

// EvalStats is Eval returning per-run statistics. The returned
// database is shared (see Eval) — read-only.
func (q *CompiledQuery) EvalStats(ctx context.Context, t *Tree) (*Database, Stats, error) {
	db, rs, err := q.runCached(ctx, t)
	if err != nil {
		return nil, rs, err
	}
	rs.Runs = 1
	rs.Facts = int64(db.Size())
	q.record(rs)
	return db, rs, nil
}

// Select runs the plan on one document and returns the sorted
// document-order ids of the nodes its query predicate selects — the
// paper's unary-query interface, uniform across all seven languages
// (for a spanner it selects the node part's ?- predicate; Spans
// returns the span relations).
func (q *CompiledQuery) Select(ctx context.Context, t *Tree) ([]int, error) {
	ids, _, err := q.SelectStats(ctx, t)
	return ids, err
}

// SelectStats is Select returning per-run statistics.
func (q *CompiledQuery) SelectStats(ctx context.Context, t *Tree) ([]int, Stats, error) {
	if q.queryPred == "" {
		return nil, Stats{}, fmt.Errorf("mdlog: %v query has no distinguished query predicate; compile with WithQueryPred or add a ?- directive / Extract list", q.lang)
	}
	db, rs, err := q.runCached(ctx, t)
	if err != nil {
		return nil, rs, err
	}
	ids := db.UnarySet(q.queryPred)
	rs.Runs = 1
	rs.Facts = int64(len(ids))
	q.record(rs)
	return ids, rs, nil
}

// Wrap runs the plan as a wrapper (Section 6): the nodes selected by
// the extraction predicates are kept, relabeled by pattern name, and
// reconnected through the transitive closure of the edge relation.
func (q *CompiledQuery) Wrap(ctx context.Context, t *Tree) (*Tree, error) {
	out, _, err := q.WrapAssign(ctx, t)
	return out, err
}

// WrapAssign is Wrap also returning the pattern → nodes assignment.
func (q *CompiledQuery) WrapAssign(ctx context.Context, t *Tree) (*Tree, Assignment, error) {
	a, err := q.Assign(ctx, t)
	if err != nil {
		return nil, nil, err
	}
	return wrap.BuildOutput(t, a, q.wrapOpts), a, nil
}

// Assign runs the plan and returns only the pattern → nodes
// assignment — Wrap without constructing the output tree, for
// consumers (APIs, services) that serialize the assignment directly.
func (q *CompiledQuery) Assign(ctx context.Context, t *Tree) (Assignment, error) {
	db, rs, err := q.runCached(ctx, t)
	if err != nil {
		return nil, err
	}
	a := Assignment{}
	var facts int64
	for _, pred := range q.extract {
		if ids := db.UnarySet(pred); len(ids) > 0 {
			a[pred] = ids
			facts += int64(len(ids))
		}
	}
	rs.Runs = 1
	rs.Facts = facts
	q.record(rs)
	return a, nil
}

// ---------------------------------------------------------------------
// Plan implementations.

// linearPlan executes a prepared Theorem 4.2 plan; project restricts
// the visible predicates (nil: everything the program derives).
type linearPlan struct {
	plan    *eval.Plan
	project []string
}

func (p *linearPlan) engineName() string { return EngineLinear.String() }

func (p *linearPlan) run(ctx context.Context, t *Tree, cache *TreeCache) (*Database, Stats, error) {
	return runGrounding(ctx, t, cache, p.engineName(), p.project, p.plan.Run)
}

// bitmapPlan executes a prepared columnar bitmap plan — the same
// Theorem 4.2 fragment as linearPlan, evaluated as bulk bitset
// algebra over the arena columns.
type bitmapPlan struct {
	plan    *eval.BitmapPlan
	project []string
}

func (p *bitmapPlan) engineName() string { return EngineBitmap.String() }

func (p *bitmapPlan) run(ctx context.Context, t *Tree, cache *TreeCache) (*Database, Stats, error) {
	return runGrounding(ctx, t, cache, p.engineName(), p.project, p.plan.Run)
}

// runGrounding is the shared run path of the two grounding-engine
// plans: fetch or build the navigation arrays, execute the prepared
// plan, project the visible relations.
func runGrounding(ctx context.Context, t *Tree, cache *TreeCache, engine string, project []string,
	exec func(*eval.Nav) (*Database, error)) (*Database, Stats, error) {
	rs := Stats{Engine: engine}
	if err := ctx.Err(); err != nil {
		return nil, rs, err
	}
	var nav *eval.Nav
	start := time.Now()
	if cache != nil {
		var hit bool
		nav, hit = cache.NavCached(t)
		if hit {
			rs.CacheHits = 1
		}
	} else {
		nav = eval.NewNav(t)
	}
	rs.Materialize = time.Since(start)
	start = time.Now()
	db, err := exec(nav)
	rs.Eval = time.Since(start)
	if err != nil {
		return nil, rs, err
	}
	if project != nil {
		db = db.Project(project)
	}
	return db, rs, nil
}

// genericPlan routes through the set-oriented engines (semi-naive,
// naive, LIT) over a materialized — and memoized — tree database.
// project lists the visible predicates, so every engine (LIT's
// connected-splitting helpers included) exposes the same relations as
// the linear plan.
type genericPlan struct {
	prog    *datalog.Program
	engine  Engine
	sig     eval.Signature
	project []string
}

func (p *genericPlan) engineName() string { return p.engine.String() }

func (p *genericPlan) run(ctx context.Context, t *Tree, cache *TreeCache) (*Database, Stats, error) {
	rs := Stats{Engine: p.engineName()}
	if err := ctx.Err(); err != nil {
		return nil, rs, err
	}
	var edb *Database
	start := time.Now()
	if cache != nil {
		var hit bool
		edb, hit = cache.DBCached(t, p.sig)
		if hit {
			rs.CacheHits = 1
		}
	} else {
		edb = p.sig.TreeDB(t)
	}
	rs.Materialize = time.Since(start)
	start = time.Now()
	var full *Database
	var err error
	switch p.engine {
	case EngineSemiNaive:
		full, err = datalog.SemiNaiveEval(p.prog, edb)
	case EngineNaive:
		full, err = datalog.NaiveEval(p.prog, edb)
	case EngineLIT:
		full, err = eval.LITEval(p.prog, edb)
	default:
		err = fmt.Errorf("mdlog: engine %v is not supported by the generic plan", p.engine)
	}
	rs.Eval = time.Since(start)
	if err != nil {
		return nil, rs, err
	}
	if p.project != nil {
		full = full.Project(p.project)
	} else {
		full = full.Project(p.prog.IntensionalPreds())
	}
	return full, rs, nil
}

// msoPlan runs the compiled tree automaton (two linear passes).
type msoPlan struct {
	q    *MSOQuery
	pred string
}

func (p *msoPlan) engineName() string { return "automaton" }

func (p *msoPlan) run(ctx context.Context, t *Tree, _ *TreeCache) (*Database, Stats, error) {
	rs := Stats{Engine: p.engineName()}
	if err := ctx.Err(); err != nil {
		return nil, rs, err
	}
	start := time.Now()
	ids := p.q.Select(t)
	rs.Eval = time.Since(start)
	return unaryDB(t, p.pred, ids), rs, nil
}

// xpathDirectPlan runs the reference Core XPath evaluator (needed for
// not(·), which has no positive datalog translation).
type xpathDirectPlan struct {
	x    *XPath
	pred string
}

func (p *xpathDirectPlan) engineName() string { return "xpath-direct" }

func (p *xpathDirectPlan) run(ctx context.Context, t *Tree, _ *TreeCache) (*Database, Stats, error) {
	rs := Stats{Engine: p.engineName()}
	if err := ctx.Err(); err != nil {
		return nil, rs, err
	}
	start := time.Now()
	ids := xpath.Select(p.x, t)
	rs.Eval = time.Since(start)
	return unaryDB(t, p.pred, ids), rs, nil
}

// elogDirectPlan runs the native Elog⁻Δ fixpoint (Theorem 6.6 lives
// beyond MSO, so there is no datalog route).
type elogDirectPlan struct {
	prog     *ElogProgram
	patterns []string
}

func (p *elogDirectPlan) engineName() string { return "elog-direct" }

func (p *elogDirectPlan) run(ctx context.Context, t *Tree, _ *TreeCache) (*Database, Stats, error) {
	rs := Stats{Engine: p.engineName()}
	if err := ctx.Err(); err != nil {
		return nil, rs, err
	}
	start := time.Now()
	res, err := p.prog.EvalDirect(t)
	rs.Eval = time.Since(start)
	if err != nil {
		return nil, rs, err
	}
	db := datalog.NewDatabase(t.Size())
	for _, pat := range p.patterns {
		rel := db.Rel(pat, 1)
		for _, id := range res[pat] {
			rel.Add([]int{id})
		}
	}
	return db, rs, nil
}

func unaryDB(t *tree.Tree, pred string, ids []int) *Database {
	db := datalog.NewDatabase(t.Size())
	rel := db.Rel(pred, 1)
	for _, id := range ids {
		rel.Add([]int{id})
	}
	return db
}
