package mdlog

// The unified compile-once / run-many query API. The paper proves six
// formalisms equivalent in expressive power; this file makes them
// equivalent in use: every source language compiles through
// Compile(src, lang) into one CompiledQuery value whose one run path,
// Run (with Select / Eval / Wrap as readings of it), executes a
// prepared plan against any number of documents, concurrently, with
// per-document results memoized in a TreeCache. See DESIGN.md for the
// architecture.

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

// TreeCache memoizes per-(query, document) results across runs and
// across queries sharing the cache.
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

// WithEngine selects the grounding engine that runs datalog-routed
// plans: EngineBitmap (the default) or EngineLinear, the paper's
// reference pipeline. The MSO automaton and the direct XPath/Elog⁻Δ
// evaluators ignore it. Any other Engine value fails compilation in
// every language.
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
// queries whose prepared plans coincide share memoized results.
func WithCache(tc *TreeCache) Option { return func(c *compileConfig) { c.cache = tc } }

// WithoutCache disables per-document memoization: every run
// evaluates the document afresh.
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
	run(t *Tree) (*Database, Stats, error)
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
// all of that across every later Run.
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
		return func() (*CompiledQuery, error) { return compileDatalog(p, lang, opts) }, nil
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

// newConfig applies opts over the defaults. It rejects, for every
// language, any engine but the two grounding engines: an unknown
// engine must never defer its failure to the first run (or silently
// fall back).
func newConfig(opts []Option) (*compileConfig, error) {
	cfg := &compileConfig{engine: eval.DefaultEngine, optLevel: OptFull}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.engine != EngineLinear && cfg.engine != EngineBitmap {
		return nil, fmt.Errorf("mdlog: unsupported engine %v (valid engines: %v, %v)", cfg.engine, EngineLinear, EngineBitmap)
	}
	return cfg, nil
}

// pred is the query predicate of a language without a natural one:
// WithQueryPred's, else DefaultQueryPred.
func (cfg *compileConfig) pred() string {
	if cfg.queryPred != "" {
		return cfg.queryPred
	}
	return DefaultQueryPred
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

// newQuery builds the query shell a Compile* function installs its plan
// in; the result memo is keyed by the query's identity unless ground
// supplies a plan key.
func (cfg *compileConfig) newQuery(lang Language, queryPred string, extract []string) *CompiledQuery {
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
	}
	q.memoKey = q
	return q
}

func (q *CompiledQuery) setParse(d time.Duration) { q.agg.parse.Store(int64(d)) }

func (q *CompiledQuery) setCompile(d time.Duration) { q.agg.compile.Store(int64(d)) }

// CompileProgram prepares an already-parsed monadic datalog program
// (the AST-level twin of Compile(src, LangDatalog)).
func CompileProgram(p *Program, opts ...Option) (*CompiledQuery, error) {
	return compileDatalog(p, LangDatalog, opts)
}

// ground is the compile tail every datalog-routed language shares: it
// optimizes the normalized program np for the visible predicates,
// prepares it for the configured grounding engine, and installs the
// plan, the optimizer report and the result-memo key on q.
func (cfg *compileConfig) ground(q *CompiledQuery, np *Program, visible []string) (*groundingPlan, error) {
	np, q.optReport = opt.Optimize(np, opt.Options{Level: cfg.optLevel, Roots: visible})
	g, err := eval.NewGrounding(np, cfg.engine)
	if err != nil {
		return nil, err
	}
	gp := &groundingPlan{Grounding: g, project: visible}
	q.plan = gp
	q.memoKey = newPlanKey(np, cfg.engine, visible)
	return gp, nil
}

// withoutChild normalizes a program that uses child/2 into TMNF
// (Theorem 5.2): the grounding engines cannot use child/2, which has
// no functional dependency (Proposition 4.1). Other programs pass
// through unchanged.
func withoutChild(p *Program) (*Program, error) {
	if !eval.SignatureOf(p).Child {
		return p, nil
	}
	return tmnf.Transform(p)
}

func compileDatalog(p *Program, lang Language, opts []Option) (*CompiledQuery, error) {
	start := time.Now()
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	np := p
	if lang == LangTMNF {
		err = tmnf.IsTMNF(p)
	} else {
		np, err = withoutChild(p)
	}
	if err != nil {
		return nil, err
	}
	// The visible-predicate projection keeps the tm_* auxiliaries of
	// the normalization out of the result relations.
	extract := p.IntensionalPreds()
	q := cfg.newQuery(lang, p.Query, extract)
	if _, err := cfg.ground(q, np, visiblePreds(p, cfg, extract)); err != nil {
		return nil, err
	}
	q.setCompile(time.Since(start))
	return q, nil
}

// CompileMSO prepares an already-parsed unary MSO formula.
func CompileMSO(f MSOFormula, opts ...Option) (*CompiledQuery, error) {
	start := time.Now()
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	uq, err := mso.CompileQuery(f)
	if err != nil {
		return nil, err
	}
	pred := cfg.pred()
	q := cfg.newQuery(LangMSO, pred, []string{pred})
	q.plan = &msoPlan{q: uq, pred: pred}
	q.setCompile(time.Since(start))
	return q, nil
}

// CompileXPath prepares an already-parsed Core XPath query.
func CompileXPath(x *XPath, opts ...Option) (*CompiledQuery, error) {
	start := time.Now()
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	pred := cfg.pred()
	q := cfg.newQuery(LangXPath, pred, []string{pred})
	if x.HasNegation() {
		// not(·) has no positive datalog translation; use the direct
		// evaluator.
		q.plan = &xpathDirectPlan{x: x, pred: pred}
	} else {
		dp, err := xpath.ToDatalog(x, pred)
		if err != nil {
			return nil, err
		}
		tp, err := tmnf.Transform(dp)
		if err != nil {
			return nil, err
		}
		if _, err := cfg.ground(q, tp, []string{pred}); err != nil {
			return nil, err
		}
	}
	q.setCompile(time.Since(start))
	return q, nil
}

// CompileCaterpillar prepares a caterpillar expression as the unary
// query root.E (Corollary 5.12).
func CompileCaterpillar(e CaterpillarExpr, opts ...Option) (*CompiledQuery, error) {
	start := time.Now()
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	pred := cfg.pred()
	cp, err := withoutChild(caterpillar.QueryProgram(e, pred))
	if err != nil {
		return nil, err
	}
	q := cfg.newQuery(LangCaterpillar, pred, []string{pred})
	if _, err := cfg.ground(q, cp, []string{pred}); err != nil {
		return nil, err
	}
	q.setCompile(time.Since(start))
	return q, nil
}

// CompileElog prepares an already-parsed Elog⁻ / Elog⁻Δ program.
func CompileElog(p *ElogProgram, opts ...Option) (*CompiledQuery, error) {
	start := time.Now()
	cfg, err := newConfig(opts)
	if err != nil {
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
	q := cfg.newQuery(LangElog, pred, extract)
	if p.UsesDelta() {
		q.plan = &elogDirectPlan{prog: p, patterns: patterns}
	} else {
		dp, err := p.CompileLinear() // ToDatalog + TMNF (Corollary 6.4)
		if err != nil {
			return nil, err
		}
		if _, err := cfg.ground(q, dp, patterns); err != nil {
			return nil, err
		}
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
// a grounding engine ("linear" or "bitmap") or one of the direct
// evaluators ("automaton", "xpath-direct", "elog-direct"). It is the
// value per-run Stats carry in Engine.
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

// Run runs the plan on one document and projects the answer — the
// one run path every other entry point goes through. A query is a
// one-member QuerySet, so the result is a SetResult (Index 0, no
// Name): IDs for the query predicate, the Assignment of the
// extraction predicates and, for a spanner, the Spans. An evaluation
// failure lands in Err.
func (q *CompiledQuery) Run(ctx context.Context, t *Tree) SetResult {
	_, res := q.run(ctx, t)
	return res
}

// run is Run also returning the visible result database.
func (q *CompiledQuery) run(ctx context.Context, t *Tree) (*Database, SetResult) {
	db, rs, err := runCached(ctx, t, q.cache, q.plan, q.memoKey)
	return db, q.result(arenaSource{a: t.Arena()}, db, rs, err)
}

// result builds a standalone run's SetResult; src supplies character
// data for spanner queries in db's id space.
func (q *CompiledQuery) result(src span.Source, db *Database, rs Stats, err error) SetResult {
	res := SetResult{Err: err}
	if err == nil {
		rs.Runs = 1
		q.fill(&res, src, db, rs)
	}
	return res
}

// fill completes one run's SetResult from its visible database and
// records the run's stats on the query, so per-wrapper aggregates
// (service /stats, /metrics) reflect fused runs too. It is the single
// projection of the node/assignment/span answer shapes, shared by Run,
// RunIncremental and both QuerySet paths. src supplies character data
// for spanner queries (the tree, or a live document's arena); the node
// ids in db must be in src's id space.
func (q *CompiledQuery) fill(res *SetResult, src span.Source, db *Database, st Stats) {
	if q.queryPred != "" {
		res.IDs = db.UnarySet(q.queryPred)
	}
	a := Assignment{}
	for _, pred := range q.extract {
		if ids := db.UnarySet(pred); len(ids) > 0 {
			a[pred] = ids
		}
	}
	res.Assignment = a
	if sp, ok := q.plan.(*spannerPlan); ok {
		start := time.Now()
		res.Spans = sp.eval.Eval(src, db.UnarySet)
		st.Eval += time.Since(start)
		st.Spans = int64(res.Spans.Tuples())
	}
	st.Facts = int64(db.Size())
	res.Stats = st
	q.record(st)
}

// Eval runs the plan on one document and returns the visible result
// relations (all intensional predicates for datalog programs, the
// query predicate for MSO/XPath/caterpillar, every pattern for Elog).
//
// The returned database may be shared with the query's result memo
// and with concurrent callers: treat it as read-only and Clone before
// mutating.
func (q *CompiledQuery) Eval(ctx context.Context, t *Tree) (*Database, error) {
	db, res := q.run(ctx, t)
	return db, res.Err
}

// runCached is the one way a plan runs over a tree: it consults the
// result memo in cache (nil: no memoization) under key before running
// the plan, and memoizes what the plan returns. On an immutable
// document the plan is deterministic, so a repeat run is a map lookup
// (use TreeCache.Forget after mutating a document, or WithoutCache to
// opt out). The cached database is shared and must be treated as
// read-only.
func runCached(ctx context.Context, t *Tree, cache *TreeCache, plan queryPlan, key any) (*Database, Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, Stats{}, err
	}
	if cache != nil {
		if db, ok := cache.Result(t, key); ok {
			return db, Stats{CacheHits: 1, Engine: plan.engineName()}, nil
		}
	}
	db, rs, err := plan.run(t)
	if err == nil && cache != nil {
		cache.SetResult(t, key, db)
	}
	return db, rs, err
}

// Select runs the plan on one document and returns the sorted
// document-order ids of the nodes its query predicate selects — the
// paper's unary-query interface, uniform across all seven languages
// (for a spanner it selects the node part's ?- predicate; Spans
// returns the span relations). It is Run's IDs, erroring when the
// query has no distinguished query predicate.
func (q *CompiledQuery) Select(ctx context.Context, t *Tree) ([]int, error) {
	if q.queryPred == "" {
		return nil, fmt.Errorf("mdlog: %v query has no distinguished query predicate; compile with WithQueryPred or add a ?- directive / Extract list", q.lang)
	}
	res := q.Run(ctx, t)
	return res.IDs, res.Err
}

// Wrap runs the plan as a wrapper (Section 6): the nodes selected by
// the extraction predicates — Run's Assignment — are kept, relabeled
// by pattern name, and reconnected through the transitive closure of
// the edge relation.
func (q *CompiledQuery) Wrap(ctx context.Context, t *Tree) (*Tree, error) {
	res := q.Run(ctx, t)
	if res.Err != nil {
		return nil, res.Err
	}
	return wrap.BuildOutput(t, res.Assignment, q.wrapOpts), nil
}

// ---------------------------------------------------------------------
// Plan implementations.

// groundingPlan runs a prepared grounding plan — the Theorem 4.2
// linear engine or its columnar bitmap counterpart — projected onto the
// visible predicates (nil: everything the program derives).
type groundingPlan struct {
	eval.Grounding
	project []string
	// sigs memoizes the program's UCQ signatures for QuerySet fusion,
	// so rebuilding a set unfolds only its newly compiled members; it
	// lives and dies with the compiled query.
	sigs opt.Signatures
}

func (p *groundingPlan) engineName() string { return p.Engine().String() }

// run builds the navigation arrays over t's arena and executes the
// plan, which materializes only the visible relations.
func (p *groundingPlan) run(t *Tree) (*Database, Stats, error) {
	rs := Stats{Engine: p.engineName()}
	start := time.Now()
	nav := eval.NewNav(t)
	rs.Materialize = time.Since(start)
	start = time.Now()
	db, err := p.Run(nav, p.project)
	rs.Eval = time.Since(start)
	return db, rs, err
}

// groundingOf returns the grounding plan behind p — a spanner's node
// part included — or nil for the automaton and the direct evaluators.
func groundingOf(p queryPlan) *groundingPlan {
	switch p := p.(type) {
	case *groundingPlan:
		return p
	case *spannerPlan:
		return p.groundingPlan
	}
	return nil
}

// msoPlan runs the compiled tree automaton (two linear passes).
type msoPlan struct {
	q    *MSOQuery
	pred string
}

func (p *msoPlan) engineName() string { return "automaton" }

func (p *msoPlan) run(t *Tree) (*Database, Stats, error) {
	rs := Stats{Engine: p.engineName()}
	start := time.Now()
	ids := p.q.Select(t)
	rs.Eval = time.Since(start)
	db, err := unaryDB(t.Arena().Len(), p.pred, ids)
	return db, rs, err
}

// xpathDirectPlan runs the direct Core XPath evaluator (needed for
// not(·), which has no positive datalog translation).
type xpathDirectPlan struct {
	x    *XPath
	pred string
}

func (p *xpathDirectPlan) engineName() string { return "xpath-direct" }

func (p *xpathDirectPlan) run(t *Tree) (*Database, Stats, error) {
	rs := Stats{Engine: p.engineName()}
	start := time.Now()
	ids := xpath.Select(p.x, t)
	rs.Eval = time.Since(start)
	db, err := unaryDB(t.Arena().Len(), p.pred, ids)
	return db, rs, err
}

// elogDirectPlan runs the native Elog⁻Δ fixpoint (Theorem 6.6 lives
// beyond MSO, so there is no datalog route).
type elogDirectPlan struct {
	prog     *ElogProgram
	patterns []string
}

func (p *elogDirectPlan) engineName() string { return "elog-direct" }

func (p *elogDirectPlan) run(t *Tree) (*Database, Stats, error) {
	rs := Stats{Engine: p.engineName()}
	start := time.Now()
	res, err := p.prog.EvalDirect(t)
	rs.Eval = time.Since(start)
	if err != nil {
		return nil, rs, err
	}
	db := datalog.NewDatabase(t.Arena().Len())
	for _, pat := range p.patterns {
		if err := addUnary(db, pat, res[pat]); err != nil {
			return nil, rs, err
		}
	}
	return db, rs, nil
}

// unaryDB wraps one evaluator's answer — sorted, distinct node ids
// over a domain of dom nodes — as the unary relation pred.
func unaryDB(dom int, pred string, ids []int) (*Database, error) {
	db := datalog.NewDatabase(dom)
	if err := addUnary(db, pred, ids); err != nil {
		return nil, err
	}
	return db, nil
}

// addUnary adds distinct node ids to db as the unary relation pred. An
// id outside db's domain is an evaluator fault; it fails the run rather
// than reach callers that size their reads by the domain.
func addUnary(db *Database, pred string, ids []int) error {
	for _, id := range ids {
		if id < 0 || id >= db.Dom {
			return fmt.Errorf("mdlog: %s selects node %d outside the document's %d arena ids", pred, id, db.Dom)
		}
	}
	db.Rel(pred, 1).AddUnarySet(ids)
	return nil
}
