package mdlog

// LangSpanner: the document-spanner front end. A spanner program
// combines ordinary monadic-datalog rules (node selection) with span
// rules whose regex formulas extract substrings of node text and
// attribute values (internal/span). Compilation splits the program:
// the node part — user rules plus one synthesized candidate predicate
// per span rule — routes through the standard optimize → grounding
// pipeline (linear or bitmap engine) exactly like any datalog query,
// while the span part compiles each regex formula to a variable-set
// automaton run lazily over the matched nodes' character data. The
// node database is memoized per (query, tree) in the TreeCache as
// usual; span enumeration re-runs per call, reading whatever text the
// document currently carries.

import (
	"context"
	"fmt"
	"slices"
	"time"

	"mdlog/internal/span"
	"mdlog/internal/tree"
)

// SpannerProgram is a parsed spanner program: monadic-datalog node
// rules plus span rules (see ParseSpanner for the syntax).
type SpannerProgram = span.Program

// Span is one extracted substring: byte offsets into the node's text
// (or attribute value) plus the spanned text itself.
type Span = span.Span

// SpanBinding is one span-relation row: a node id plus one Span per
// head variable.
type SpanBinding = span.Binding

// SpanRelation is the extension of one span rule: its name, head
// variables, and sorted rows.
type SpanRelation = span.Relation

// SpanResult is a spanner run's output, one SpanRelation per span
// rule in program order.
type SpanResult = span.Result

// ParseSpanner parses a spanner program: '.'-terminated statements
// where a rule whose head has one variable is an ordinary
// monadic-datalog rule and a rule whose head has a node variable plus
// span variables is a span rule, e.g.
//
//	cell(X)     :- label_td(Y), firstchild(Y, X), label_#text(X).
//	price(X, A) :- cell(X), text(X, S), match(S, /\$(?<amt>\d+\.\d\d)/, A).
//
// Span-rule bodies use text(X, S), attr(X, "name", S), match(S,
// /re/, V...), within(A, B) and before(A, B); see internal/span for
// the exact semantics and the regex-formula restrictions.
func ParseSpanner(src string) (*SpannerProgram, error) { return span.ParseProgram(src) }

// spannerPlan wraps the node part's grounding plan with the compiled
// span evaluator. The node part runs (and caches) like any grounding
// plan; CompiledQuery.fill adds the span enumeration on top.
type spannerPlan struct {
	*groundingPlan
	eval *span.Evaluator
}

// CompileSpanner prepares an already-parsed spanner program (the
// AST-level twin of Compile(src, LangSpanner)).
func CompileSpanner(p *SpannerProgram, opts ...Option) (*CompiledQuery, error) {
	start := time.Now()
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	np, cands, err := p.NodeProgram()
	if err != nil {
		return nil, err
	}
	ev, err := span.NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	// The candidate predicates must stay visible past the optimizer —
	// they are what the span evaluator reads — alongside whatever the
	// user program exposes.
	extract := np.IntensionalPreds()
	visible := visiblePreds(np, cfg, extract)
	for _, c := range cands {
		if !slices.Contains(visible, c) {
			visible = append(visible, c)
		}
	}
	np, err = withoutChild(np)
	if err != nil {
		return nil, err
	}
	q := cfg.newQuery(LangSpanner, p.Node.Query, extract)
	gp, err := cfg.ground(q, np, visible)
	if err != nil {
		return nil, err
	}
	q.plan = &spannerPlan{groundingPlan: gp, eval: ev}
	q.setCompile(time.Since(start))
	return q, nil
}

// arenaSource adapts a tree's arena to the span evaluator's Source —
// the one Source for parsed documents, hand-built trees (whose arena
// Tree.Arena builds once) and live documents alike. Ids are arena ids,
// and text reads through the out-of-line overrides, so spans always
// reflect the current document text.
type arenaSource struct{ a *tree.Arena }

func (s arenaSource) NodeText(id int) string {
	if id < 0 || id >= s.a.Len() {
		return ""
	}
	return s.a.Text(int32(id))
}

func (s arenaSource) NodeAttr(id int, name string) (string, bool) {
	if id < 0 || id >= s.a.Len() {
		return "", false
	}
	v, ok := s.a.Attrs[int32(id)][name]
	return v, ok
}

// Spans runs a spanner query on one document: the node part through
// the (cached) grounding plan, then the span rules' automata over the
// matched nodes' text and attribute values. Rows are sorted by node
// id then span offsets. Errors for non-spanner queries.
func (q *CompiledQuery) Spans(ctx context.Context, t *Tree) (SpanResult, error) {
	res, _, err := q.SpansStats(ctx, t)
	return res, err
}

// SpansStats is Spans returning per-run statistics (Stats.Spans
// counts the extracted rows).
func (q *CompiledQuery) SpansStats(ctx context.Context, t *Tree) (SpanResult, Stats, error) {
	if _, ok := q.plan.(*spannerPlan); !ok {
		return nil, Stats{}, fmt.Errorf("mdlog: Spans requires a spanner query (this query is %v)", q.lang)
	}
	res := q.Run(ctx, t)
	return res.Spans, res.Stats, res.Err
}
