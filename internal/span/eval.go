package span

// The span evaluator: given the node part's result relations (the
// candidate nodes per span rule, computed by the linear/bitmap engine)
// and a Source of per-node character data, run each rule's span steps
// over each candidate node and emit the span relations. Automata are
// compiled once per program (NewEvaluator); per-run scratch buffers
// are reused across nodes, so the hot loop is allocation-light.

import (
	"fmt"
	"sort"
)

// Source supplies per-node character data. Implementations exist for
// the immutable tree (document-order ids) and the live arena (arena
// ids), so span evaluation is representation-independent.
type Source interface {
	// NodeText returns the node's character data ("" when none).
	NodeText(id int) string
	// NodeAttr returns the value of attribute name on the node.
	NodeAttr(id int, name string) (string, bool)
}

// Span is one extracted string span. Start/End are byte offsets into
// the node's character data (for text-derived spans) or the attribute
// value (for attr-derived spans) — node-relative, so they survive
// arena Blob relocation under edits; Text is the spanned substring.
type Span struct {
	// Start and End delimit the span, half-open [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Text is the spanned substring.
	Text string `json:"text"`
}

// Binding is one result row of a span relation: a node plus one span
// per head variable.
type Binding struct {
	// Node is the candidate node's id (document-order for tree runs,
	// arena id for live-document runs).
	Node int `json:"node"`
	// Spans holds one span per head variable, in Relation.Vars order.
	Spans []Span `json:"spans"`
}

// Relation is the extension of one span rule.
type Relation struct {
	// Name is the span relation's name (the rule head).
	Name string `json:"name"`
	// Vars names the head's span variables, aligning Binding.Spans.
	Vars []string `json:"vars"`
	// Rows are the result rows, sorted by node then span offsets.
	Rows []Binding `json:"rows"`
}

// Result is a spanner query's output: one Relation per span rule, in
// program order.
type Result []Relation

// Tuples counts the result rows across all relations.
func (r Result) Tuples() int {
	n := 0
	for _, rel := range r {
		n += len(rel.Rows)
	}
	return n
}

// Rel returns the relation with the given name, or nil.
func (r Result) Rel(name string) *Relation {
	for i := range r {
		if r[i].Name == name {
			return &r[i]
		}
	}
	return nil
}

// crule is one compiled span rule: slot-allocated variables and
// pre-compiled automata.
type crule struct {
	rule      Rule
	cand      string // candidate predicate in the node program
	nslots    int
	headSlots []int
	steps     []cstep
}

type cstep struct {
	kind StepKind
	out  int // slot bound by text/attr
	a, b int // input slots (match src / filter args)
	attr string
	auto *Auto
	outs []int // capture output slots (match)
}

// sval is one bound span variable: which source string it points into
// plus its offsets there.
type sval struct {
	src        int32 // index into the per-node source list
	start, end int32
}

// Evaluator is a prepared spanner program: compiled automata plus the
// node-candidate predicate names. Immutable and safe for concurrent
// use; Eval allocates its own scratch.
type Evaluator struct {
	rules []crule
}

// NewEvaluator compiles every span rule of p (slot allocation, vset
// automata for each match atom).
func NewEvaluator(p *Program) (*Evaluator, error) {
	e := &Evaluator{}
	for i, r := range p.Rules {
		cr := crule{rule: r, cand: p.candidate(i)}
		slots := map[string]int{}
		slot := func(v string) int {
			s, ok := slots[v]
			if !ok {
				s = len(slots)
				slots[v] = s
			}
			return s
		}
		for _, st := range r.Steps {
			cs := cstep{kind: st.Kind, attr: st.Attr}
			switch st.Kind {
			case StepText, StepAttr:
				cs.out = slot(st.Out)
			case StepMatch:
				cs.a = slots[st.Src]
				cs.auto = st.Re.Compile()
				for _, o := range st.Outs {
					cs.outs = append(cs.outs, slot(o))
				}
			case StepWithin, StepBefore:
				cs.a, cs.b = slots[st.Src], slots[st.Arg2]
			}
			cr.steps = append(cr.steps, cs)
		}
		for _, hv := range r.HeadVars {
			s, ok := slots[hv]
			if !ok {
				return nil, fmt.Errorf("span: rule %s: head variable %s has no slot", r.Name, hv)
			}
			cr.headSlots = append(cr.headSlots, s)
		}
		cr.nslots = len(slots)
		e.rules = append(e.rules, cr)
	}
	return e, nil
}

// CandidatePreds returns the node-program predicates whose extensions
// carry each rule's candidate nodes, in rule order (see
// Program.NodeProgram).
func (e *Evaluator) CandidatePreds() []string {
	out := make([]string, len(e.rules))
	for i := range e.rules {
		out[i] = e.rules[i].cand
	}
	return out
}

// Eval runs every span rule over its candidate nodes. nodes maps a
// candidate predicate name to its sorted node ids (typically
// db.UnarySet); src supplies the character data. The result has one
// relation per rule in program order, rows sorted and deduplicated.
func (e *Evaluator) Eval(src Source, nodes func(pred string) []int) Result {
	out := make(Result, len(e.rules))
	st := &evalState{}
	for i := range e.rules {
		cr := &e.rules[i]
		rel := Relation{Name: cr.rule.Name, Vars: cr.rule.HeadVars}
		cands := nodes(cr.cand)
		if len(cands) > 0 {
			// Most candidates yield at least one row; presizing saves
			// the doubling-growth copies on large extractions.
			rel.Rows = make([]Binding, 0, len(cands))
		}
		for ci, id := range cands {
			st.reset(cr, id)
			st.step(src, 0, func() {
				if len(rel.Rows) == cap(rel.Rows) {
					rel.Rows = growRows(rel.Rows, ci+1, len(cands))
				}
				rel.Rows = append(rel.Rows, st.row())
			})
		}
		rel.Rows = dedupRows(rel.Rows)
		out[i] = rel
	}
	return out
}

// evalState is the per-run walker for one rule instantiation.
type evalState struct {
	cr   *crule
	node int
	vals []sval
	srcs []string
	// scs holds one Scratch per step index: match atoms nest (the
	// outer Enumerate's DFS is live while the inner runs), so they
	// must not share buffers.
	scs []*Scratch
	// arena chunk-allocates Binding.Spans backing arrays: result rows
	// are numerous and tiny, so one make per row is pure GC pressure.
	// Chunks are never appended to after rows point into them.
	arena []Span
}

func (st *evalState) scratch(i int) *Scratch {
	for len(st.scs) <= i {
		st.scs = append(st.scs, NewScratch())
	}
	return st.scs[i]
}

func (st *evalState) reset(cr *crule, node int) {
	st.cr, st.node = cr, node
	if cap(st.vals) < cr.nslots {
		st.vals = make([]sval, cr.nslots)
	}
	st.vals = st.vals[:cr.nslots]
	st.srcs = st.srcs[:0]
}

// step evaluates the rule's steps from index i on, calling done for
// every complete instantiation (match atoms branch per tuple).
func (st *evalState) step(src Source, i int, done func()) {
	if i == len(st.cr.steps) {
		done()
		return
	}
	cs := &st.cr.steps[i]
	switch cs.kind {
	case StepText:
		s := src.NodeText(st.node)
		if s == "" {
			return
		}
		st.srcs = append(st.srcs, s)
		st.vals[cs.out] = sval{src: int32(len(st.srcs) - 1), end: int32(len(s))}
		st.step(src, i+1, done)
		st.srcs = st.srcs[:len(st.srcs)-1]
	case StepAttr:
		s, ok := src.NodeAttr(st.node, cs.attr)
		if !ok {
			return
		}
		st.srcs = append(st.srcs, s)
		st.vals[cs.out] = sval{src: int32(len(st.srcs) - 1), end: int32(len(s))}
		st.step(src, i+1, done)
		st.srcs = st.srcs[:len(st.srcs)-1]
	case StepMatch:
		in := st.vals[cs.a]
		content := st.srcs[in.src][in.start:in.end]
		cs.auto.Enumerate(content, st.scratch(i), func(marks []int32) {
			for j, o := range cs.outs {
				st.vals[o] = sval{src: in.src, start: in.start + marks[2*j], end: in.start + marks[2*j+1]}
			}
			st.step(src, i+1, done)
		})
	case StepWithin:
		a, b := st.vals[cs.a], st.vals[cs.b]
		if a.src == b.src && a.start >= b.start && a.end <= b.end {
			st.step(src, i+1, done)
		}
	case StepBefore:
		a, b := st.vals[cs.a], st.vals[cs.b]
		if a.src == b.src && a.end <= b.start {
			st.step(src, i+1, done)
		}
	}
}

// growRows returns rows with room for more: its length extrapolated
// from done of total candidates to all of them, plus an eighth, and
// never less than half again its length. A rule that yields several
// rows per candidate then grows once instead of doubling its way up.
func growRows(rows []Binding, done, total int) []Binding {
	n := len(rows) * total / done
	n = max(n+n/8, len(rows)+len(rows)/2+1)
	return append(make([]Binding, 0, n), rows...)
}

func (st *evalState) row() Binding {
	k := len(st.cr.headSlots)
	if len(st.arena)+k > cap(st.arena) {
		c := 2 * cap(st.arena)
		if c < 64 {
			c = 64
		}
		if c > 4096 {
			c = 4096
		}
		if c < k {
			c = k
		}
		st.arena = make([]Span, 0, c)
	}
	m := len(st.arena)
	st.arena = st.arena[: m+k : cap(st.arena)]
	spans := st.arena[m : m+k : m+k]
	for i, s := range st.cr.headSlots {
		v := st.vals[s]
		spans[i] = Span{Start: int(v.start), End: int(v.end), Text: st.srcs[v.src][v.start:v.end]}
	}
	return Binding{Node: st.node, Spans: spans}
}

// dedupRows sorts rows by (node, spans) and removes duplicates —
// distinct step instantiations can project to the same head tuple.
// Candidates arrive node-ascending and the automaton scans starts left
// to right, so single-match-step rules usually emit in order already;
// the strictly-sorted prepass skips the sort (and the rebuild) then.
func dedupRows(rows []Binding) []Binding {
	sorted := true
	for i := 1; i < len(rows); i++ {
		if cmpRows(rows[i-1], rows[i]) >= 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return rows
	}
	sort.Slice(rows, func(i, j int) bool { return cmpRows(rows[i], rows[j]) < 0 })
	out := rows[:0]
	for i, r := range rows {
		if i > 0 && cmpRows(rows[i-1], r) == 0 {
			continue
		}
		out = append(out, r)
	}
	return out
}

func cmpRows(a, b Binding) int {
	if a.Node != b.Node {
		if a.Node < b.Node {
			return -1
		}
		return 1
	}
	for i := range a.Spans {
		x, y := a.Spans[i], b.Spans[i]
		if x.Start != y.Start {
			if x.Start < y.Start {
				return -1
			}
			return 1
		}
		if x.End != y.End {
			if x.End < y.End {
				return -1
			}
			return 1
		}
		// Same offsets in different sources (text vs attr) can carry
		// different text.
		if x.Text != y.Text {
			if x.Text < y.Text {
				return -1
			}
			return 1
		}
	}
	return 0
}
