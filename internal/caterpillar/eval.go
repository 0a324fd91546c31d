package caterpillar

import (
	"fmt"
	"sort"

	"mdlog/internal/automata"
	"mdlog/internal/tree"
)

// Evaluation of caterpillar expressions over trees. An expression is
// compiled (after inversion pushdown, Proposition 2.4) into an NFA
// over "atomic step" symbols; [[E]] is then computed by product-graph
// reachability between tree nodes and automaton states.

// step is an atomic navigation: a binary relation, possibly inverted,
// or a unary test.
type step struct {
	name string
	inv  bool
	test bool
}

func (s step) String() string {
	if s.test {
		return s.name
	}
	if s.inv {
		return s.name + "^-1"
	}
	return s.name
}

// compiled is a caterpillar expression compiled to an NFA over steps.
type compiled struct {
	nfa   *automata.NFA
	steps []step
}

// Compile translates E (inversions pushed down) into an NFA via the
// Thompson construction, in time O(|E|).
func Compile(e Expr) *compiled {
	e = PushInversions(e)
	c := &compiled{}
	symOf := map[step]int{}
	var collect func(e Expr)
	collect = func(e Expr) {
		switch g := e.(type) {
		case Rel:
			s := step{name: g.Name}
			if _, ok := symOf[s]; !ok {
				symOf[s] = len(c.steps)
				c.steps = append(c.steps, s)
			}
		case Inv:
			r := g.E.(Rel) // guaranteed atomic by PushInversions
			s := step{name: r.Name, inv: true}
			if _, ok := symOf[s]; !ok {
				symOf[s] = len(c.steps)
				c.steps = append(c.steps, s)
			}
		case Test:
			s := step{name: g.Name, test: true}
			if _, ok := symOf[s]; !ok {
				symOf[s] = len(c.steps)
				c.steps = append(c.steps, s)
			}
		case Concat:
			collect(g.L)
			collect(g.R)
		case Union:
			collect(g.L)
			collect(g.R)
		case Star:
			collect(g.E)
		}
	}
	collect(e)
	nfa := automata.NewNFA(0, len(c.steps))
	// Thompson: build returns (start, end); end has no outgoing edges.
	var build func(e Expr) (int, int)
	build = func(e Expr) (int, int) {
		switch g := e.(type) {
		case Rel:
			s, t := nfa.AddState(), nfa.AddState()
			nfa.AddTransition(s, symOf[step{name: g.Name}], t)
			return s, t
		case Inv:
			r := g.E.(Rel)
			s, t := nfa.AddState(), nfa.AddState()
			nfa.AddTransition(s, symOf[step{name: r.Name, inv: true}], t)
			return s, t
		case Test:
			s, t := nfa.AddState(), nfa.AddState()
			nfa.AddTransition(s, symOf[step{name: g.Name, test: true}], t)
			return s, t
		case Concat:
			s1, t1 := build(g.L)
			s2, t2 := build(g.R)
			nfa.AddEps(t1, s2)
			return s1, t2
		case Union:
			s, t := nfa.AddState(), nfa.AddState()
			s1, t1 := build(g.L)
			s2, t2 := build(g.R)
			nfa.AddEps(s, s1)
			nfa.AddEps(s, s2)
			nfa.AddEps(t1, t)
			nfa.AddEps(t2, t)
			return s, t
		case Star:
			s, t := nfa.AddState(), nfa.AddState()
			s1, t1 := build(g.E)
			nfa.AddEps(s, s1)
			nfa.AddEps(t1, s)
			nfa.AddEps(s, t)
			return s, t
		}
		panic(fmt.Sprintf("caterpillar: unexpected node %T", e))
	}
	start, end := build(e)
	nfa.Start = start
	nfa.Accept[end] = true
	c.nfa = nfa
	return c
}

// applyStep returns the nodes reachable from node v by one atomic step.
func applyStep(nodes []*tree.Node, s step, v int) []int {
	n := nodes[v]
	single := func(m *tree.Node) []int {
		if m == nil {
			return nil
		}
		return []int{m.ID}
	}
	if s.test {
		holds := false
		switch s.name {
		case "root":
			holds = n.IsRoot()
		case "leaf":
			holds = n.IsLeaf()
		case "lastsibling":
			holds = n.IsLastSibling()
		case "firstsibling":
			holds = n.IsFirstSibling()
		case "dom":
			holds = true
		default: // label_<a>
			holds = "label_"+n.Label == s.name
		}
		if holds {
			return []int{v}
		}
		return nil
	}
	switch s.name {
	case "firstchild":
		if !s.inv {
			return single(n.FirstChild())
		}
		if n.Parent != nil && n.Parent.Children[0] == n {
			return single(n.Parent)
		}
		return nil
	case "nextsibling":
		if !s.inv {
			return single(n.NextSibling())
		}
		return single(n.PrevSibling())
	case "child":
		if !s.inv {
			out := make([]int, len(n.Children))
			for i, c := range n.Children {
				out[i] = c.ID
			}
			return out
		}
		return single(n.Parent)
	case "lastchild":
		if !s.inv {
			return single(n.LastChild())
		}
		if n.IsLastSibling() {
			return single(n.Parent)
		}
		return nil
	}
	return nil
}

// ImageFrom computes {y | ∃x ∈ from: ⟨x,y⟩ ∈ [[E]]} by product-graph
// BFS, in time O(|E| · |t|) for fixed alphabet.
func ImageFrom(e Expr, t *tree.Tree, from []int) []int {
	c := Compile(e)
	nodes := t.View()
	n := len(nodes)
	ns := c.nfa.NumStates
	seen := make([]bool, n*ns)
	var queue []int
	push := func(v, q int) {
		id := v*ns + q
		if !seen[id] {
			seen[id] = true
			queue = append(queue, id)
		}
	}
	startSet := c.nfa.StartSet()
	for _, v := range from {
		for q, in := range startSet {
			if in {
				push(v, q)
			}
		}
	}
	// Precompute per-state symbol edges: (sym, target).
	type edge struct{ sym, to int }
	edges := make([][]edge, ns)
	c.nfa.Transitions(func(q, sym, r int) {
		edges[q] = append(edges[q], edge{sym, r})
	})
	eps := make([][]int, ns)
	c.nfa.EpsTransitions(func(q, r int) { eps[q] = append(eps[q], r) })

	resultSet := make([]bool, n)
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		v, q := id/ns, id%ns
		if c.nfa.Accept[q] {
			resultSet[v] = true
		}
		for _, r := range eps[q] {
			push(v, r)
		}
		for _, ed := range edges[q] {
			for _, w := range applyStep(nodes, c.steps[ed.sym], v) {
				push(w, ed.to)
			}
		}
	}
	var out []int
	for v, in := range resultSet {
		if in {
			out = append(out, v)
		}
	}
	return out
}

// Pairs computes the full relation [[E]] ⊆ dom × dom (quadratic; for
// tests and small trees).
func Pairs(e Expr, t *tree.Tree) [][2]int {
	var out [][2]int
	for v := 0; v < t.Size(); v++ {
		for _, w := range ImageFrom(e, t, []int{v}) {
			out = append(out, [2]int{v, w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// SelectFromRoot evaluates the unary caterpillar query
// Q(x) ← root.E(x) of Corollary 5.12.
func SelectFromRoot(e Expr, t *tree.Tree) []int {
	return ImageFrom(e, t, []int{0}) // the root
}
