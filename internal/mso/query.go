package mso

import (
	"fmt"
	"slices"

	"mdlog/internal/tree"
)

// Linear-time evaluation of compiled MSO queries on trees: one
// bottom-up pass assigns every node its (unmarked) automaton state,
// one top-down pass computes the set of "accepting context" states,
// and a node is selected iff its marked transition lands in its
// context — the automaton-level image of combining the Θ↑ and Θ↓
// types in part (3) of the Theorem 4.4 proof.
//
// Both passes run over the arena columns FirstChild/NextSibling/Label
// — exactly the binary encoding the automaton reads — with the
// transition function as a dense table built once at compile time, so
// a run costs a few array reads per node and never touches a *Node.

// UnaryQuery is a compiled MSO formula with exactly one free
// first-order variable, ready for repeated evaluation.
type UnaryQuery struct {
	C       *Compiled
	FreeVar Var
	freeBit int
	tab     *table
}

// CompileQuery compiles φ(x) with exactly one free first-order variable.
func CompileQuery(f Formula) (*UnaryQuery, error) {
	fv := FreeVars(f)
	if len(fv) != 1 || fv[0].IsSet() {
		return nil, fmt.Errorf("mso: unary query needs exactly one free first-order variable, has %v", fv)
	}
	c, err := Compile(f)
	if err != nil {
		return nil, err
	}
	return &UnaryQuery{C: c, FreeVar: fv[0], freeBit: c.FreeBits[fv[0]], tab: newTable(c)}, nil
}

// MustCompileQuery panics on error (tests and examples).
func MustCompileQuery(src string) *UnaryQuery {
	q, err := CompileQuery(MustParse(src))
	if err != nil {
		panic(err)
	}
	return q
}

// table is a compiled automaton laid out for the arena passes.
type table struct {
	c      *Compiled
	states int
	// delta is automata.DTA.Dense: δ(l, r, sym) at
	// delta[(sym*states+l)*states+r].
	delta  []int32
	bot    int32 // the state of a missing firstchild/nextsibling
	accept []bool
}

func newTable(c *Compiled) *table {
	d := c.DTA
	return &table{c: c, states: d.NumStates, delta: d.Dense(), bot: int32(d.LeafState(0)), accept: d.Accept}
}

func (tb *table) step(l, r, sym int32) int32 {
	return tb.delta[(int(sym)*tb.states+int(l))*tb.states+int(r)]
}

// symbols maps every label symbol of the document to its unmarked
// automaton symbol — once per run, so the passes never look a label
// string up.
func (tb *table) symbols(a *tree.Arena) []int32 {
	other := tb.c.LabelIdx[OtherLabel]
	out := make([]int32, a.Syms.Len())
	for s := range out {
		li, ok := tb.c.LabelIdx[a.Syms.Name(int32(s))]
		if !ok {
			li = other
		}
		out[s] = int32(li << uint(tb.c.Bits))
	}
	return out
}

// up runs the bottom-up pass: up[v+1] is the state of the encoding
// subtree at v (v's own label over its first child's and next
// sibling's states), and up[0] = bot stands for NoNode, so a missing
// neighbor needs no branch. A child and a next sibling both follow
// their node in preorder, so reverse preorder sees them first; a
// mutated arena's ids are not preorder, so its live preorder is walked
// instead.
func (tb *table) up(a *tree.Arena, syms []int32) []int32 {
	up := make([]int32, a.Len()+1)
	up[0] = tb.bot
	fc, ns, label := a.FirstChild, a.NextSibling, a.Label
	visit := func(v int32) {
		up[v+1] = tb.step(up[fc[v]+1], up[ns[v]+1], syms[label[v]])
	}
	if a.Mutated() {
		pre := a.LivePreorder()
		for i := len(pre) - 1; i >= 0; i-- {
			visit(pre[i])
		}
	} else {
		for v := int32(a.Len()) - 1; v >= 0; v-- {
			visit(v)
		}
	}
	return up
}

// Select returns the sorted ids of the nodes selected by the query on
// t, in time O(|t| · |Q|). It reads t's arena (Tree.Arena converts a
// hand-built pointer tree once), so the ids are arena ids: document
// order unless the arena was mutated in place.
func (q *UnaryQuery) Select(t *tree.Tree) []int {
	a := t.Arena()
	tb := q.tab
	syms := tb.symbols(a)
	up := tb.up(a, syms)
	fc, ns, parent, label := a.FirstChild, a.NextSibling, a.Parent, a.Label
	mark := int32(1) << uint(q.freeBit)
	n := tb.states
	// The top-down pass walks the tree in preorder, keeping one context
	// set per depth of the current root path: ctx[d*n+s] reports that
	// the whole tree is accepted if the encoding subtree of the depth-d
	// node evaluates to s. A node's context derives from its encoding
	// parent's — its parent when it is a first child, else its previous
	// sibling, which the walk left at the same depth — so the stack is
	// all the context ever needed, and selection happens on the way.
	ctx := make([]bool, n, 16*n)
	copy(ctx, tb.accept)
	scratch := make([]bool, n)
	var out []int
	v, d := int32(0), 0
	for d >= 0 {
		cur := ctx[d*n : (d+1)*n]
		sym := syms[label[v]]
		l, r := up[fc[v]+1], up[ns[v]+1]
		if cur[tb.step(l, r, sym|mark)] {
			out = append(out, int(v))
		}
		if c := fc[v]; c != tree.NoNode {
			// s ∈ ctx(firstchild) iff δ(s, r, sym) ∈ ctx(v): column r of
			// sym's block of the table.
			ctx = slices.Grow(ctx, n)[:(d+2)*n]
			cur = ctx[d*n : (d+1)*n]
			next := ctx[(d+1)*n:]
			col := tb.delta[int(sym)*n*n+int(r):]
			for s := range next {
				next[s] = cur[col[s*n]]
			}
			v, d = c, d+1
			continue
		}
		// Leaf: move to the next sibling of v or of its nearest
		// ancestor that has one. s ∈ ctx(nextsibling) iff δ(l, s, sym)
		// ∈ ctx(v), and the sibling takes over v's depth slot.
		for ; d >= 0; v, d = parent[v], d-1 {
			if s := ns[v]; s != tree.NoNode {
				cur := ctx[d*n : (d+1)*n]
				l, sym := up[fc[v]+1], syms[label[v]]
				row := tb.delta[(int(sym)*n+int(l))*n:][:n] // row l of sym's block
				for st, q := range row {
					scratch[st] = cur[q]
				}
				copy(cur, scratch)
				v = s
				break
			}
		}
	}
	if a.Mutated() {
		slices.Sort(out)
	}
	return out
}

// Sentence is a compiled MSO sentence (no free variables) deciding a
// regular tree language (Proposition 2.1).
type Sentence struct {
	C   *Compiled
	tab *table
}

// CompileSentence compiles a sentence.
func CompileSentence(f Formula) (*Sentence, error) {
	if fv := FreeVars(f); len(fv) != 0 {
		return nil, fmt.Errorf("mso: sentence has free variables %v", fv)
	}
	c, err := Compile(f)
	if err != nil {
		return nil, err
	}
	return &Sentence{C: c, tab: newTable(c)}, nil
}

// Accepts decides t ⊨ φ in time O(|t|) with one bottom-up pass over
// t's arena.
func (s *Sentence) Accepts(t *tree.Tree) bool {
	a := t.Arena()
	up := s.tab.up(a, s.tab.symbols(a))
	return s.tab.accept[up[1]] // up[v+1] of the root v = 0
}
