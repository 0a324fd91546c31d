// Package paperex constructs the worked examples of Gottlob & Koch
// (PODS 2002) — programs, automata and trees from Examples 3.2, 4.9,
// 4.15, 4.21, 5.10 and Theorem 6.6 — shared by tests, benchmarks and
// the runnable examples.
package paperex

import (
	"fmt"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// EvenAProgram builds the monadic datalog program of Example 3.2: over
// τ_ur it selects all nodes that root a subtree containing an even
// number of nodes labeled "a". otherLabels is Σ − {a}, the remaining
// labels of the alphabet (rule (4) needs one instance per such label).
// The query predicate is c0 ("even").
//
// Predicates (i ∈ {0,1}): bi — count mod 2 of a-labeled nodes strictly
// below x; ci — count mod 2 including x; ri — count mod 2 over the
// subtrees of x and its right siblings.
func EvenAProgram(otherLabels ...string) *datalog.Program {
	p := &datalog.Program{Query: "c0"}
	V, At, R := datalog.V, datalog.At, datalog.R
	num := func(pfx string, i int) string { return fmt.Sprintf("%s%d", pfx, i) }
	// (1) B0(x) ← leaf(x).
	p.Add(R(At("b0", V("X")), At("leaf", V("X"))))
	for i := 0; i <= 1; i++ {
		// (2) Bi(x0) ← firstchild(x0,x), Ri(x).
		p.Add(R(At(num("b", i), V("X0")),
			At("firstchild", V("X0"), V("X")), At(num("r", i), V("X"))))
		// (3) C(i+1 mod 2)(x) ← Bi(x), label_a(x).
		p.Add(R(At(num("c", (i+1)%2), V("X")),
			At(num("b", i), V("X")), At("label_a", V("X"))))
		// (4) Ci(x) ← Bi(x), label_l(x)  for each l ∈ Σ−{a}.
		for _, l := range otherLabels {
			p.Add(R(At(num("c", i), V("X")),
				At(num("b", i), V("X")), At("label_"+l, V("X"))))
		}
		// (5) Ri(x) ← lastsibling(x), Ci(x).
		p.Add(R(At(num("r", i), V("X")),
			At("lastsibling", V("X")), At(num("c", i), V("X"))))
		for j := 0; j <= 1; j++ {
			// (6) R(i+j mod 2)(x0) ← Cj(x0), nextsibling(x0,x), Ri(x).
			p.Add(R(At(num("r", (i+j)%2), V("X0")),
				At(num("c", j), V("X0")),
				At("nextsibling", V("X0"), V("X")),
				At(num("r", i), V("X"))))
		}
	}
	return p
}

// Example32Tree returns the 4-node tree of Example 3.2: a root n1 with
// three children n2, n3, n4, all labeled "a". Node ids follow document
// order (n1 = 0, ..., n4 = 3).
func Example32Tree() *tree.Tree {
	return tree.MustParse("a(a,a,a)")
}

// EvenASpec is the reference semantics of the Example 3.2 query: the
// set of nodes whose subtree contains an even number of "a" nodes,
// computed directly on the tree.
func EvenASpec(t *tree.Tree) []int {
	var out []int
	var count func(n *tree.Node) int
	count = func(n *tree.Node) int {
		c := 0
		if n.Label == "a" {
			c = 1
		}
		for _, ch := range n.Children {
			c += count(ch)
		}
		return c
	}
	for _, n := range t.View() {
		if count(n)%2 == 0 {
			out = append(out, n.ID)
		}
	}
	return out
}
