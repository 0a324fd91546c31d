package xpath

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdlog/internal/tree"
)

// checkSelect compares the set-at-a-time Select with the node-at-a-time
// reference selectNodewise on a random tree drawn from seed over the
// query's own labels, then again after editing the tree's arena in
// place. On the edited tree selectNodewise reads the canonical live
// view (preorder ids), so its answer is mapped to arena ids through the
// live preorder first.
func checkSelect(t *testing.T, p *Path, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := append(queryLabels(p), "a", "b")
	// selectNodewise re-evaluates each predicate path per candidate,
	// so it costs about size^(nesting+1): keep that near a million.
	size := min(40, max(2, int(math.Pow(1e6, 1/float64(predDepth(p)+1)))))
	tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 1 + rng.Intn(size), MaxChildren: 4})
	if got, want := Select(p, tr), selectNodewise(p, tr); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s on %s: Select %v, nodewise %v", p, tr, got, want)
	}
	a := tr.Arena()
	for i := rng.Intn(4); i >= 0; i-- {
		live := a.LivePreorder()
		if len(live) > 1 && rng.Intn(3) == 0 {
			if err := a.RemoveSubtree(a.NewDelta(), live[1+rng.Intn(len(live)-1)]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		sub := tree.New(labels[rng.Intn(len(labels))], tree.New(labels[rng.Intn(len(labels))]))
		if _, err := a.InsertSubtree(a.NewDelta(), live[rng.Intn(len(live))], rng.Intn(3), sub); err != nil {
			t.Fatal(err)
		}
	}
	pre := a.LivePreorder()
	want := selectNodewise(p, tr)
	for i, v := range want {
		want[i] = int(pre[v])
	}
	slices.Sort(want)
	if got := Select(p, tr); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s on edited %s: Select %v, nodewise (arena ids) %v", p, tr, got, want)
	}
}

// queryLabels returns the name tests of p, predicates included.
func queryLabels(p *Path) []string {
	var out []string
	var walkExpr func(Expr)
	walkPath := func(p *Path) {
		for _, st := range p.Steps {
			if st.Test != "*" {
				out = append(out, st.Test)
			}
			for _, e := range st.Preds {
				walkExpr(e)
			}
		}
	}
	walkExpr = func(e Expr) {
		switch g := e.(type) {
		case ExprPath:
			walkPath(g.Path)
		case ExprAnd:
			walkExpr(g.L)
			walkExpr(g.R)
		case ExprOr:
			walkExpr(g.L)
			walkExpr(g.R)
		case ExprNot:
			walkExpr(g.E)
		}
	}
	walkPath(p)
	return out
}

// predDepth returns how deeply p's predicate paths nest.
func predDepth(p *Path) int {
	var exprDepth func(Expr) int
	exprDepth = func(e Expr) int {
		switch g := e.(type) {
		case ExprPath:
			return 1 + predDepth(g.Path)
		case ExprAnd:
			return max(exprDepth(g.L), exprDepth(g.R))
		case ExprOr:
			return max(exprDepth(g.L), exprDepth(g.R))
		case ExprNot:
			return exprDepth(g.E)
		}
		return 0
	}
	d := 0
	for _, st := range p.Steps {
		for _, e := range st.Preds {
			d = max(d, exprDepth(e))
		}
	}
	return d
}

// FuzzXPathSelect holds the parser and Select to their references on
// arbitrary query text: a query that parses must print a string that
// parses, prints identically and selects the same nodes, and Select
// must equal selectNodewise on random trees seeded from the input,
// fresh and edited in place.
//
//	go test -run '^$' -fuzz '^FuzzXPathSelect$' -fuzztime 10s ./internal/xpath
func FuzzXPathSelect(f *testing.F) {
	for i, src := range printCases {
		f.Add(src, int64(i))
	}
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		printed := p.String()
		p2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := p2.String(); again != printed {
			t.Fatalf("%q prints as %q, which reprints as %q", src, printed, again)
		}
		tr := tree.Random(rand.New(rand.NewSource(seed)), tree.RandomOptions{
			Labels: append(queryLabels(p), "a", "b"), Size: 30, MaxChildren: 4})
		if got, want := Select(p2, tr), Select(p, tr); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%q prints as %q, which selects %v instead of %v on %s", src, printed, got, want, tr)
		}
		checkSelect(t, p, seed)
	})
}

// randomQuery draws a Core XPath query over labels a, b, c with every
// axis, and/or/not predicates nested up to depth levels.
func randomQuery(rng *rand.Rand, depth int) string {
	axes := make([]string, 0, len(axisNames))
	for name := range axisNames {
		axes = append(axes, name)
	}
	slices.Sort(axes)
	tests := []string{"a", "b", "c", "*"}
	var path func(depth int) string
	var expr func(depth int) string
	path = func(depth int) string {
		steps := make([]string, 1+rng.Intn(2))
		for i := range steps {
			st := axes[rng.Intn(len(axes))] + "::" + tests[rng.Intn(len(tests))]
			for k := rng.Intn(2); k > 0 && depth > 0; k-- {
				st += "[" + expr(depth-1) + "]"
			}
			steps[i] = st
		}
		return strings.Join(steps, "/")
	}
	expr = func(depth int) string {
		switch rng.Intn(5) {
		case 0:
			return "not(" + expr(depth) + ")"
		case 1:
			return path(depth) + " and " + path(depth)
		case 2:
			return path(depth) + " or " + path(depth)
		}
		return path(depth)
	}
	return []string{"/", "//"}[rng.Intn(2)] + path(depth)
}

// TestSelectMatchesNodewise runs the FuzzXPathSelect check on random
// queries over every axis, with negation, on fresh and edited trees.
func TestSelectMatchesNodewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		src := randomQuery(rng, 2)
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("generated query %q: %v", src, err)
		}
		checkSelect(t, p, int64(i))
	}
}
