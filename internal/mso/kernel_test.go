package mso

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdlog/internal/html"
	"mdlog/internal/tree"
)

// randomFormula builds a random MSO formula over labels a, b, c whose
// free variables are among fo (first-order) and so (second-order);
// quantifiers introduce fresh variables. Depth bounds the nesting.
func randomFormula(rng *rand.Rand, depth int, fo, so []Var, fresh *int) Formula {
	pickFO := func() Var { return fo[rng.Intn(len(fo))] }
	if depth == 0 || rng.Intn(4) == 0 {
		switch k := rng.Intn(7); {
		case k == 0:
			return Label{X: pickFO(), Label: string(rune('a' + rng.Intn(3)))}
		case k == 1:
			return Un{Kind: UnKind(rng.Intn(3)), X: pickFO()}
		case k <= 4:
			return Bin{Kind: BinKind(rng.Intn(5)), X: pickFO(), Y: pickFO()}
		case k == 5 && len(so) > 0:
			return In{X: pickFO(), S: so[rng.Intn(len(so))]}
		default:
			return Label{X: pickFO(), Label: "b"}
		}
	}
	sub := func() Formula { return randomFormula(rng, depth-1, fo, so, fresh) }
	// uses joins a quantifier body with an atom on the bound variable,
	// so no quantifier is vacuous.
	uses := func(atom, body Formula) Formula {
		if rng.Intn(2) == 0 {
			return And{atom, body}
		}
		return Or{atom, body}
	}
	switch rng.Intn(6) {
	case 0:
		return Not{sub()}
	case 1:
		return And{sub(), sub()}
	case 2:
		return Or{sub(), sub()}
	case 3, 4:
		*fresh++
		v := Var(fmt.Sprintf("y%d", *fresh))
		body := randomFormula(rng, depth-1, append(slices.Clip(fo), v), so, fresh)
		body = uses(Bin{Kind: BinKind(rng.Intn(5)), X: v, Y: pickFO()}, body)
		if rng.Intn(2) == 0 {
			return Exists{V: v, Body: body}
		}
		return Forall{V: v, Body: body}
	default:
		if len(so) > 0 { // at most one set variable keeps the oracle fast
			return sub()
		}
		*fresh++
		v := Var(fmt.Sprintf("Y%d", *fresh))
		return Exists{V: v, Body: uses(In{X: pickFO(), S: v}, randomFormula(rng, depth-1, fo, []Var{v}, fresh))}
	}
}

// siblingWindow is φ(x) = "x's k-th next sibling is labeled a". Its
// minimal automaton remembers, reading siblings right to left, whether
// each of the next k is an a: 2^k+1 states — 65 for k = 6.
func siblingWindow(k int) string {
	body := fmt.Sprintf("label_a(y%d)", k)
	for i := k; i >= 1; i-- {
		prev := "x"
		if i > 1 {
			prev = fmt.Sprintf("y%d", i-1)
		}
		body = fmt.Sprintf("exists y%d (nextsibling(%s,y%d) & %s)", i, prev, i, body)
	}
	return body
}

// handBuilt is a pointer tree built node by node (never parsed), wide
// enough for siblingWindow(6) to select something.
func handBuilt() *tree.Tree {
	row := func(labels string) *tree.Node {
		n := tree.New("r")
		for _, l := range labels {
			n.Add(tree.New(string(l), tree.New("c")))
		}
		return n
	}
	return tree.NewTree(tree.New("a", row("bcabcbbaab"), row("aaaaaaaa"), tree.New("b"), row("cbabcba")))
}

// checkQuery compares the arena kernel with NaiveSelect on tr, both as
// given and as an arena-only tree over a freshly built arena.
func checkQuery(t *testing.T, src string, f Formula, q *UnaryQuery, tr *tree.Tree) {
	t.Helper()
	want, err := NaiveSelect(f, "x", tr)
	if err != nil {
		t.Fatalf("naive %q: %v", src, err)
	}
	if got := q.Select(tr); !slices.Equal(got, want) {
		t.Fatalf("%q on %s: kernel %v, naive %v", src, tr, got, want)
	}
	if got := q.Select(tree.OfArena(tr.Clone().Arena())); !slices.Equal(got, want) {
		t.Fatalf("%q on arena-only %s: kernel %v, naive %v", src, tr, got, want)
	}
}

// TestKernelDifferential runs the dense-table arena kernel against the
// naive MSO semantics on random formulas × random trees, on an
// automaton with more than 64 states, and on a hand-built pointer
// tree, for unary queries and sentences alike.
func TestKernelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260418))
	randTree := func() *tree.Tree {
		return tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b", "c", "d"}, Size: 1 + rng.Intn(9), MaxChildren: 4})
	}
	// unary returns a random formula whose only free variable is x.
	unary := func() Formula {
		for {
			fresh := 0
			f := randomFormula(rng, 3, []Var{"x"}, nil, &fresh)
			if fv := FreeVars(f); len(fv) == 1 && fv[0] == "x" {
				return f
			}
		}
	}
	for i := 0; i < 40; i++ {
		src := unary().String()
		q, err := CompileQuery(MustParse(src))
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		for j := 0; j < 6; j++ {
			checkQuery(t, src, MustParse(src), q, randTree())
		}
	}
	for i := 0; i < 15; i++ {
		var f Formula = Exists{V: "x", Body: unary()}
		if i%2 == 1 {
			f = Forall{V: "x", Body: unary()}
		}
		src := f.String()
		s, err := CompileSentence(MustParse(src))
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		for j := 0; j < 6; j++ {
			tr := randTree()
			want, err := NaiveSentence(MustParse(src), tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Accepts(tr); got != want {
				t.Fatalf("%q on %s: kernel %v, naive %v", src, tr, got, want)
			}
		}
	}

	src := siblingWindow(6)
	q := MustCompileQuery(src)
	if q.C.DTA.NumStates <= 64 {
		t.Fatalf("%q compiled to %d states; the test needs more than 64", src, q.C.DTA.NumStates)
	}
	f := MustParse(src)
	hb := handBuilt()
	checkQuery(t, src, f, q, hb)
	if len(q.Select(hb)) == 0 {
		t.Fatalf("%q selects nothing on the hand-built tree", src)
	}
	for i := 0; i < 20; i++ {
		checkQuery(t, src, f, q, tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b"}, Size: 8 + rng.Intn(24), MaxChildren: 12}))
	}
}

// TestKernelMutatedArena: on an arena edited in place the kernel walks
// the live preorder and answers in arena ids — the naive answer on the
// canonical live tree, mapped through LivePreorder.
func TestKernelMutatedArena(t *testing.T) {
	src := "exists y (child(x,y) & label_b(y)) & ~lastsibling(x)"
	q := MustCompileQuery(src)
	f := MustParse(src)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 4 + rng.Intn(12), MaxChildren: 3})
		a := tr.Arena()
		d := a.NewDelta()
		for e := 0; e < 3; e++ {
			v := int32(rng.Intn(a.Len()))
			if !a.Alive(v) {
				continue
			}
			if v != 0 && rng.Intn(2) == 0 {
				if err := a.RemoveSubtree(d, v); err != nil {
					t.Fatal(err)
				}
			} else if _, err := a.InsertSubtree(d, v, rng.Intn(3), tree.MustParse("a(b,a)").Root); err != nil {
				t.Fatal(err)
			}
		}
		live := a.LiveTree()
		ids, err := NaiveSelect(f, "x", live)
		if err != nil {
			t.Fatal(err)
		}
		pre := a.LivePreorder()
		var want []int
		for _, id := range ids {
			want = append(want, int(pre[id]))
		}
		slices.Sort(want)
		if got := q.Select(tr); !slices.Equal(got, want) {
			t.Fatalf("case %d on %s: kernel %v, want %v", i, live, got, want)
		}
	}
}

// BenchmarkMSOSelect measures the arena kernel on ProductListing pages
// of ~1k/10k/100k nodes for the crawl fleet's td-with-b-child formula,
// reporting ns per node.
func BenchmarkMSOSelect(b *testing.B) {
	q := MustCompileQuery("label_td(x) & exists y (child(x,y) & label_b(y))")
	for _, nodes := range []int{1000, 10000, 100000} {
		rng := rand.New(rand.NewSource(52))
		a, err := html.ParseArena(strings.NewReader(html.ProductListing(rng, nodes/9)))
		if err != nil {
			b.Fatal(err)
		}
		doc := tree.OfArena(a)
		b.Run(fmt.Sprintf("%dk", nodes/1000), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(q.Select(doc)) == 0 {
					b.Fatal("selects nothing")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(a.Len()), "ns/node")
		})
	}
}
