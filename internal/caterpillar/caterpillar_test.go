package caterpillar

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/tree"
)

// printedExprs parse, and print as text that reparses and reprints
// identically; badExprs do not parse. Both seed FuzzParseCaterpillar.
var (
	printedExprs = []string{
		"firstchild",
		"firstchild.nextsibling*",
		"child+ | (child^-1)*.nextsibling+.child*",
		"leaf",
		"label_a.child",
		"(firstchild | nextsibling)*",
		"nextsibling^-1",
	}
	badExprs = []string{"", "unknownrel", "firstchild.", "(firstchild", "firstchild |"}
)

func TestParsePrintRoundTrip(t *testing.T) {
	for _, src := range printedExprs {
		e, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		e2, err := Parse(e.String())
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, e.String(), err)
		}
		if e2.String() != e.String() {
			t.Errorf("print not stable: %q -> %q", e.String(), e2.String())
		}
	}
	for _, bad := range badExprs {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestPushInversions(t *testing.T) {
	// (E.F)^-1 = F^-1.E^-1 etc. (Proposition 2.3): check that the
	// result has inversions only on atoms and denotes the same relation.
	exprs := []string{
		"(firstchild.nextsibling)^-1",
		"((firstchild | nextsibling)*)^-1",
		"(firstchild^-1)^-1",
		"(leaf.firstchild^-1)^-1",
		"((child^-1)*.nextsibling+)^-1",
	}
	rng := rand.New(rand.NewSource(2))
	for _, src := range exprs {
		e := MustParse(src)
		p := PushInversions(e)
		if !atomicInversionsOnly(p) {
			t.Errorf("%q: inversions not pushed to atoms: %s", src, p)
		}
		for i := 0; i < 10; i++ {
			tr := tree.Random(rng, tree.RandomOptions{
				Labels: []string{"a", "b"}, Size: 1 + rng.Intn(12), MaxChildren: 3})
			if fmt.Sprint(Pairs(e, tr)) != fmt.Sprint(Pairs(p, tr)) {
				t.Errorf("%q: pushdown changed semantics on %s", src, tr)
			}
		}
	}
}

func atomicInversionsOnly(e Expr) bool {
	switch g := e.(type) {
	case Rel, Test:
		return true
	case Inv:
		_, ok := g.E.(Rel)
		return ok
	case Concat:
		return atomicInversionsOnly(g.L) && atomicInversionsOnly(g.R)
	case Union:
		return atomicInversionsOnly(g.L) && atomicInversionsOnly(g.R)
	case Star:
		return atomicInversionsOnly(g.E)
	}
	return false
}

func TestBasicRelations(t *testing.T) {
	tr := tree.MustParse("a(b,c(d,e),f)")
	cases := []struct {
		src  string
		want string // Pairs
	}{
		{"firstchild", "[[0 1] [2 3]]"},
		{"nextsibling", "[[1 2] [2 5] [3 4]]"},
		{"child", "[[0 1] [0 2] [0 5] [2 3] [2 4]]"},
		{"lastchild", "[[0 5] [2 4]]"},
		{"firstchild^-1", "[[1 0] [3 2]]"},
		{"child^-1", "[[1 0] [2 0] [3 2] [4 2] [5 0]]"},
		{"lastchild^-1", "[[4 2] [5 0]]"},
		{"leaf", "[[1 1] [3 3] [4 4] [5 5]]"},
		{"label_c", "[[2 2]]"},
		{"root", "[[0 0]]"},
	}
	for _, c := range cases {
		if got := fmt.Sprint(Pairs(MustParse(c.src), tr)); got != c.want {
			t.Errorf("%q: got %s, want %s", c.src, got, c.want)
		}
	}
}

// TestDocumentOrderCaterpillar verifies Example 2.5: the caterpillar
// expression for ≺ coincides with preorder-id comparison.
func TestDocumentOrderCaterpillar(t *testing.T) {
	// The paper's own 6-node example first.
	tr := tree.MustParse("a(a,a(a,a),a)")
	checkDocOrder(t, tr)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b"}, Size: 1 + rng.Intn(25), MaxChildren: 4})
		return docOrderOK(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func checkDocOrder(t *testing.T, tr *tree.Tree) {
	t.Helper()
	if !docOrderOK(tr) {
		t.Errorf("document order caterpillar wrong on %s", tr)
	}
}

func docOrderOK(tr *tree.Tree) bool {
	got := map[[2]int]bool{}
	for _, p := range Pairs(DocumentOrder(), tr) {
		got[p] = true
	}
	for i := 0; i < tr.Size(); i++ {
		for j := 0; j < tr.Size(); j++ {
			want := i < j
			if got[[2]int{i, j}] != want {
				return false
			}
		}
	}
	return true
}

func TestImageFrom(t *testing.T) {
	tr := tree.MustParse("a(b,c(d,e),f)")
	// Descendants of the root via child+.
	got := ImageFrom(MustParse("child+"), tr, []int{0})
	if fmt.Sprint(got) != "[1 2 3 4 5]" {
		t.Errorf("child+ from root = %v", got)
	}
	// Leaves of the subtree of node 2.
	got = ImageFrom(MustParse("child*.leaf"), tr, []int{2})
	if fmt.Sprint(got) != "[3 4]" {
		t.Errorf("child*.leaf from 2 = %v", got)
	}
	if got := SelectFromRoot(MustParse("firstchild"), tr); fmt.Sprint(got) != "[1]" {
		t.Errorf("SelectFromRoot = %v", got)
	}
}

// TestExample510ChildProgram reproduces Example 5.10: the datalog
// rendering of p.child via the two-state automaton.
func TestExample510ChildProgram(t *testing.T) {
	rules := ToDatalog(MustParse("child"), "p", "p_child", "pc")
	prog := datalog.NewProgram(rules...)
	prog.Add(datalog.MustParseProgram(`p(X) :- label_c(X).`).Rules...)
	prog.Query = "p_child"
	tr := tree.MustParse("a(b,c(d,e),f)")
	res, err := eval.LinearTree(prog, tr)
	if err != nil {
		t.Fatal(err)
	}
	// children of the c node (id 2): 3, 4.
	if got := fmt.Sprint(res.UnarySet("p_child")); got != "[3 4]" {
		t.Errorf("p.child = %s", got)
	}
	// The generated rules must be TMNF-shaped: ≤ 2 body atoms, heads unary.
	for _, r := range rules {
		if len(r.Body) > 2 || len(r.Head.Args) != 1 {
			t.Errorf("rule not TMNF-shaped: %s", r)
		}
	}
}

// TestToDatalogEquivalence is the Lemma 5.9 property test: for random
// expressions, the generated program computes exactly p.E.
func TestToDatalogEquivalence(t *testing.T) {
	exprs := []string{
		"firstchild",
		"nextsibling*",
		"child",
		"child+",
		"child*.leaf",
		"firstchild.nextsibling*.lastsibling",
		"(firstchild | nextsibling)+",
		"child^-1",
		"(child^-1)*.label_a",
		"lastchild",
		"lastchild^-1",
		"leaf.(nextsibling^-1)*",
		"child+ | (child^-1)*.nextsibling+.child*", // document order
	}
	rng := rand.New(rand.NewSource(9))
	for _, src := range exprs {
		e := MustParse(src)
		prog := datalog.NewProgram(ToDatalog(e, "start_here", "got_out", "g")...)
		prog.Add(datalog.R(datalog.At("start_here", datalog.V("X")), datalog.At("label_s", datalog.V("X"))))
		for i := 0; i < 12; i++ {
			tr := tree.Random(rng, tree.RandomOptions{
				Labels: []string{"a", "b", "s"}, Size: 1 + rng.Intn(14), MaxChildren: 3})
			var from []int
			for _, n := range tr.Nodes {
				if n.Label == "s" {
					from = append(from, n.ID)
				}
			}
			want := ImageFrom(e, tr, from)
			res, err := eval.LinearTree(prog, tr)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if got := res.UnarySet("got_out"); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%q on %s: datalog %v, direct %v", src, tr, got, want)
			}
		}
	}
}

func TestContainment(t *testing.T) {
	cases := []struct {
		e1, e2 string
		want   ContainmentResult
	}{
		{"firstchild", "child", ContainedYes},
		{"nextsibling", "nextsibling*", ContainedYes},
		{"child", "child | firstchild", ContainedYes},
		{"child+", "child*", ContainedYes},
		{"child", "firstchild", ContainedNo},
		{"child*", "child+", ContainedNo},
		{"nextsibling*", "nextsibling", ContainedNo},
		// lastchild ⊆ child holds semantically but not at the word level
		// (the expansion of lastchild carries a lastsibling test symbol
		// that child's words lack) — the checker must stay on the sound
		// side and answer Unknown.
		{"lastchild", "child", ContainedUnknown},
	}
	for _, c := range cases {
		got, cex := CheckContainment(MustParse(c.e1), MustParse(c.e2), nil)
		if got != c.want {
			t.Errorf("Contained(%q, %q) = %v, want %v", c.e1, c.e2, got, c.want)
		}
		if got == ContainedNo {
			if cex == nil {
				t.Errorf("Contained(%q, %q): missing counterexample", c.e1, c.e2)
				continue
			}
			// Verify the counterexample.
			sel1 := SelectFromRoot(MustParse(c.e1), cex.Tree)
			sel2 := SelectFromRoot(MustParse(c.e2), cex.Tree)
			in1, in2 := false, false
			for _, v := range sel1 {
				in1 = in1 || v == cex.Node
			}
			for _, v := range sel2 {
				in2 = in2 || v == cex.Node
			}
			if !in1 || in2 {
				t.Errorf("Contained(%q, %q): bogus counterexample", c.e1, c.e2)
			}
		}
	}
}

func TestQueryProgram(t *testing.T) {
	tr := tree.MustParse("a(b,c(d,e),f)")
	p := QueryProgram(MustParse("child.child"), "grandchild")
	res, err := eval.LinearTree(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.UnarySet("grandchild")); got != "[3 4]" {
		t.Errorf("grandchildren = %s", got)
	}
}

func TestSizeAndPlus(t *testing.T) {
	e := MustParse("child+")
	// child+ = child.child*
	if Size(e) != 4 {
		t.Errorf("Size = %d", Size(e))
	}
	if Size(MustParse("firstchild")) != 1 {
		t.Error("atomic size wrong")
	}
}

func TestContainmentResultString(t *testing.T) {
	if ContainedYes.String() != "contained" || ContainedNo.String() != "not-contained" ||
		ContainedUnknown.String() != "unknown" {
		t.Error("String() wrong")
	}
}
