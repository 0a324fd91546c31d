package eval

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mdlog/internal/datalog"
	"mdlog/internal/paperex"
	"mdlog/internal/tree"
)

func TestTreeDB(t *testing.T) {
	tr := tree.MustParse("a(b,c(d,e),f)")
	db := TreeDB(tr, WithChild(), WithLastChild(), WithFirstSibling(), WithDom(), WithChildK(3))
	if got := db.UnarySet(PredRoot); len(got) != 1 || got[0] != 0 {
		t.Errorf("root = %v", got)
	}
	if got := db.UnarySet(PredLeaf); len(got) != 4 {
		t.Errorf("leaf = %v", got)
	}
	// lastsibling: f (id 5) and e (id 4); the root is not a last sibling.
	ls := db.UnarySet(PredLastSibling)
	if len(ls) != 2 || ls[0] != 4 || ls[1] != 5 {
		t.Errorf("lastsibling = %v", ls)
	}
	fs := db.UnarySet(PredFirstSibling)
	if len(fs) != 2 || fs[0] != 1 || fs[1] != 3 {
		t.Errorf("firstsibling = %v", fs)
	}
	if !db.Has(PredFirstChild, 0, 1) || !db.Has(PredFirstChild, 2, 3) {
		t.Error("firstchild wrong")
	}
	if !db.Has(PredNextSibling, 1, 2) || !db.Has(PredNextSibling, 2, 5) || !db.Has(PredNextSibling, 3, 4) {
		t.Error("nextsibling wrong")
	}
	if !db.Has(PredChild, 0, 5) || !db.Has(PredChild, 2, 4) {
		t.Error("child wrong")
	}
	if !db.Has(PredLastChild, 0, 5) || !db.Has(PredLastChild, 2, 4) || db.Has(PredLastChild, 0, 1) {
		t.Error("lastchild wrong")
	}
	if !db.Has("child_1", 0, 1) || !db.Has("child_2", 0, 2) || !db.Has("child_3", 0, 5) {
		t.Error("child_k wrong")
	}
	if len(db.UnarySet(PredDom)) != 6 {
		t.Error("dom wrong")
	}
	if !db.Has(LabelPred("c"), 2) {
		t.Error("label wrong")
	}
}

func TestLabelAndChildKPredNames(t *testing.T) {
	if LabelPred("a") != "label_a" {
		t.Error("LabelPred wrong")
	}
	if l, ok := IsLabelPred("label_div"); !ok || l != "div" {
		t.Error("IsLabelPred wrong")
	}
	if _, ok := IsLabelPred("leaf"); ok {
		t.Error("IsLabelPred false positive")
	}
	if ChildKPred(12) != "child_12" {
		t.Errorf("ChildKPred = %q", ChildKPred(12))
	}
	if k, ok := IsChildKPred("child_7"); !ok || k != 7 {
		t.Error("IsChildKPred wrong")
	}
	for _, s := range []string{"child_", "child_x", "child", "firstchild"} {
		if _, ok := IsChildKPred(s); ok {
			t.Errorf("IsChildKPred(%q) false positive", s)
		}
	}
}

// TestExample32Trace reproduces the exact T_P stages of Example 3.2.
func TestExample32Trace(t *testing.T) {
	tr := paperex.Example32Tree()
	p := paperex.EvenAProgram() // alphabet Σ = {a}
	db := TreeDB(tr)
	stages, final, err := datalog.TraceEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: T1 adds B0(n2),B0(n3),B0(n4); T2 C1(n2..n4); T3 R1(n4);
	// T4 R0(n3); T5 R1(n2); T6 B1(n1); T7 C0(n1). Node ni has id i-1.
	want := [][]string{
		{"b0(1)", "b0(2)", "b0(3)"},
		{"c1(1)", "c1(2)", "c1(3)"},
		{"r1(3)"},
		{"r0(2)"},
		{"r1(1)"},
		{"b1(0)"},
		{"c0(0)"},
	}
	if len(stages) != len(want) {
		t.Fatalf("got %d stages, want %d:\n%v", len(stages), len(want), stages)
	}
	for i, ws := range want {
		if len(stages[i]) != len(ws) {
			t.Fatalf("stage %d: got %v, want %v", i+1, stages[i], ws)
		}
		got := map[string]bool{}
		for _, a := range stages[i] {
			got[a.String()] = true
		}
		for _, w := range ws {
			if !got[w] {
				t.Errorf("stage %d: missing %s (got %v)", i+1, stages[i], w)
			}
		}
	}
	// Query result: exactly the root n1 (id 0).
	if got := final.UnarySet("c0"); len(got) != 1 || got[0] != 0 {
		t.Errorf("c0 = %v, want [0]", got)
	}
}

// TestExample32AllEngines checks the Example 3.2 query on assorted
// trees across every engine against the reference count semantics.
func TestExample32AllEngines(t *testing.T) {
	p := paperex.EvenAProgram("b", "c")
	trees := []*tree.Tree{
		paperex.Example32Tree(),
		tree.MustParse("a"),
		tree.MustParse("b"),
		tree.MustParse("a(a)"),
		tree.MustParse("b(a,b(a,a),c(a,b))"),
		tree.MustParse("c(a(a(a)),b,a)"),
		tree.Chain(9, "a"),
		tree.Flat(8, "a"),
	}
	for ti, tr := range trees {
		want := evenANodes(tr)
		for _, eng := range []Engine{EngineLinear, EngineSemiNaive, EngineNaive, EngineLIT, EngineBitmap} {
			res, err := EvalOnTree(p, tr, eng)
			if err != nil {
				t.Fatalf("tree %d engine %v: %v", ti, eng, err)
			}
			got := res.UnarySet("c0")
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("tree %d engine %v: got %v, want %v", ti, eng, got, want)
			}
		}
	}
}

func evenANodes(tr *tree.Tree) []int {
	return paperex.EvenASpec(tr)
}

// TestEnginesAgreeRandom is the cross-engine property test: on random
// trees and the Example 3.2 program, all four engines agree on every
// intensional predicate.
func TestEnginesAgreeRandom(t *testing.T) {
	p := paperex.EvenAProgram("b")
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b"}, Size: 1 + rng.Intn(40), MaxChildren: 4})
		ref, err := EvalOnTree(p, tr, EngineNaive)
		if err != nil {
			return false
		}
		for _, eng := range []Engine{EngineLinear, EngineSemiNaive, EngineLIT, EngineBitmap} {
			res, err := EvalOnTree(p, tr, eng)
			if err != nil {
				t.Logf("engine %v: %v", eng, err)
				return false
			}
			if diff := SameResults(ref, res, p.IntensionalPreds()); diff != "" {
				t.Logf("engine %v differs on %s (tree %s)", eng, diff, tr)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSplitConnected(t *testing.T) {
	p := datalog.MustParseProgram(`
p(X) :- q(X), r(Y), s(Y), u(Z).
`)
	sp := SplitConnected(p)
	// Expect: two helper rules (one for {Y}, one for {Z}) + main rule.
	if len(sp.Rules) != 3 {
		t.Fatalf("got %d rules:\n%s", len(sp.Rules), sp)
	}
	for _, r := range sp.Rules {
		if !r.IsConnected() {
			t.Errorf("rule not connected: %s", r)
		}
	}
	main := sp.Rules[len(sp.Rules)-1]
	if main.Head.Pred != "p" || len(main.Body) != 3 {
		t.Errorf("main rule wrong: %s", main)
	}
}

func TestSplitConnectedPreservesSemantics(t *testing.T) {
	p := datalog.MustParseProgram(`
q(X) :- label_a(X), label_b(Y), firstchild(Y,Z).
`)
	sp := SplitConnected(p)
	tr := tree.MustParse("b(a,b(a))")
	db := TreeDB(tr)
	r1, err := datalog.NaiveEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := datalog.NaiveEval(sp, db)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.UnarySet("q")) != fmt.Sprint(r2.UnarySet("q")) {
		t.Errorf("split changed semantics: %v vs %v", r1.UnarySet("q"), r2.UnarySet("q"))
	}
}

func TestLinearTreeRejects(t *testing.T) {
	tr := tree.MustParse("a(b)")
	cases := []string{
		`p(X) :- child(X,Y), label_b(Y).`,                      // child lacks the FD
		`p(X,Y) :- firstchild(X,Y).`,                           // non-monadic
		`p(X) :- mystery(X,Y), label_b(Y).`,                    // unknown binary predicate
		`p(X) :- firstchild(X,Y), label_b(Y), weird_unary(X).`, // dead rule is fine; see below
	}
	for i, src := range cases[:3] {
		p := datalog.MustParseProgram(src)
		if _, err := LinearTree(p, tr); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// Unknown unary predicates make the rule dead rather than an error
	// (they are simply underivable intensional predicates).
	p := datalog.MustParseProgram(cases[3])
	res, err := LinearTree(p, tr)
	if err != nil {
		t.Fatalf("dead rule: %v", err)
	}
	if len(res.UnarySet("p")) != 0 {
		t.Error("dead rule derived facts")
	}
}

func TestLinearTreeChildK(t *testing.T) {
	// Ranked-tree signature: select nodes whose 2nd child is a leaf.
	p := datalog.MustParseProgram(`q(X) :- child_2(X,Y), leaf(Y).`)
	tr := tree.MustParse("f(g(a,b),h)")
	res, err := LinearTree(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	// f's 2nd child h is a leaf (id 0 selected); g's 2nd child b is a
	// leaf (id 1 selected).
	if got := fmt.Sprint(res.UnarySet("q")); got != "[0 1]" {
		t.Errorf("q = %s", got)
	}
}

func TestLinearTreeLastChild(t *testing.T) {
	p := datalog.MustParseProgram(`q(X) :- lastchild(X,Y), label_c(Y).`)
	tr := tree.MustParse("a(b,c(b,c))")
	res, err := LinearTree(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.UnarySet("q")); got != "[0 2]" {
		t.Errorf("q = %s", got)
	}
}

func TestLinearTreeSelfLoopEdge(t *testing.T) {
	// firstchild(X,X) is unsatisfiable on trees; the rule must derive nothing.
	p := datalog.MustParseProgram(`q(X) :- firstchild(X,X).`)
	tr := tree.MustParse("a(b)")
	res, err := LinearTree(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnarySet("q")) != 0 {
		t.Error("self-loop rule derived facts")
	}
}

func TestLinearTreeMultiEdge(t *testing.T) {
	// Two distinct relations between the same variables: both must hold.
	p := datalog.MustParseProgram(`q(X) :- firstchild(X,Y), lastchild(X,Y).`)
	tr := tree.MustParse("a(b,c)") // first ≠ last child at the root
	res, err := LinearTree(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnarySet("q")) != 0 {
		t.Errorf("q = %v, want empty", res.UnarySet("q"))
	}
	tr2 := tree.MustParse("a(b)") // only child: first = last
	res2, err := LinearTree(p, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res2.UnarySet("q")); got != "[0]" {
		t.Errorf("q = %s, want [0]", got)
	}
}

func TestGroundEval(t *testing.T) {
	p := datalog.MustParseProgram(`
p(0) :- e(0,1).
p(1) :- p(0).
q(2) :- p(0), p(1), missing(2).
`)
	db := datalog.NewDatabase(3)
	db.Add("e", 0, 1)
	res, err := GroundEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Has("p", 0) || !res.Has("p", 1) {
		t.Error("p incomplete")
	}
	if res.Has("q", 2) {
		t.Error("q derived despite missing premise")
	}
	if _, err := GroundEval(datalog.MustParseProgram(`p(X) :- e(X,X).`), db); err == nil {
		t.Error("non-ground program accepted")
	}
}

func TestGuardedEval(t *testing.T) {
	// Reachability with edge guards: tc(X,Y) is guarded by e(X,Y) only
	// for single steps; we use a bounded 2-step variant that stays guarded.
	p := datalog.MustParseProgram(`
sel(X) :- e(X,Y), good(Y).
pair(X,Y) :- e(X,Y), sel(X).
`)
	db := datalog.NewDatabase(4)
	db.Add("e", 0, 1)
	db.Add("e", 1, 2)
	db.Add("good", 1)
	res, err := GuardedEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.UnarySet("sel")); got != "[0]" {
		t.Errorf("sel = %s", got)
	}
	if !res.Has("pair", 0, 1) || res.Has("pair", 1, 2) {
		t.Error("pair wrong")
	}
	// A rule without a guard must be rejected.
	bad := datalog.MustParseProgram(`p(X) :- q(X), r(Y).`)
	if _, err := GuardedEval(bad, db); err == nil {
		t.Error("unguarded rule accepted")
	}
}

func TestLITEval(t *testing.T) {
	// Mixed LIT program: monadic-body rules + guarded rule.
	p := datalog.MustParseProgram(`
has_a :- label_a(X).
q(X) :- dom(X), has_a.
r(X) :- firstchild(X,Y), q(Y).
`)
	tr := tree.MustParse("b(a,b)")
	db := TreeDB(tr, WithDom())
	res, err := LITEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(res.UnarySet("q")); got != "[0 1 2]" {
		t.Errorf("q = %s", got)
	}
	if got := fmt.Sprint(res.UnarySet("r")); got != "[0]" {
		t.Errorf("r = %s", got)
	}
	if _, err := LITEval(datalog.MustParseProgram(`p(X,Y) :- e(X,Y).`), db); err == nil {
		t.Error("non-monadic program accepted by LIT engine")
	}
}

func TestQueryHelper(t *testing.T) {
	p := paperex.EvenAProgram()
	tr := paperex.Example32Tree()
	got, err := Query(p, tr)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0]" {
		t.Errorf("Query = %v", got)
	}
	p2 := p.Clone()
	p2.Query = ""
	if _, err := Query(p2, tr); err == nil {
		t.Error("expected error without query predicate")
	}
}

func TestNavArrays(t *testing.T) {
	tr := tree.MustParse("a(b,c(d,e),f)")
	nav := NewNav(tr)
	if nav.FC[0] != 1 || nav.FC[1] != -1 || nav.FC[2] != 3 {
		t.Error("FC wrong")
	}
	if nav.NS[1] != 2 || nav.NS[2] != 5 || nav.NS[5] != -1 {
		t.Error("NS wrong")
	}
	if nav.Parent[0] != -1 || nav.Parent[3] != 2 {
		t.Error("Parent wrong")
	}
	if nav.Prev[2] != 1 || nav.Prev[1] != -1 {
		t.Error("Prev wrong")
	}
	if nav.LastChild[0] != 5 || nav.LastChild[2] != 4 || nav.LastChild[1] != -1 {
		t.Error("LastChild wrong")
	}
	if nav.ChildK(0, 2) != 2 || nav.ChildK(0, 4) != -1 {
		t.Error("ChildK wrong")
	}
}
