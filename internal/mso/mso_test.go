package mso

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mdlog/internal/tree"
)

// printedFormulas parse, and print as text that reparses; badFormulas
// do not parse. Both seed FuzzParseMSO.
var (
	printedFormulas = []string{
		"root(x)",
		"label_a(x) & ~leaf(x)",
		"exists y (firstchild(x,y) | nextsibling(x,y))",
		"forall X (x in X -> x in X)",
		"X sub Y",
		"x = y",
		"before(x,y)",
		"child(x,y)",
		"true | false",
	}
	badFormulas = []string{
		"",
		"label_(x)",
		"root(x",
		"root()",
		"x",
		"x =",
		"exists (root(x))",
		"x in y",  // y is first-order
		"x sub Y", // x is first-order
		"root(X)", // X is second-order
		"firstchild(X,y)",
		"root(x) )",
	}
)

func TestParseAndString(t *testing.T) {
	for _, src := range printedFormulas {
		f, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		// Reparse the printed form.
		if _, err := Parse(f.String()); err != nil {
			t.Errorf("reparse of %q (printed %q): %v", src, f.String(), err)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range badFormulas {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestFreeVarsAndRank(t *testing.T) {
	f := MustParse("exists y (firstchild(x,y) & forall Z (y in Z -> x in Z))")
	fv := FreeVars(f)
	if len(fv) != 1 || fv[0] != "x" {
		t.Errorf("FreeVars = %v", fv)
	}
	if QuantifierRank(f) != 2 {
		t.Errorf("QuantifierRank = %d", QuantifierRank(f))
	}
	s := MustParse("forall x (leaf(x) | label_a(x))")
	if len(FreeVars(s)) != 0 {
		t.Errorf("sentence has free vars: %v", FreeVars(s))
	}
}

func TestNaiveEvalBasics(t *testing.T) {
	tr := tree.MustParse("a(b,c(d,e),f)")
	cases := []struct {
		src  string
		want []int
	}{
		{"root(x)", []int{0}},
		{"leaf(x)", []int{1, 3, 4, 5}},
		{"lastsibling(x)", []int{4, 5}},
		{"label_c(x)", []int{2}},
		{"exists y firstchild(x,y)", []int{0, 2}},
		{"exists y nextsibling(y,x)", []int{2, 4, 5}},
		{"exists y child(y,x)", []int{1, 2, 3, 4, 5}},
		{"exists y (child(x,y) & label_d(y))", []int{2}},
		{"exists y (before(x,y) & label_f(y))", []int{0, 1, 2, 3, 4}},
		{"x = x", []int{0, 1, 2, 3, 4, 5}},
		{"~leaf(x) & ~root(x)", []int{2}},
		// Second-order: x is in every set containing the root and closed
		// under child — i.e. every node (all reachable from the root).
		{"forall X ((forall r (root(r) -> r in X)) & (forall u (forall v ((u in X & child(u,v)) -> v in X))) -> x in X)", []int{0, 1, 2, 3, 4, 5}},
	}
	for _, c := range cases {
		got, err := NaiveSelect(MustParse(c.src), "x", tr)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
		}
	}
}

func TestNaiveSentence(t *testing.T) {
	tr := tree.MustParse("a(b,b)")
	ok, err := NaiveSentence(MustParse("forall x (leaf(x) -> label_b(x))"), tr)
	if err != nil || !ok {
		t.Errorf("sentence eval: %v %v", ok, err)
	}
	ok, err = NaiveSentence(MustParse("exists x label_c(x)"), tr)
	if err != nil || ok {
		t.Errorf("sentence eval: %v %v", ok, err)
	}
	if _, err := NaiveSentence(MustParse("label_a(x)"), tr); err == nil {
		t.Error("free variable in sentence must error")
	}
}

// queriesUnderTest is a shared battery of unary MSO queries exercising
// every atom and both quantifier sorts.
var queriesUnderTest = []string{
	"root(x)",
	"leaf(x)",
	"lastsibling(x)",
	"label_a(x)",
	"label_a(x) | label_b(x)",
	"~label_a(x)",
	"exists y firstchild(x,y)",
	"exists y (nextsibling(x,y) & label_a(y))",
	"exists y (child(x,y) & leaf(y))",
	"forall y (child(x,y) -> label_a(y))",
	"exists y (child(y,x) & label_b(y))",
	"exists y (before(y,x) & label_b(y))",
	"exists y (firstchild(x,y) & exists z (nextsibling(y,z) & label_a(z)))",
	// x has an ancestor labeled b: via sets closed under parent.
	"exists Y (x in Y & (forall u (forall v ((v in Y & child(u,v)) -> u in Y))) & exists r (r in Y & label_b(r) & ~(r = x)))",
	// every leaf below x (in x's "descendant-closed" sets) — tests ∀ SO.
	"forall y (y = x | ~(y = x))", // trivially all nodes
	"exists y (y = x & leaf(y))",
	// Binary atoms repeating one variable, quantified and free.
	"label_a(x) & exists y (firstchild(y,y))",
	"label_c(x) | exists y (y = y & label_b(y))",
	"exists y ((nextsibling(y,y) | child(y,y) | before(y,y)) & label_a(y)) | label_b(x)",
	"x = x & ~before(x,x)",
}

// TestCompiledMatchesNaive is the central Theorem 4.4 premise check:
// the automaton evaluation agrees with the direct MSO semantics.
func TestCompiledMatchesNaive(t *testing.T) {
	for _, src := range queriesUnderTest {
		f := MustParse(src)
		q, err := CompileQuery(f)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 25; i++ {
			tr := tree.Random(rng, tree.RandomOptions{
				Labels: []string{"a", "b", "c"}, Size: 1 + rng.Intn(10), MaxChildren: 3})
			want, err := NaiveSelect(f, "x", tr)
			if err != nil {
				t.Fatalf("naive %q: %v", src, err)
			}
			got := q.Select(tr)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%q on %s: automaton %v, naive %v", src, tr, got, want)
			}
		}
	}
}

func TestCompiledSentences(t *testing.T) {
	sentences := []string{
		"forall x (leaf(x) -> label_a(x))",
		"exists x (root(x) & label_b(x))",
		"forall x (label_a(x) | label_b(x))",
		"exists X (forall x (x in X <-> label_a(x)))", // always true
		"forall x before(x,x)",                        // always false
		"exists x (x = x & ~child(x,x) & label_b(x))",
	}
	rng := rand.New(rand.NewSource(13))
	for _, src := range sentences {
		f := MustParse(src)
		s, err := CompileSentence(f)
		if err != nil {
			t.Fatalf("compile %q: %v", src, err)
		}
		for i := 0; i < 25; i++ {
			tr := tree.Random(rng, tree.RandomOptions{
				Labels: []string{"a", "b"}, Size: 1 + rng.Intn(9), MaxChildren: 3})
			want, err := NaiveSentence(f, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Accepts(tr); got != want {
				t.Errorf("%q on %s: automaton %v, naive %v", src, tr, got, want)
			}
		}
	}
}

func TestCompiledQuickRandomTrees(t *testing.T) {
	// Property test over random trees for a nontrivial query: "x roots a
	// subtree that contains a b-labeled leaf".
	q := MustCompileQuery("exists Y (x in Y & (forall u (forall v ((u in Y & child(u,v)) -> v in Y))) & exists l (l in Y & leaf(l) & label_b(l)))")
	f := MustParse(q.C.Formula.String())
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b"}, Size: 1 + rng.Intn(8), MaxChildren: 3})
		want, err := NaiveSelect(f, "x", tr)
		if err != nil {
			return false
		}
		return fmt.Sprint(q.Select(tr)) == fmt.Sprint(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompileQueryErrors(t *testing.T) {
	if _, err := CompileQuery(MustParse("forall x (leaf(x) -> leaf(x))")); err == nil {
		t.Error("sentence accepted as unary query")
	}
	if _, err := CompileQuery(MustParse("firstchild(x,y)")); err == nil {
		t.Error("two free variables accepted")
	}
	if _, err := CompileSentence(MustParse("root(x)")); err == nil {
		t.Error("free variable accepted in sentence")
	}
}

func TestValidateSorts(t *testing.T) {
	bad := []Formula{
		Label{"X", "a"},
		Un{UnRoot, "X"},
		Bin{BinFirstChild, "x", "Y"},
		In{"X", "Y"},
		In{"x", "y"},
		Subset{"x", "Y"},
	}
	for _, f := range bad {
		if err := Validate(f); err == nil {
			t.Errorf("Validate(%s): expected error", f)
		}
	}
}

func TestRenameApart(t *testing.T) {
	f := MustParse("exists y (firstchild(x,y) & exists y nextsibling(x,y))")
	r := renameApart(f)
	// The two y binders must now bind distinct names, x untouched.
	outer := r.(Exists)
	inner := outer.Body.(And).R.(Exists)
	if outer.V == inner.V {
		t.Error("binders not renamed apart")
	}
	if FreeVars(r)[0] != "x" {
		t.Error("free variable renamed")
	}
}
