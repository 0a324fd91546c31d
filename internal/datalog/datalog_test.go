package datalog

import (
	"slices"
	"strings"
	"testing"
)

func TestTermAtomRuleStrings(t *testing.T) {
	r := R(At("p", V("X")), At("q", V("X"), C(3)), At("b"))
	got := r.String()
	want := "p(X) :- q(X,3), b."
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if f := R(At("p", C(1))); f.String() != "p(1)." {
		t.Errorf("fact String = %q", f.String())
	}
}

// exampleProgram is a well-formed program with a comment, a constant
// fact, a propositional head and a query directive.
const exampleProgram = `
% Example 3.2 fragment
b0(X) :- leaf(X).
c1(X) :- b0(X), label_a(X).
fact(3).
b :- c1(Y).
?- c1.
`

func TestParseProgram(t *testing.T) {
	p, err := ParseProgram(exampleProgram)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules) != 4 {
		t.Fatalf("got %d rules", len(p.Rules))
	}
	if p.Query != "c1" {
		t.Errorf("Query = %q", p.Query)
	}
	if p.Rules[2].Head.Args[0].Const != 3 {
		t.Error("constant parsed wrong")
	}
	if p.Rules[3].Head.Pred != "b" || len(p.Rules[3].Head.Args) != 0 {
		t.Error("propositional head parsed wrong")
	}
	// Round trip.
	p2, err := ParseProgram(p.String())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if p2.String() != p.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", p.String(), p2.String())
	}
}

// badPrograms are texts ParseProgram must reject.
var badPrograms = []string{
	"p(X)",                            // missing period
	"p(X) :- q(X)",                    // missing period
	"p(X) :- .",                       // empty body
	"p(X :- q(X).",                    // bad atom
	"p(X) :- q(X,).",                  // bad term
	"P(X) :- q(X).",                   // uppercase predicate
	"p(X) :- q(Y).",                   // actually safe? no: head var X not in body -> unsafe
	"p(x) :- q(x).",                   // lowercase terms are not variables nor constants
	"?- .",                            // missing pred
	"p(X) :- q(X). p(X,Y) :- r(X,Y).", // arity clash
}

func TestParseErrors(t *testing.T) {
	for _, src := range badPrograms {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q): expected error", src)
		}
	}
}

func TestSafety(t *testing.T) {
	if R(At("p", V("X")), At("q", V("Y"))).IsSafe() {
		t.Error("unsafe rule declared safe")
	}
	if !R(At("p", V("X")), At("q", V("X"), V("Y"))).IsSafe() {
		t.Error("safe rule declared unsafe")
	}
	if !R(At("p", C(1))).IsSafe() {
		t.Error("ground fact must be safe")
	}
}

func TestProgramPredicates(t *testing.T) {
	p := MustParseProgram(`
p(X) :- q(X), r(X,Y), s(Y).
q(X) :- t(X).
`)
	if got := p.IntensionalPreds(); len(got) != 2 || got[0] != "p" || got[1] != "q" {
		t.Errorf("IntensionalPreds = %v", got)
	}
	if got := p.ExtensionalPreds(); len(got) != 3 || got[0] != "r" || got[1] != "s" || got[2] != "t" {
		t.Errorf("ExtensionalPreds = %v", got)
	}
	if !p.IsMonadic() {
		t.Error("IsMonadic = false")
	}
	p2 := MustParseProgram(`p(X,Y) :- e(X,Y).`)
	if p2.IsMonadic() {
		t.Error("binary head declared monadic")
	}
}

func TestIsConnected(t *testing.T) {
	conn := MustParseProgram(`p(X) :- q(X,Y), r(Y,Z).`).Rules[0]
	if !conn.IsConnected() {
		t.Error("connected rule declared disconnected")
	}
	disc := MustParseProgram(`p(X) :- q(X), r(Y,Z).`).Rules[0]
	if disc.IsConnected() {
		t.Error("disconnected rule declared connected")
	}
	single := MustParseProgram(`p(X) :- q(X).`).Rules[0]
	if !single.IsConnected() {
		t.Error("single-variable rule must be connected")
	}
}

func TestDatabaseBasics(t *testing.T) {
	db := NewDatabase(5)
	if !db.Add("e", 0, 1) || db.Add("e", 0, 1) {
		t.Error("Add dedup wrong")
	}
	db.Add("e", 1, 2)
	db.Add("u", 3)
	if !db.Has("e", 0, 1) || db.Has("e", 2, 0) {
		t.Error("Has wrong")
	}
	if got := db.UnarySet("u"); len(got) != 1 || got[0] != 3 {
		t.Errorf("UnarySet = %v", got)
	}
	um := db.Unary("u")
	if !um[3] || um[0] {
		t.Error("Unary bitmap wrong")
	}
	if db.Size() != 3 {
		t.Errorf("Size = %d", db.Size())
	}
	preds := db.Preds()
	if len(preds) != 2 || preds[0] != "e" || preds[1] != "u" {
		t.Errorf("Preds = %v", preds)
	}
	cl := db.Clone()
	cl.Add("e", 4, 4)
	if db.Has("e", 4, 4) {
		t.Error("Clone shares state")
	}
	pr := db.Project([]string{"u", "missing"})
	if pr.Has("e", 0, 1) || !pr.Has("u", 3) {
		t.Error("Project wrong")
	}
	if !strings.Contains(db.String(), "e(0,1).") {
		t.Errorf("String = %q", db.String())
	}
}

// TestUnaryOutOfDomainPanics: a unary tuple outside the domain is a
// fault of whoever added it, and the dense view must not hide it.
func TestUnaryOutOfDomainPanics(t *testing.T) {
	db := NewDatabase(3)
	db.Rel("u", 1).AddUnarySet([]int{1, 3})
	defer func() {
		if recover() == nil {
			t.Error("Unary dropped id 3 in a domain of 3 without a panic")
		}
	}()
	db.Unary("u")
}

// TestDatabaseCopiesIndependent checks that Clone and Project copy
// tuples rather than alias them: adding to a copy (including through a
// relation whose membership set the source had already built) leaves
// the source intact, and the copy still deduplicates through its lazily
// rebuilt membership set.
func TestDatabaseCopiesIndependent(t *testing.T) {
	db := NewDatabase(10)
	db.Add("e", 0, 1)
	db.Add("e", 1, 2)
	db.Rel("u", 1).AddUnarySet([]int{3, 4, 5})
	db.Add("p")
	for name, cp := range map[string]*Database{
		"Clone":   db.Clone(),
		"Project": db.Project([]string{"e", "u", "p"}),
	} {
		if cp.Size() != db.Size() {
			t.Fatalf("%s: size %d, want %d", name, cp.Size(), db.Size())
		}
		if !cp.Has("e", 1, 2) || !cp.Has("u", 4) || !cp.Has("p") || cp.Has("e", 2, 1) {
			t.Fatalf("%s: membership wrong", name)
		}
		if cp.Add("e", 0, 1) || cp.Add("u", 3) || cp.Add("p") {
			t.Fatalf("%s: Add on the copy accepted a duplicate", name)
		}
		if !cp.Add("e", 7, 8) || !cp.Add("u", 9) {
			t.Fatalf("%s: Add on the copy rejected a new tuple", name)
		}
		if cp.Add("e", 7, 8) {
			t.Fatalf("%s: second Add of the same tuple accepted", name)
		}
		if db.Has("e", 7, 8) || db.Has("u", 9) || db.Size() != 6 {
			t.Fatalf("%s: mutating the copy changed the source", name)
		}
		// Overwriting a copied tuple in place must not reach the source.
		cp.RelOrNil("e").Tuples()[0][0] = 9
		if !db.Has("e", 0, 1) || db.RelOrNil("e").Tuples()[0][0] != 0 {
			t.Fatalf("%s: copy aliases the source's tuples", name)
		}
	}
	if db.Project([]string{"missing"}).Size() != 0 {
		t.Error("Project of a missing relation is nonempty")
	}
}

// TestUnarySet checks UnarySet on a relation loaded out of id order
// (the result is sorted), that the result is the caller's to modify,
// and that empty, missing and non-unary relations yield nil.
func TestUnarySet(t *testing.T) {
	db := NewDatabase(10)
	r := db.Rel("u", 1)
	for _, v := range []int{5, 2, 7} {
		r.AddUnchecked([]int{v})
	}
	got := db.UnarySet("u")
	if !slices.Equal(got, []int{2, 5, 7}) {
		t.Fatalf("UnarySet = %v, want [2 5 7]", got)
	}
	got[0] = 9
	if again := db.UnarySet("u"); again[0] != 2 {
		t.Fatalf("modifying a UnarySet result reached the relation: %v", again)
	}
	db.Rel("empty", 1)
	db.Add("e", 1, 2)
	for _, pred := range []string{"empty", "missing", "e"} {
		if got := db.UnarySet(pred); got != nil {
			t.Errorf("UnarySet(%q) = %v, want nil", pred, got)
		}
	}
}

func TestNaiveEvalTransitiveClosure(t *testing.T) {
	p := MustParseProgram(`
tc(X,Y) :- e(X,Y).
tc(X,Z) :- tc(X,Y), e(Y,Z).
`)
	db := NewDatabase(4)
	db.Add("e", 0, 1)
	db.Add("e", 1, 2)
	db.Add("e", 2, 3)
	res, err := NaiveEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	for _, w := range wantPairs {
		if !res.Has("tc", w[0], w[1]) {
			t.Errorf("missing tc(%d,%d)", w[0], w[1])
		}
	}
	if res.RelOrNil("tc").Len() != len(wantPairs) {
		t.Errorf("tc has %d tuples, want %d", res.RelOrNil("tc").Len(), len(wantPairs))
	}
}

func TestSemiNaiveMatchesNaive(t *testing.T) {
	p := MustParseProgram(`
tc(X,Y) :- e(X,Y).
tc(X,Z) :- tc(X,Y), tc(Y,Z).
odd(X)  :- start(X).
odd(Y)  :- even(X), e(X,Y).
even(Y) :- odd(X), e(X,Y).
`)
	db := NewDatabase(6)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {2, 5}}
	for _, e := range edges {
		db.Add("e", e[0], e[1])
	}
	db.Add("start", 0)
	nv, err := NaiveEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := SemiNaiveEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"tc", "odd", "even"} {
		a, b := nv.RelOrNil(pred), sn.RelOrNil(pred)
		if (a == nil) != (b == nil) {
			t.Fatalf("%s presence differs", pred)
		}
		if a == nil {
			continue
		}
		if a.Len() != b.Len() {
			t.Errorf("%s: naive %d vs semi-naive %d tuples", pred, a.Len(), b.Len())
		}
		for _, tu := range a.Tuples() {
			if !b.Has(tu) {
				t.Errorf("%s: semi-naive missing %v", pred, tu)
			}
		}
	}
}

func TestEvalWithConstants(t *testing.T) {
	p := MustParseProgram(`
picked(X) :- e(0,X).
zero(0) :- e(0,1).
`)
	db := NewDatabase(3)
	db.Add("e", 0, 1)
	db.Add("e", 1, 2)
	res, err := SemiNaiveEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.UnarySet("picked"); len(got) != 1 || got[0] != 1 {
		t.Errorf("picked = %v", got)
	}
	if !res.Has("zero", 0) {
		t.Error("zero(0) missing")
	}
}

func TestPropositionalRules(t *testing.T) {
	p := MustParseProgram(`
some_a :- label_a(X).
q(X) :- node(X), some_a.
`)
	db := NewDatabase(3)
	db.Add("node", 0)
	db.Add("node", 1)
	db.Add("node", 2)
	db.Add("label_a", 1)
	res, err := SemiNaiveEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.UnarySet("q"); len(got) != 3 {
		t.Errorf("q = %v", got)
	}
	// Without any a-labeled node q must be empty.
	db2 := NewDatabase(2)
	db2.Add("node", 0)
	db2.Add("node", 1)
	res2, err := SemiNaiveEval(p, db2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.UnarySet("q"); len(got) != 0 {
		t.Errorf("q = %v, want empty", got)
	}
}

func TestTraceEval(t *testing.T) {
	p := MustParseProgram(`
a(X) :- base(X).
b(X) :- a(X).
c(X) :- b(X).
`)
	db := NewDatabase(1)
	db.Add("base", 0)
	stages, final, err := TraceEval(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 3 {
		t.Fatalf("got %d stages, want 3", len(stages))
	}
	if stages[0][0].Pred != "a" || stages[1][0].Pred != "b" || stages[2][0].Pred != "c" {
		t.Errorf("stage order wrong: %v", stages)
	}
	if !final.Has("c", 0) {
		t.Error("final missing c(0)")
	}
}

func TestCloneProgram(t *testing.T) {
	p := MustParseProgram(`p(X) :- q(X).`)
	c := p.Clone()
	c.Rules[0].Head.Pred = "changed"
	if p.Rules[0].Head.Pred != "p" {
		t.Error("Clone shares rule storage")
	}
}
