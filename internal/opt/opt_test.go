package opt

import (
	"fmt"
	"math/rand"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/tmnf"
	"mdlog/internal/tree"
)

func mustParse(t *testing.T, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// sameOn asserts that p and q derive the same extensions for preds on
// the given tree, via the reference semi-naive engine.
func sameOn(t *testing.T, p, q *datalog.Program, tr *tree.Tree, preds []string) {
	t.Helper()
	dbP, err := eval.EvalOnTree(p, tr, eval.EngineSemiNaive)
	if err != nil {
		t.Fatalf("original: %v", err)
	}
	dbQ, err := eval.EvalOnTree(q, tr, eval.EngineSemiNaive)
	if err != nil {
		t.Fatalf("optimized: %v", err)
	}
	if diff := eval.SameResults(dbP, dbQ, preds); diff != "" {
		t.Fatalf("results differ on %v: %s\noriginal:\n%s\noptimized:\n%s", preds, diff, p, q)
	}
}

func TestO0IsIdentity(t *testing.T) {
	p := mustParse(t, `
q(X) :- label_a(X), label_a(X).
dead(X) :- label_b(X).
?- q.
`)
	out, rep := Optimize(p, Options{Level: O0, Roots: []string{"q"}})
	if len(out.Rules) != len(p.Rules) {
		t.Fatalf("O0 changed the program: %d vs %d rules", len(out.Rules), len(p.Rules))
	}
	if rep.Changed() {
		t.Fatalf("O0 report claims changes: %+v", rep)
	}
	// The clone must be independent of the input.
	out.Rules[0].Body[0].Pred = "label_z"
	if p.Rules[0].Body[0].Pred != "label_a" {
		t.Fatal("Optimize aliased the input program")
	}
}

func TestDeadRuleElimination(t *testing.T) {
	p := mustParse(t, `
q(X) :- label_a(X).
helper(X) :- label_b(X).
unreached(X) :- helper(X).
undef(X) :- ghost(X).
chain(X) :- undef(X).
?- q.
`)
	out, rep := Optimize(p, Options{Level: O1, Roots: []string{"q"}})
	if len(out.Rules) != 1 {
		t.Fatalf("want 1 surviving rule, got:\n%s", out)
	}
	// unreached+helper are unreachable; undef has an unknown unary body
	// atom; chain depends on the underivable undef.
	if rep.DeadRules != 4 {
		t.Errorf("DeadRules = %d, want 4 (%+v)", rep.DeadRules, rep)
	}
}

func TestDeadKeepsUnknownBinary(t *testing.T) {
	p := mustParse(t, `q(X) :- mystery(X,Y), label_a(Y). ?- q.`)
	out, _ := Optimize(p, Options{Level: O1, Roots: []string{"q"}})
	if len(out.Rules) != 1 {
		t.Fatalf("rule with unknown binary predicate must be kept:\n%s", out)
	}

	// The same holds when the offending rule is UNREACHABLE from the
	// roots: dropping it would let the default level compile a program
	// the unoptimized route rejects.
	p = mustParse(t, `
q(X) :- label_a(X).
r(X) :- bogus(X,Y), label_b(Y).
?- q.
`)
	out, _ = Optimize(p, Options{Level: O1, Roots: []string{"q"}})
	kept := false
	for _, r := range out.Rules {
		if r.Head.Pred == "r" {
			kept = true
		}
	}
	if !kept {
		t.Fatalf("unreachable rule with unknown binary predicate was dropped:\n%s", out)
	}
}

func TestDeadKeepsRecursion(t *testing.T) {
	p := mustParse(t, `
q(X) :- root(X).
q(Y) :- q(X), firstchild(X,Y).
q(Y) :- q(X), nextsibling(X,Y).
?- q.
`)
	out, rep := Optimize(p, Options{Level: O1, Roots: []string{"q"}})
	if len(out.Rules) != 3 || rep.Changed() {
		t.Fatalf("recursive reachability program must survive intact:\n%s\n%+v", out, rep)
	}
}

func TestInlineSingleUseChain(t *testing.T) {
	// A TMNF-style chain: q ← a1 ← a2 ← label_b, each auxiliary used
	// exactly once. O1 must collapse the chain into one rule.
	p := mustParse(t, `
q(X) :- aux1(X).
aux1(X) :- aux2(Y), firstchild(Y,X).
aux2(X) :- label_b(X).
?- q.
`)
	out, rep := Optimize(p, Options{Level: O1, Roots: []string{"q"}})
	if len(out.Rules) != 1 {
		t.Fatalf("chain not collapsed:\n%s", out)
	}
	if rep.Inlined != 2 {
		t.Errorf("Inlined = %d, want 2", rep.Inlined)
	}
	tr, err := tree.Parse("a(b,c(b))")
	if err != nil {
		t.Fatal(err)
	}
	sameOn(t, p, out, tr, []string{"q"})
}

func TestInlineRenamesApartAndKeepsSemantics(t *testing.T) {
	// The defining rule reuses variable names of the use site; naive
	// substitution would capture Y.
	p := mustParse(t, `
q(X) :- firstchild(X,Y), aux(Y).
aux(X) :- nextsibling(X,Y), label_b(Y).
?- q.
`)
	out, _ := Optimize(p, Options{Level: O1, Roots: []string{"q"}})
	if len(out.Rules) != 1 {
		t.Fatalf("want 1 rule:\n%s", out)
	}
	tr, err := tree.Parse("a(c(x,b),d)")
	if err != nil {
		t.Fatal(err)
	}
	sameOn(t, p, out, tr, []string{"q"})
}

func TestInlineSkipsRootsMultiUseAndRecursion(t *testing.T) {
	p := mustParse(t, `
q(X) :- aux(X).
r(X) :- aux(X).
aux(X) :- label_a(X).
self(Y) :- self(X), firstchild(X,Y).
self(X) :- root(X).
q(X) :- self(X).
?- q.
`)
	out, _ := Optimize(p, Options{Level: O1, Roots: []string{"q", "r"}})
	heads := map[string]int{}
	for _, r := range out.Rules {
		heads[r.Head.Pred]++
	}
	if heads["aux"] != 1 {
		t.Errorf("aux used twice must not be inlined:\n%s", out)
	}
	if heads["self"] != 2 {
		t.Errorf("recursive self must not be inlined:\n%s", out)
	}
}

func TestDuplicateRuleAndAtomRemoval(t *testing.T) {
	p := mustParse(t, `
q(X) :- label_a(X), label_a(X).
q(Y) :- label_a(Y).
q(X) :- firstchild(X,Y), label_b(Y), label_b(Y).
?- q.
`)
	out, rep := Optimize(p, Options{Level: O1, Roots: []string{"q"}})
	if len(out.Rules) != 2 {
		t.Fatalf("want 2 rules after dedup:\n%s", out)
	}
	if rep.DuplicateRules != 1 || rep.RedundantAtoms != 2 {
		t.Errorf("report %+v, want 1 duplicate rule and 2 redundant atoms", rep)
	}
	tr, err := tree.Parse("a(b,a(b))")
	if err != nil {
		t.Fatal(err)
	}
	sameOn(t, p, out, tr, []string{"q"})
}

// TestTMNFChainCollapse is the headline scenario: the Theorem 5.2
// transformation emits chains of single-use tm_* predicates; the
// optimizer must shrink the program substantially while preserving the
// query extension.
func TestTMNFChainCollapse(t *testing.T) {
	src := `
q(X) :- label_td(X), child(X,Y), label_b(Y), child(X,Z), label_em(Z).
?- q.
`
	p := mustParse(t, src)
	tp, err := tmnf.Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	out, rep := Optimize(tp, Options{Level: O1, Roots: []string{"q"}})
	if rep.RulesAfter >= rep.RulesBefore {
		t.Fatalf("no reduction: %d -> %d\n%s", rep.RulesBefore, rep.RulesAfter, out)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5; i++ {
		tr := tree.Random(rng, tree.RandomOptions{
			Labels: []string{"td", "b", "em", "x"}, Size: 60 + 13*i, MaxChildren: 4})
		sameOn(t, tp, out, tr, []string{"q"})
		// The linear engine must agree too.
		dbLin, err := eval.LinearTree(out, tr)
		if err != nil {
			t.Fatal(err)
		}
		dbRef, err := eval.LinearTree(tp, tr)
		if err != nil {
			t.Fatal(err)
		}
		if diff := eval.SameResults(dbRef, dbLin, []string{"q"}); diff != "" {
			t.Fatalf("linear engine differs after optimization: %s", diff)
		}
	}
}

// TestOptimizePreservesRandomPrograms drives the pipeline over random
// monadic programs and checks least-model preservation on the roots
// with the reference engine.
func TestOptimizePreservesRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 60; i++ {
		p := randomProgram(rng)
		out, _ := Optimize(p, Options{Level: O1, Roots: []string{"p0"}})
		tr := tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b"}, Size: 20 + rng.Intn(40), MaxChildren: 4})
		sameOn(t, p, out, tr, []string{"p0"})
	}
}

// randomProgram builds a small random monadic program over τ_ur.
func randomProgram(rng *rand.Rand) *datalog.Program {
	V, At, R := datalog.V, datalog.At, datalog.R
	unaryEDB := []string{"root", "leaf", "lastsibling", "label_a", "label_b"}
	binEDB := []string{"firstchild", "nextsibling", "lastchild"}
	preds := []string{"p0", "p1", "p2", "p3"}
	vars := []string{"X", "Y", "Z"}
	p := &datalog.Program{Query: "p0"}
	for r := 0; r < 3+rng.Intn(6); r++ {
		head := At(preds[rng.Intn(len(preds))], V("X"))
		var body []datalog.Atom
		// Guarantee safety: first atom mentions X.
		switch rng.Intn(3) {
		case 0:
			body = append(body, At(unaryEDB[rng.Intn(len(unaryEDB))], V("X")))
		case 1:
			body = append(body, At(binEDB[rng.Intn(len(binEDB))], V("X"), V(vars[rng.Intn(2)+1])))
		default:
			body = append(body, At(preds[rng.Intn(len(preds))], V("X")))
		}
		for extra := rng.Intn(3); extra > 0; extra-- {
			v := vars[rng.Intn(len(vars))]
			switch rng.Intn(3) {
			case 0:
				body = append(body, At(unaryEDB[rng.Intn(len(unaryEDB))], V(v)))
			case 1:
				body = append(body, At(binEDB[rng.Intn(len(binEDB))], V(v), V(vars[rng.Intn(len(vars))])))
			default:
				body = append(body, At(preds[rng.Intn(len(preds))], V(v)))
			}
		}
		// Drop rules left unsafe by free head variables elsewhere (the
		// head variable is always bound by construction).
		rule := R(head, body...)
		if rule.IsSafe() {
			p.Add(rule)
		}
	}
	if len(p.Rules) == 0 {
		p.Add(R(At("p0", V("X")), At("root", V("X"))))
	}
	return p
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]Level{"0": O0, "O0": O0, "1": O1, "O1": O1} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("2"); err == nil {
		t.Error("ParseLevel(2) should fail")
	}
	if O1.String() != "O1" || O0.String() != "O0" {
		t.Error("Level.String mismatch")
	}
	if fmt.Sprint(Level(9)) == "" {
		t.Error("unknown level must still print")
	}
}
