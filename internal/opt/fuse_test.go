package opt

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdlog/internal/caterpillar"
	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/tmnf"
	"mdlog/internal/tree"
	"mdlog/internal/xpath"
)

func parseTree(s string) (*tree.Tree, error) { return tree.Parse(s) }

// fuseTestDB materializes the full extensional vocabulary for the
// reference naive engine.
func fuseTestDB(t *tree.Tree) *datalog.Database {
	return eval.TreeDB(t, eval.WithChild(), eval.WithLastChild(), eval.WithFirstSibling(), eval.WithDom())
}

func parse(t *testing.T, src string) *datalog.Program {
	t.Helper()
	p, err := datalog.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFuseDisjointNamespaces: two members defining the same predicate
// names must not interfere after apex renaming.
func TestFuseDisjointNamespaces(t *testing.T) {
	a := parse(t, `q(X) :- label_a(X). ?- q.`)
	b := parse(t, `q(X) :- label_b(X). ?- q.`)
	fused, _, rep := Fuse([]FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"q"}},
		{Prefix: "s1__", Program: b, Visible: []string{"q"}},
	})
	if rep.RulesIn != 2 || rep.RulesOut != 2 || rep.MergedPreds != 0 {
		t.Fatalf("report: %+v", rep)
	}
	text := fused.String()
	if !strings.Contains(text, "s0__q(X) :- label_a(X).") ||
		!strings.Contains(text, "s1__q(X) :- label_b(X).") {
		t.Fatalf("fused program:\n%s", text)
	}
}

// TestFuseUnknownPredsRenamed: a member's unruled (never-true) helper
// must not capture another member's defined predicate of the same
// name.
func TestFuseUnknownPredsRenamed(t *testing.T) {
	a := parse(t, `q(X) :- label_a(X), helper(X). ?- q.`)
	b := parse(t, `helper(X) :- label_b(X). q(X) :- helper(X). ?- q.`)
	fused, _, _ := Fuse([]FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"q"}},
		{Prefix: "s1__", Program: b, Visible: []string{"q", "helper"}},
	})
	for _, r := range fused.Rules {
		for _, at := range r.Body {
			if at.Pred == "helper" || at.Pred == "s1__helper" && r.Head.Pred == "s0__q" {
				t.Fatalf("member 0's unruled helper captured member 1's: %s", r)
			}
		}
	}
}

// TestFuseSharedAuxMerged: identical auxiliary chains across members
// collapse to one, bottom-up, however long.
func TestFuseSharedAuxMerged(t *testing.T) {
	src := `
aux1(X) :- firstchild(Y,X), label_a(Y).
aux2(X) :- firstchild(X,Y), aux1(Y).
q(X)    :- aux2(X), label_b(X).
?- q.`
	a, b := parse(t, src), parse(t, src)
	fused, aliases, rep := Fuse([]FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"q"}},
		{Prefix: "s1__", Program: b, Visible: []string{"q"}},
	})
	// Both aux chains merge; the duplicate protected q is recorded as
	// an alias of the survivor. 6 rules in → aux1, aux2, one q
	// definition = 3 rules out.
	if rep.RulesOut != 3 {
		t.Fatalf("RulesOut = %d, want 3\n%s\nreport %+v", rep.RulesOut, fused, rep)
	}
	if rep.MergedPreds != 3 {
		t.Fatalf("MergedPreds = %d, want 3 (aux1, aux2, q)", rep.MergedPreds)
	}
	if aliases["s1__q"] != "s0__q" {
		t.Fatalf("aliases = %v, want s1__q -> s0__q", aliases)
	}
}

// TestFuseRecursiveTwins: directly-recursive predicates with identical
// definitions merge.
func TestFuseRecursiveTwins(t *testing.T) {
	src := `
reach(X) :- root(X).
reach(X) :- reach(Y), firstchild(Y,X).
reach(X) :- reach(Y), nextsibling(Y,X).
q(X) :- reach(X), label_a(X).
?- q.`
	a, b := parse(t, src), parse(t, src)
	_, aliases, rep := Fuse([]FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"q"}},
		{Prefix: "s1__", Program: b, Visible: []string{"q"}},
	})
	// reach merges (recursive twin), q aliases: 8 in, reach(3) + q = 4
	// out.
	if rep.RulesOut != 4 || rep.MergedPreds != 2 {
		t.Fatalf("report: %+v", rep)
	}
	if aliases["s1__q"] != "s0__q" {
		t.Fatalf("aliases = %v", aliases)
	}
}

// compiledQuery runs a program through the compile pipeline's tail:
// TMNF normalization, then the optimizer with q as the only root.
func compiledQuery(t *testing.T, p *datalog.Program) *datalog.Program {
	t.Helper()
	tp, err := tmnf.Transform(p)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := Optimize(tp, Options{Level: O1, Roots: []string{"q"}})
	return out
}

// TestFuseMutuallyRecursiveTwins: closures that differ only in their
// predicate names, rule order and variable names merge even when they
// recurse through each other, which no bottom-up merge from singletons
// can show. The hand-written pair is the descendant closure spelled
// twice; the compiled pair is the caterpillar child* and the XPath //
// axis, which both translations emit. Every member still answers like
// its unfused self.
func TestFuseMutuallyRecursiveTwins(t *testing.T) {
	xp, err := xpath.Parse("//td[b]")
	if err != nil {
		t.Fatal(err)
	}
	xprog, err := xpath.ToDatalog(xp, "q")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := caterpillar.Parse("child*.label_td.child.label_b.(child^-1).label_td")
	if err != nil {
		t.Fatal(err)
	}
	// rootRules counts the rules seeding a closure at the root.
	rootRules := func(p *datalog.Program) int {
		n := 0
		for _, r := range p.Rules {
			if len(r.Body) == 1 && r.Body[0].Pred == "root" {
				n++
			}
		}
		return n
	}
	cases := []struct {
		name  string
		a, b  *datalog.Program
		check func(t *testing.T, fused *datalog.Program, aliases map[string]string)
	}{
		{
			name: "hand-written",
			a: parse(t, `
desc(X) :- root(X).
sib(X) :- desc(Y), firstchild(Y,X).
sib(X) :- sib(Y), nextsibling(Y,X).
desc(X) :- sib(X).
q(X) :- desc(X), label_td(X).
?- q.`),
			b: parse(t, `
q(U) :- label_td(U), d(U).
e(U) :- e(W), nextsibling(W,U).
d(U) :- e(U).
e(U) :- d(W), firstchild(W,U).
d(U) :- root(U).
?- q.`),
			check: func(t *testing.T, fused *datalog.Program, aliases map[string]string) {
				for _, r := range fused.Rules {
					if strings.HasPrefix(r.Head.Pred, "s1__") {
						t.Errorf("twin member still owns %s", r)
					}
				}
				if aliases["s1__q"] != "s0__q" {
					t.Errorf("aliases = %v, want s1__q -> s0__q", aliases)
				}
			},
		},
		{
			name: "child* vs //td[b]",
			a:    compiledQuery(t, xprog),
			b:    compiledQuery(t, caterpillar.QueryProgram(cat, "q")),
			check: func(t *testing.T, fused *datalog.Program, _ map[string]string) {
				if n := rootRules(fused); n != 1 {
					t.Errorf("fused program seeds %d closures at the root, want 1:\n%s", n, fused)
				}
			},
		},
	}
	trees := []string{
		"html(body(table(tr(td(b),td(i)),tr(td(b(b)),td))))",
		"td(b,td(b),a(td(c),td(b)))",
		"a",
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			members := []FuseMember{
				{Prefix: "s0__", Program: tc.a, Visible: []string{"q"}},
				{Prefix: "s1__", Program: tc.b, Visible: []string{"q"}},
			}
			if err := DiffFuseReference(members); err != nil {
				t.Fatal(err)
			}
			fused, aliases, rep := Fuse(members)
			if rep.MergedPreds < 2 {
				t.Errorf("closures did not merge, report %+v\n%s", rep, fused)
			}
			tc.check(t, fused, aliases)
			for _, src := range trees {
				tr, err := parseTree(src)
				if err != nil {
					t.Fatal(err)
				}
				all, err := datalog.NaiveEval(fused, fuseTestDB(tr))
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range members {
					alone, err := datalog.NaiveEval(m.Program, fuseTestDB(tr))
					if err != nil {
						t.Fatal(err)
					}
					pred := m.Prefix + "q"
					if tgt, ok := aliases[pred]; ok {
						pred = tgt
					}
					if got, want := all.UnarySet(pred), alone.UnarySet("q"); !slices.Equal(got, want) {
						t.Errorf("%s on %s: fused %v, alone %v", m.Prefix, src, got, want)
					}
				}
			}
		})
	}
}

// TestFuseDistinctDefsKeptApart: predicates with different definitions
// never merge, even when structurally close.
func TestFuseDistinctDefsKeptApart(t *testing.T) {
	a := parse(t, `aux(X) :- firstchild(X,Y), label_a(Y). q(X) :- aux(X). ?- q.`)
	b := parse(t, `aux(X) :- firstchild(X,Y), label_b(Y). q(X) :- aux(X). ?- q.`)
	fused, _, rep := Fuse([]FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"q"}},
		{Prefix: "s1__", Program: b, Visible: []string{"q"}},
	})
	if rep.MergedPreds != 0 || rep.RulesOut != 4 {
		t.Fatalf("spurious merge: %+v\n%s", rep, fused)
	}
}

// TestFusePropositionalAlias: 0-ary protected predicates alias with a
// propositional rule.
func TestFusePropositionalAlias(t *testing.T) {
	src := `
seen :- root(X), label_a(X).
q(X) :- seen, label_b(X).
?- q.`
	a, b := parse(t, src), parse(t, src)
	_, aliases, _ := Fuse([]FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"q", "seen"}},
		{Prefix: "s1__", Program: b, Visible: []string{"q", "seen"}},
	})
	if aliases["s1__seen"] != "s0__seen" || aliases["s1__q"] != "s0__q" {
		t.Fatalf("aliases = %v", aliases)
	}
}

// TestFuseSemanticsPreserved: the fused program computes, per member,
// exactly the member's own least model on a real tree.
func TestFuseSemanticsPreserved(t *testing.T) {
	srcs := []string{
		`q(X) :- label_b(X), firstchild(Y,X). ?- q.`,
		`aux(X) :- firstchild(X,Y), label_b(Y). q(X) :- aux(X). ?- q.`,
		`q(X) :- label_b(X), firstchild(Y,X). ?- q.`, // duplicate of member 0
	}
	var members []FuseMember
	progs := make([]*datalog.Program, len(srcs))
	for i, src := range srcs {
		progs[i] = parse(t, src)
		members = append(members, FuseMember{
			Prefix:  []string{"s0__", "s1__", "s2__"}[i],
			Program: progs[i],
			Visible: []string{"q"},
		})
	}
	fused, aliases, _ := Fuse(members)
	tr, err := parseTree("a(b(b),c(b))")
	if err != nil {
		t.Fatal(err)
	}
	fullDB, err := datalog.NaiveEval(fused, fuseTestDB(tr))
	if err != nil {
		t.Fatal(err)
	}
	for i, prog := range progs {
		want, err := datalog.NaiveEval(prog, fuseTestDB(tr))
		if err != nil {
			t.Fatal(err)
		}
		pred := members[i].Prefix + "q"
		if target, ok := aliases[pred]; ok {
			pred = target
		}
		got := fullDB.UnarySet(pred)
		if len(got) != len(want.UnarySet("q")) {
			t.Fatalf("member %d: fused %v, individual %v", i, got, want.UnarySet("q"))
		}
		for j, id := range got {
			if want.UnarySet("q")[j] != id {
				t.Fatalf("member %d: fused %v, individual %v", i, got, want.UnarySet("q"))
			}
		}
	}
}

// TestFuseSubsumeMergesEquivalentVisible: member 1's visible predicate
// is a semantically equal, syntactically different restatement of
// member 0's; subsumption must serve it by alias with zero rules.
func TestFuseSubsumeMergesEquivalentVisible(t *testing.T) {
	a := parse(t, `q(X) :- firstchild(X,Y), label_a(Y). ?- q.`)
	// Duplicated fragment + defensive dom: not α-equal, not caught by
	// dedup or O1, but UCQ-equal after normalization + minimization.
	b := parse(t, `q(X) :- dom(X), firstchild(X,Z), label_a(Z), firstchild(X,W), label_a(W). ?- q.`)
	members := []FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"q"}},
		{Prefix: "s1__", Program: b, Visible: []string{"q"}},
	}
	fused, aliases, rep := Fuse(members)
	if rep.SubsumedPreds != 1 {
		t.Fatalf("expected one subsumed predicate, report: %+v", rep)
	}
	if rep.SubsumeChecked < 2 {
		t.Fatalf("expected both visible preds checked, report: %+v", rep)
	}
	if rep.CheckNs <= 0 {
		t.Fatalf("checker time not recorded: %+v", rep)
	}
	// The subsumed member must have no surviving rules.
	for _, r := range fused.Rules {
		if strings.HasPrefix(r.Head.Pred, "s1__") {
			t.Fatalf("subsumed member still owns rules: %s", r)
		}
	}
	if aliases["s1__q"] != "s0__q" {
		t.Fatalf("alias map: %v", aliases)
	}
	// And projection through the alias answers correctly.
	tr, err := parseTree("a(a(b),b(a),a)")
	if err != nil {
		t.Fatal(err)
	}
	fullDB, err := datalog.NaiveEval(fused, fuseTestDB(tr))
	if err != nil {
		t.Fatal(err)
	}
	want, err := datalog.NaiveEval(b, fuseTestDB(tr))
	if err != nil {
		t.Fatal(err)
	}
	got := fullDB.UnarySet("s0__q")
	exp := want.UnarySet("q")
	if len(got) != len(exp) {
		t.Fatalf("projection mismatch: fused %v, individual %v", got, exp)
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("projection mismatch: fused %v, individual %v", got, exp)
		}
	}
}

// TestFuseSubsumeRefusesProperContainment: one-way containment must
// NOT merge — a proper subset cannot be served from the superset.
func TestFuseSubsumeRefusesProperContainment(t *testing.T) {
	a := parse(t, `q(X) :- leaf(X). ?- q.`)
	b := parse(t, `q(X) :- leaf(X), label_a(X). ?- q.`)
	fused, aliases, rep := Fuse([]FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"q"}},
		{Prefix: "s1__", Program: b, Visible: []string{"q"}},
	})
	if rep.SubsumedPreds != 0 {
		t.Fatalf("proper containment wrongly merged: %+v", rep)
	}
	if len(aliases) != 0 {
		t.Fatalf("unexpected aliases: %v", aliases)
	}
	owned := map[string]bool{}
	for _, r := range fused.Rules {
		owned[r.Head.Pred] = true
	}
	if !owned["s0__q"] || !owned["s1__q"] {
		t.Fatalf("both members must keep their rules:\n%s", fused)
	}
}

// TestFuseSubsumeRecursiveFallsBack: recursive visible predicates are
// Unknown to the checker and must be left alone (and counted).
func TestFuseSubsumeRecursiveFallsBack(t *testing.T) {
	rec := `
reach(X) :- root(X).
reach(X) :- reach(Y), firstchild(Y,X).
reach(X) :- reach(Y), nextsibling(Y,X).
?- reach.
`
	a := parse(t, rec)
	b := parse(t, rec)
	fused, aliases, rep := Fuse([]FuseMember{
		{Prefix: "s0__", Program: a, Visible: []string{"reach"}},
		{Prefix: "s1__", Program: b, Visible: []string{"reach"}},
	})
	// α-equal twins merge in dedupShared before subsumption ever runs;
	// the surviving single definition is recursive, so the checker
	// reports it Unknown and changes nothing.
	if rep.SubsumedPreds != 0 || rep.SubsumeUnknown == 0 {
		t.Fatalf("report: %+v", rep)
	}
	if aliases["s1__reach"] != "s0__reach" {
		t.Fatalf("dedup alias missing: %v", aliases)
	}
	if len(fused.Rules) != 3 {
		t.Fatalf("fused program:\n%s", fused)
	}
}

// nearDuplicateWrapper builds variant v of base shape s: variant 0 is
// the base rule itself; higher variants pad the body with a dom atom
// and duplicated base atoms whose non-head variables are renamed fresh
// — equivalent by construction (a conjunct implied by an existing one
// changes nothing), yet distinct enough that α-dedup cannot merge
// them. Only the containment checker's unfold→minimize normal form
// collapses the class.
func nearDuplicateWrapper(s, v int) string {
	bases := [][]string{
		{"firstchild(X,Y)", "label_td(Y)"},
		{"label_td(X)", "firstchild(X,Y)", "label_b(Y)"},
		{"label_tr(X)", "firstchild(X,Y)", "nextsibling(Y,Z)", "label_td(Z)"},
		{"nextsibling(X,Y)", "label_td(Y)", "firstchild(Y,Z)"},
	}
	base := bases[s%len(bases)]
	body := slices.Clone(base)
	// The digits of v in base 6 are per-atom duplicate counts: every v
	// yields an α-distinct body that stays within the checker's atom
	// budget.
	for j, atom := range base {
		copies := v % 6
		v /= 6
		for m := 0; m < copies; m++ {
			dup := strings.NewReplacer("Y", fmt.Sprintf("Y%d%d", j, m), "Z", fmt.Sprintf("Z%d%d", j, m)).Replace(atom)
			body = append(body, dup)
		}
	}
	if len(body) > len(base) {
		body = append(body, "dom(X)")
	}
	return "q(X) :- " + strings.Join(body, ", ") + ". ?- q."
}

// nearDuplicateFleet is an n-member fleet of near-duplicate wrappers.
// The shape rotates fastest, so every fleet of four or more covers all
// four base shapes.
func nearDuplicateFleet(n int) []FuseMember {
	members := make([]FuseMember, n)
	for i := range members {
		p := datalog.MustParseProgram(nearDuplicateWrapper(i%4, i/4))
		members[i] = FuseMember{Prefix: fmt.Sprintf("s%d__", i), Program: p, Visible: []string{p.Query}}
	}
	return members
}

// TestFuseSubsumeNearDuplicateFleet: on fleets of 8 and 32
// near-duplicate wrappers the checker decides every visible predicate
// (Checked = N, Unknown = 0) and leaves exactly one evaluated member
// per base shape; every member of the fused plan answers like the
// member evaluated alone, on every document.
func TestFuseSubsumeNearDuplicateFleet(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	trees := make([]*tree.Tree, 2)
	for i := range trees {
		trees[i] = html.Parse(html.ProductListing(rng, 50))
	}
	for _, n := range []int{8, 32} {
		members := nearDuplicateFleet(n)
		fused, aliases, rep := Fuse(members)
		if rep.SubsumeUnknown != 0 || rep.SubsumeChecked != n {
			t.Errorf("N=%d: checked %d, unknown %d; want %d, 0", n, rep.SubsumeChecked, rep.SubsumeUnknown, n)
		}
		fms := make([]eval.FusedMember, n)
		for i, m := range members {
			pred := m.Prefix + m.Program.Query
			if tgt, ok := aliases[pred]; ok {
				pred = tgt
			}
			fms[i] = eval.FusedMember{Name: fmt.Sprintf("w%d", i), Project: map[string]string{m.Program.Query: pred}}
		}
		full, err := eval.NewFusedPlan(fused, fms, eval.EngineLinear)
		if err != nil {
			t.Fatal(err)
		}
		evaluated := 0
		for _, m := range members {
			for _, r := range fused.Rules {
				if strings.HasPrefix(r.Head.Pred, m.Prefix) {
					evaluated++
					break
				}
			}
		}
		if evaluated != 4 {
			t.Errorf("N=%d: %d members own rules, want 4 (one per base shape)", n, evaluated)
		}
		for d, tr := range trees {
			fdb, err := full.Run(eval.NewNav(tr), nil)
			if err != nil {
				t.Fatal(err)
			}
			views := full.Split(fdb)
			for i, m := range members {
				alone, err := eval.EvalOnTree(m.Program, tr, eval.EngineLinear)
				if err != nil {
					t.Fatal(err)
				}
				if a, f := alone.UnarySet("q"), views[i].UnarySet("q"); !slices.Equal(a, f) {
					t.Errorf("N=%d doc %d w%d: alone %v, fused %v", n, d, i, a, f)
				}
			}
		}
	}
}

// TestFuseMatchesReference: the integer-keyed dedup and the per-member
// signatures fuse the churn-style near-duplicate fleets exactly like
// the string-keyed reference, whether the members carry memos or not;
// a second Fuse over filled memos unfolds nothing and fuses the same.
// The near-duplicates lead with a twin whose atoms of one predicate
// come in another order under other variable names, which only the
// argument-text order within a token group lets dedup merge.
func TestFuseMatchesReference(t *testing.T) {
	twin := datalog.MustParseProgram(`q(U) :- label_b(V), firstchild(V,W), label_a(W), firstchild(U,V). ?- q.`)
	orig := datalog.MustParseProgram(`q(X) :- firstchild(X,Y), firstchild(Y,Z), label_a(Z), label_b(Y). ?- q.`)
	twins := []FuseMember{
		{Prefix: "s0__", Program: orig, Visible: []string{"q"}},
		{Prefix: "s1__", Program: twin, Visible: []string{"q"}},
	}
	if _, aliases, rep := Fuse(twins); rep.MergedPreds != 1 || aliases["s1__q"] != "s0__q" {
		t.Fatalf("reordered twins did not merge in dedup: %+v, aliases %v", rep, aliases)
	}
	for _, n := range []int{4, 8, 24, 32} {
		members := append(slices.Clone(twins), nearDuplicateFleet(n)...)
		for i := range members {
			members[i].Prefix = fmt.Sprintf("s%d__", i)
		}
		if err := DiffFuseReference(members); err != nil {
			t.Fatalf("N=%d without memos: %v", n, err)
		}
		for i := range members {
			members[i].Signatures = &Signatures{}
		}
		if err := DiffFuseReference(members); err != nil {
			t.Fatalf("N=%d with fresh memos: %v", n, err)
		}
		want, wantAliases, wantRep := FuseReference(members)
		got, gotAliases, gotRep := Fuse(members)
		if gotRep.Unfolded != 0 {
			t.Errorf("N=%d: a rebuild over filled memos unfolded %d members", n, gotRep.Unfolded)
		}
		gotRep.Unfolded, gotRep.CheckNs, wantRep.Unfolded, wantRep.CheckNs = 0, 0, 0, 0
		if got.String() != want.String() || !maps.Equal(gotAliases, wantAliases) || gotRep != wantRep {
			t.Errorf("N=%d: rebuild over filled memos differs from the reference: %+v vs %+v", n, gotRep, wantRep)
		}
	}
}
