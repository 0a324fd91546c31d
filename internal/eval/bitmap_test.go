package eval

import (
	"math/rand"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// bitmapVsLinear evaluates p on tr with both grounding engines and
// fails on any visible difference.
func bitmapVsLinear(t *testing.T, p *datalog.Program, tr *tree.Tree, what string) {
	t.Helper()
	want, err := LinearTree(p, tr)
	if err != nil {
		t.Fatalf("%s: linear: %v", what, err)
	}
	got, err := BitmapTree(p, tr)
	if err != nil {
		t.Fatalf("%s: bitmap: %v", what, err)
	}
	if diff := SameResults(want, got, p.IntensionalPreds()); diff != "" {
		t.Fatalf("%s: bitmap differs from linear on %s (tree %s)", what, diff, tr)
	}
}

func TestBitmapMatchesLinearHandPicked(t *testing.T) {
	programs := map[string]string{
		// Non-recursive select with a gather step and label tests.
		"select": `
q(X) :- label_a(X), firstchild(X,Y), label_b(Y).
?- q.`,
		// Downward recursion (firstchild/nextsibling closure).
		"mark-down": `
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
q(X) :- m(X), label_b(X).
?- q.`,
		// Upward recursion through inverse steps.
		"mark-up": `
u(X) :- leaf(X), label_a(X).
u(X) :- firstchild(X,Y), u(Y).
u(X) :- nextsibling(X,Y), u(Y).
?- u.`,
		// Propositional helpers: disconnected body components split by
		// SplitConnected into conn_* prop rules.
		"disconnected": `
q(X) :- label_a(X), label_b(Y), firstchild(Y,Z).
?- q.`,
		// Mutual recursion plus lastchild and node classes.
		"mutual": `
p(X) :- lastsibling(X), label_b(X).
r(Y) :- p(X), lastchild(Y,X).
p(Y) :- r(X), firstchild(X,Y).
?- p.`,
		// Non-spanning-tree check atom (a cycle in the query graph).
		"cycle-check": `
q(X) :- firstchild(X,Y), nextsibling(Y,Z), firstchild(X,W), nextsibling(W,Z).
?- q.`,
		// child_2 of the ranked signature.
		"child-k": `
q(X) :- child_2(Y,X), label_a(Y).
?- q.`,
	}
	trees := []string{
		"a",
		"b",
		"a(b)",
		"b(a,b(a,a),c(a,b))",
		"c(a(a(a)),b,a)",
		"a(b(c,a,b),b(a),a(a,b,c,a))",
	}
	for name, src := range programs {
		p := datalog.MustParseProgram(src)
		for _, ts := range trees {
			bitmapVsLinear(t, p, tree.MustParse(ts), name+" on "+ts)
		}
	}
}

func TestBitmapMatchesLinearRandomTrees(t *testing.T) {
	p := datalog.MustParseProgram(`
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
deep(X) :- m(X), leaf(X), lastsibling(X).
q(X) :- deep(X), label_a(X).
?- q.`)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		tr := tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b", "c"}, Size: 1 + rng.Intn(80), MaxChildren: 5})
		bitmapVsLinear(t, p, tr, "random tree")
	}
}

// TestBitmapWordBoundaries pins the domain sizes where tail-masking
// bugs would hide: chains and flats of 63, 64 and 65 nodes.
func TestBitmapWordBoundaries(t *testing.T) {
	p := datalog.MustParseProgram(`
m(X) :- root(X).
m(Y) :- m(X), firstchild(X,Y).
m(Y) :- m(X), nextsibling(X,Y).
?- m.`)
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129} {
		bitmapVsLinear(t, p, tree.Chain(n, "a"), "chain")
		bitmapVsLinear(t, p, tree.Flat(n, "a"), "flat")
	}
	// Every node must be marked on both shapes — a direct check on top
	// of the differential one.
	for _, n := range []int{63, 64, 65} {
		res, err := BitmapTree(p, tree.Chain(n, "a"))
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.UnarySet("m")); got != n {
			t.Fatalf("chain(%d): marked %d nodes", n, got)
		}
	}
}

func TestBitmapPlanReusableAcrossDocuments(t *testing.T) {
	p := datalog.MustParseProgram(`
q(X) :- label_a(X), firstchild(X,Y), label_b(Y).
?- q.`)
	bp, err := NewBitmapPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if bp.Program() != p || bp.QueryPred() != "q" {
		t.Fatalf("accessors: program %v pred %q", bp.Program() == p, bp.QueryPred())
	}
	for _, ts := range []string{"a(b)", "b(a(b),a(c))", "a"} {
		tr := tree.MustParse(ts)
		got, err := bp.Run(NewNav(tr), nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := LinearTree(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		if diff := SameResults(want, got, p.IntensionalPreds()); diff != "" {
			t.Fatalf("reuse on %s: %s", ts, diff)
		}
	}
}

func TestBitmapRejectsNonLinearFragment(t *testing.T) {
	p := datalog.MustParseProgram(`
q(X) :- child(X,Y), label_b(Y).
?- q.`)
	if _, err := NewBitmapPlan(p); err == nil {
		t.Fatalf("child/2 accepted; want the Theorem 5.2 guidance error")
	}
}

// The root-recursive crawl wrappers as they reach the engine, after
// the TMNF rewrite and the optimizer: XPath //td[b] and caterpillar
// child*.label_td.child.label_b.(child^-1).label_td. Both close the
// descendant axis over firstchild/nextsibling, so a wide node's
// children join the extension one semi-naive round at a time.
const (
	xpathTdB = `
xp_ax2(X) :- root(X).
tm_8_s0(X) :- xp_ax2(X_I0), firstchild(X_I0,X).
tm_8_s0(X) :- tm_8_s0(X0_I18), nextsibling(X0_I18,X).
xp_ax2(Y) :- tm_8_s0(Y).
tm_10_s0(X) :- xp_ax2(X_I6), firstchild(X_I6,X).
tm_10_s0(X) :- tm_10_s0(X0_I14), nextsibling(X0_I14,X).
tm_12_s0(X) :- label_b(X).
tm_12_s0(X) :- tm_12_s0(X0_I16), nextsibling(X,X0_I16).
q(X) :- tm_10_s0(X), label_td(X), tm_12_s0(TMNF_Y0_I8_I20), firstchild(X,TMNF_Y0_I8_I20).
?- q.`
	caterpillarTdB = `
q_s0(X) :- root(X).
q_s4(X) :- q_s0(X0_I22), firstchild(X0_I22,X).
q_s0(X) :- q_s4(X).
q_s4(X) :- q_s4(X0_I23), nextsibling(X0_I23,X).
q_s12(X) :- q_s0(X0_I24), label_td(X0_I24), firstchild(X0_I24,X).
q_s12(X) :- q_s12(X0_I25), nextsibling(X0_I25,X).
q_s18(X) :- q_s12(X), label_b(X).
q_s18(X) :- q_s18(X0_I26), nextsibling(X,X0_I26).
q(X) :- q_s18(X0_I28), firstchild(X,X0_I28), label_td(X).
?- q.`
)

// wideTable is a root with n td(b) children: one sibling list of n,
// the shape on which descendant recursion needs Θ(n) rounds.
func wideTable(n int) *tree.Tree {
	root := tree.New("tr")
	for i := 0; i < n; i++ {
		root.Add(tree.New("td", tree.New("b")))
	}
	return tree.NewTree(root)
}

// TestBitmapWorkLinearInDom pins the O(|Δ|) round: on a sibling list
// 64× longer, descendant recursion runs 64× more rounds of one node
// each, and the run's work counter (delta elements visited plus words
// swept by whole-domain passes) may grow with the node count but not
// with nodes × rounds. Per-round domain scans would make it quadratic.
func TestBitmapWorkLinearInDom(t *testing.T) {
	for name, src := range map[string]string{"xpath": xpathTdB, "caterpillar": caterpillarTdB} {
		bp, err := NewBitmapPlan(datalog.MustParseProgram(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		work := func(children int) (work, dom int) {
			nav := NewNav(wideTable(children))
			st := bp.acquire(nav)
			st.evalAll()
			if got := st.unary[bp.pl.unaryID["q"]].Count(); got != children {
				t.Fatalf("%s on %d children: q selects %d nodes, want %d", name, children, got, children)
			}
			work = st.work
			bp.release(st)
			return work, nav.Dom()
		}
		smallWork, smallDom := work(1000)
		largeWork, largeDom := work(64000)
		growth := float64(largeWork) / float64(smallWork)
		nodeRatio := float64(largeDom) / float64(smallDom)
		t.Logf("%s: work %d → %d (%.1f×) for %.1f× the nodes", name, smallWork, largeWork, growth, nodeRatio)
		if growth > 1.2*nodeRatio {
			t.Errorf("%s: work grew %.1f× (%d → %d) for %.1f× the nodes; want at most %.1f×",
				name, growth, smallWork, largeWork, nodeRatio, 1.2*nodeRatio)
		}
	}
}
