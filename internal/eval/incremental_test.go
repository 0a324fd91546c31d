package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// incrementalPrograms covers the delta-maintainable fragment: label
// tests, every node class, every binary relation (including a child_k
// and a non-spanning-tree check atom), downward and upward recursion —
// plus one disconnected program that must take the fallback path.
var incrementalPrograms = []struct {
	name     string
	src      string
	fallback bool
}{
	{"descendant", `
		q(X) :- label_a(X).
		q(X) :- firstchild(Y, X), q(Y).
		q(X) :- nextsibling(Y, X), q(Y).
		?- q.`, false},
	{"classes-childk", `
		q(X) :- child_2(Y, X), label_b(Y).
		q(X) :- leaf(X), lastsibling(X).
		q(X) :- firstsibling(X), label_c(X).
		?- q.`, false},
	{"upward", `
		p(X) :- lastchild(X, Y), label_c(Y).
		p(X) :- firstchild(X, Y), p(Y).
		q(X) :- p(X), firstsibling(X).
		?- q.`, false},
	{"check-edge", `
		q(X) :- firstchild(X, Y), nextsibling(Y, Z), lastchild(X, Z).
		q(X) :- root(X), leaf(X).
		?- q.`, false},
	{"disconnected-fallback", `
		q(X) :- label_a(X), label_b(Y), leaf(Y).
		?- q.`, true},
}

// headPreds returns the program's IDB predicates, the relations the
// oracles compare.
func headPreds(p *datalog.Program) []string {
	seen := map[string]bool{}
	var preds []string
	for _, r := range p.Rules {
		if len(r.Head.Args) == 1 && !seen[r.Head.Pred] {
			seen[r.Head.Pred] = true
			preds = append(preds, r.Head.Pred)
		}
	}
	return preds
}

// TestIncrementalEval mutates random documents step by step and checks
// the maintained model after every delta against three oracles: a full
// linear-engine run and a full bitmap-engine run over the mutated
// arena (dead-aware evaluation), and a from-scratch run over the
// canonical re-parsed live tree, mapped back to arena ids through the
// live preorder.
func TestIncrementalEval(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	labels := []string{"a", "b", "c"}
	for _, tc := range incrementalPrograms {
		t.Run(tc.name, func(t *testing.T) {
			prog := datalog.MustParseProgram(tc.src)
			pl, err := NewPlan(prog)
			if err != nil {
				t.Fatal(err)
			}
			preds := headPreds(prog)
			for trial := 0; trial < 6; trial++ {
				tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 40 + rng.Intn(80), MaxChildren: 5})
				a := tr.Arena()
				inc := pl.NewIncState(a)
				if inc.Fallback() != tc.fallback {
					t.Fatalf("fallback = %v, want %v", inc.Fallback(), tc.fallback)
				}
				for step := 0; step < 12; step++ {
					d := a.NewDelta()
					for op := 0; op < 1+rng.Intn(3); op++ {
						randomEdit(t, rng, a, d, labels)
					}
					if err := inc.Apply(d); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					got, err := inc.Database(preds)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					full, err := pl.Run(NavOf(a), nil)
					if err != nil {
						t.Fatal(err)
					}
					if diff := SameResults(got, full, preds); diff != "" {
						t.Fatalf("%s trial %d step %d: incremental vs full linear: %s", tc.name, trial, step, diff)
					}
					fullBm, err := bitmapOf(pl).Run(NavOf(a), nil)
					if err != nil {
						t.Fatal(err)
					}
					if diff := SameResults(got, fullBm, preds); diff != "" {
						t.Fatalf("%s trial %d step %d: incremental vs full bitmap: %s", tc.name, trial, step, diff)
					}
					checkAgainstLiveTree(t, pl, a, got, preds)
				}
			}
		})
	}
}

// randomEdit applies one random structural or text edit, recording it
// in d.
func randomEdit(t *testing.T, rng *rand.Rand, a *tree.Arena, d *tree.ArenaDelta, labels []string) {
	t.Helper()
	live := a.LivePreorder()
	switch op := rng.Intn(4); {
	case op == 0 && len(live) > 1: // remove a non-root subtree
		if err := a.RemoveSubtree(d, live[1+rng.Intn(len(live)-1)]); err != nil {
			t.Fatal(err)
		}
	case op <= 2: // insert a small subtree
		sub := tree.New(labels[rng.Intn(len(labels))])
		for i := rng.Intn(3); i > 0; i-- {
			sub.Add(tree.New(labels[rng.Intn(len(labels))]))
		}
		parent := live[rng.Intn(len(live))]
		if _, err := a.InsertSubtree(d, parent, rng.Intn(4), sub); err != nil {
			t.Fatal(err)
		}
	default: // retext (no τ_ur fact changes)
		if err := a.SetText(d, live[rng.Intn(len(live))], fmt.Sprintf("t%d", rng.Int())); err != nil {
			t.Fatal(err)
		}
	}
}

// checkAgainstLiveTree evaluates the plan from scratch on the
// canonical re-parsed live tree and compares with the incremental
// result through the preorder ↔ arena-id mapping.
func checkAgainstLiveTree(t *testing.T, pl *Plan, a *tree.Arena, got *datalog.Database, preds []string) {
	t.Helper()
	lt := a.LiveTree()
	ref, err := pl.Run(NewNav(lt), nil)
	if err != nil {
		t.Fatal(err)
	}
	pre := a.LivePreorder() // preorder position -> arena id
	for _, pred := range preds {
		refSet := ref.UnarySet(pred)
		want := make(map[int]bool, len(refSet))
		for _, i := range refSet {
			want[int(pre[i])] = true
		}
		gotSet := got.UnarySet(pred)
		if len(gotSet) != len(want) {
			t.Fatalf("%s: live-tree oracle has %d facts, incremental %d (%v vs %v via %v)", pred, len(want), len(gotSet), refSet, gotSet, pre)
		}
		for _, v := range gotSet {
			if !want[v] {
				t.Fatalf("%s: incremental fact at arena id %d not justified by live-tree oracle", pred, v)
			}
		}
	}
}

// TestIncStateBehind ensures a skipped delta is detected rather than
// served stale.
func TestIncStateBehind(t *testing.T) {
	a := tree.MustParse("a(b(c),d)").Arena()
	prog := datalog.MustParseProgram(`q(X) :- leaf(X). ?- q.`)
	pl, err := NewPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	inc := pl.NewIncState(a)
	if _, err := inc.Database([]string{"q"}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.InsertSubtree(a.NewDelta(), 0, 0, tree.New("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Database([]string{"q"}); err == nil {
		t.Fatal("Database served a stale generation without error")
	}
}

// TestIncStateComposedWindows applies several edits as one composed
// window and as separate windows, expecting identical models.
func TestIncStateComposedWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	prog := datalog.MustParseProgram(`
		q(X) :- label_a(X).
		q(X) :- firstchild(Y, X), q(Y).
		q(X) :- nextsibling(Y, X), q(Y).
		?- q.`)
	pl, err := NewPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"a", "b"}
	for trial := 0; trial < 10; trial++ {
		tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 30, MaxChildren: 4})
		a := tr.Arena()
		inc := pl.NewIncState(a)
		var ds []*tree.ArenaDelta
		for i := 0; i < 4; i++ {
			d := a.NewDelta()
			randomEdit(t, rng, a, d, labels)
			ds = append(ds, d)
		}
		if err := inc.Apply(tree.ComposeDeltas(ds)); err != nil {
			t.Fatal(err)
		}
		got, err := inc.Database([]string{"q"})
		if err != nil {
			t.Fatal(err)
		}
		full, err := pl.Run(NavOf(a), nil)
		if err != nil {
			t.Fatal(err)
		}
		if diff := SameResults(got, full, []string{"q"}); diff != "" {
			t.Fatalf("trial %d: composed window diverged: %s", trial, diff)
		}
	}
}

// TestIncSpliceOverdeleteWidth inserts one row into the middle of a
// 1k-row table and checks that DRed overdeletes O(1) facts: a splice
// records only the parent and the two neighboring rows, so rows after
// the insertion point keep their second_cell facts untouched.
func TestIncSpliceOverdeleteWidth(t *testing.T) {
	prog := datalog.MustParseProgram(`
		second_cell(X) :- label_tr(Y), firstchild(Y, Z), nextsibling(Z, X), label_td(X).
		?- second_cell.`)
	pl, err := NewPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	row := func() *tree.Node { return tree.New("tr", tree.New("td"), tree.New("td")) }
	table := tree.New("table")
	for i := 0; i < 1000; i++ {
		table.Add(row())
	}
	a := tree.NewTree(table).Arena()
	inc := pl.NewIncState(a)
	d := a.NewDelta()
	if _, err := a.InsertSubtree(d, 0, 500, row()); err != nil {
		t.Fatal(err)
	}
	if err := inc.Apply(d); err != nil {
		t.Fatal(err)
	}
	if od := inc.Stats().Overdeleted; od > 2 {
		t.Fatalf("one-row insert overdeleted %d second_cell facts, want at most 2 (the neighbors')", od)
	}
	got, err := inc.Database([]string{"second_cell"})
	if err != nil {
		t.Fatal(err)
	}
	if n := got.RelOrNil("second_cell").Len(); n != 1001 {
		t.Fatalf("second_cell has %d facts, want 1001", n)
	}
	checkAgainstLiveTree(t, pl, a, got, []string{"second_cell"})
}

// childKProgram binds child_1, child_2 and child_3 in both step
// directions: c_k anchors on the child and steps back to the parent
// (the PrevSibling walk), p_k anchors on the parent and steps forward;
// down and up recurse through child_2 and child_3 so DRed's worklist
// walks the same edges.
const childKProgram = `
	c1(X) :- child_1(Y, X), label_a(Y).
	c2(X) :- child_2(Y, X), label_a(Y).
	c3(X) :- child_3(Y, X), label_a(Y).
	p1(Y) :- child_1(Y, X), label_b(X).
	p2(Y) :- child_2(Y, X), label_b(X).
	p3(Y) :- child_3(Y, X), label_b(X).
	down(X) :- root(X).
	down(X) :- child_2(Y, X), down(Y).
	up(X) :- leaf(X), label_b(X).
	up(Y) :- child_3(Y, X), up(X).
	?- c2.`

// TestIncChildKSplices splices at positions 0, 1, 2, 3, the middle and
// the end of a wide sibling list — one window per edit and composed
// windows — and checks linear, bitmap and IncState against a
// from-scratch run on the re-parsed live tree.
func TestIncChildKSplices(t *testing.T) {
	prog := datalog.MustParseProgram(childKProgram)
	pl, err := NewPlan(prog)
	if err != nil {
		t.Fatal(err)
	}
	preds := headPreds(prog)
	const width = 40
	labels := []string{"a", "b"}
	wide := func(rng *rand.Rand) *tree.Arena {
		root := tree.New("a")
		for i := 0; i < width; i++ {
			c := tree.New(labels[rng.Intn(2)])
			for j := rng.Intn(4); j > 0; j-- {
				c.Add(tree.New(labels[rng.Intn(2)]))
			}
			root.Add(c)
		}
		return tree.NewTree(root).Arena()
	}
	// splice inserts at pos, or removes the child at pos, under the root.
	splice := func(rng *rand.Rand, a *tree.Arena, d *tree.ArenaDelta, pos int) {
		n := 0
		for c := a.FirstChild[0]; c != tree.NoNode; c = a.NextSibling[c] {
			n++
		}
		if pos < 0 || pos > n {
			pos = n
		}
		if rng.Intn(2) == 0 && pos < n {
			if err := a.RemoveSubtree(d, a.ChildK(0, pos+1)); err != nil {
				t.Fatal(err)
			}
			return
		}
		sub := tree.New(labels[rng.Intn(2)], tree.New("b"), tree.New("a"), tree.New("b"))
		if _, err := a.InsertSubtree(d, 0, pos, sub); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, a *tree.Arena, inc *IncState) {
		t.Helper()
		got, err := inc.Database(preds)
		if err != nil {
			t.Fatal(err)
		}
		lin, err := pl.Run(NavOf(a), nil)
		if err != nil {
			t.Fatal(err)
		}
		bm, err := bitmapOf(pl).Run(NavOf(a), nil)
		if err != nil {
			t.Fatal(err)
		}
		if diff := SameResults(got, lin, preds); diff != "" {
			t.Fatalf("%s: incremental vs linear: %s", what, diff)
		}
		if diff := SameResults(got, bm, preds); diff != "" {
			t.Fatalf("%s: incremental vs bitmap: %s", what, diff)
		}
		checkAgainstLiveTree(t, pl, a, got, preds)
	}
	positions := []int{0, 1, 2, 3, width / 2, -1} // -1: the end
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 4; trial++ {
		a := wide(rng)
		inc := pl.NewIncState(a)
		if inc.Fallback() {
			t.Fatal("child_k program took the full-re-evaluation fallback")
		}
		for _, pos := range positions {
			d := a.NewDelta()
			splice(rng, a, d, pos)
			if err := inc.Apply(d); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("trial %d single window at %d", trial, pos), a, inc)
		}

		a = wide(rng)
		inc = pl.NewIncState(a)
		for i := 0; i < 3; i++ {
			var ds []*tree.ArenaDelta
			for _, pos := range positions {
				d := a.NewDelta()
				splice(rng, a, d, pos)
				ds = append(ds, d)
			}
			rng.Shuffle(len(positions), func(i, j int) { positions[i], positions[j] = positions[j], positions[i] })
			if err := inc.Apply(tree.ComposeDeltas(ds)); err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("trial %d composed window %d", trial, i), a, inc)
		}
	}
}
