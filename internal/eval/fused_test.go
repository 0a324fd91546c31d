package eval

import (
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// TestFusedSplitShares checks Split's projection: every member sees its
// visible names bound to the fused relations themselves, a false
// propositional relation stays absent, and a split allocates the same
// for a 10-node and a 10,000-node answer.
func TestFusedSplitShares(t *testing.T) {
	prog := datalog.MustParseProgram(`
		a_q(X) :- label_td(X).
		b_q(X) :- label_td(X), leaf(X).
		a_ok :- root(X), label_td(X).
		b_ok :- root(X), label_tr(X).
		?- a_q.`)
	fp, err := NewFusedPlan(prog, []FusedMember{
		{Name: "a", Project: map[string]string{"q": "a_q", "ok": "a_ok"}},
		{Name: "b", Project: map[string]string{"q": "b_q", "ok": "b_ok"}},
		{Name: "c", Project: map[string]string{"q": "a_q"}},
	}, EngineBitmap)
	if err != nil {
		t.Fatal(err)
	}
	run := func(n int) *datalog.Database {
		full, err := fp.Run(NavOf(tree.Flat(n, "td").Arena()), nil)
		if err != nil {
			t.Fatal(err)
		}
		return full
	}

	full := run(10)
	dbs := fp.Split(full)
	if len(dbs) != 3 {
		t.Fatalf("split into %d databases, want 3", len(dbs))
	}
	for i, want := range []map[string]string{
		{"q": "a_q", "ok": "a_ok"},
		{"q": "b_q"},
		{"q": "a_q"},
	} {
		if got := dbs[i].Preds(); len(got) != len(want) {
			t.Errorf("member %d has relations %v, want the names of %v", i, got, want)
		}
		for vis, fused := range want {
			if dbs[i].RelOrNil(vis) != full.RelOrNil(fused) {
				t.Errorf("member %d: %s is not the fused relation %s", i, vis, fused)
			}
		}
	}
	if got := dbs[1].UnarySet("q"); len(got) != 9 || got[0] != 1 {
		t.Errorf("member b's q = %v, want the 9 leaves 1..9", got)
	}

	allocs := func(full *datalog.Database) float64 {
		return testing.AllocsPerRun(20, func() { fp.Split(full) })
	}
	small, large := allocs(run(10)), allocs(run(10000))
	if large != small {
		t.Errorf("Split allocated %v times for 10 nodes and %v for 10,000: it copies the answer", small, large)
	}
}
