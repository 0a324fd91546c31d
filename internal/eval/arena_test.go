package eval

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/paperex"
	"mdlog/internal/tree"
)

// referenceTreeDB materializes the full τ_ur extension by walking the
// pointer API node by node — the pre-arena implementation, kept inline
// here as an independent reference for the round-trip check.
func referenceTreeDB(t *tree.Tree, childK int) *datalog.Database {
	db := datalog.NewDatabase(t.Size())
	for _, n := range t.Nodes {
		db.Add(LabelPred(n.Label), n.ID)
		if n.IsRoot() {
			db.Add(PredRoot, n.ID)
		}
		if n.IsLeaf() {
			db.Add(PredLeaf, n.ID)
		}
		if n.IsLastSibling() {
			db.Add(PredLastSibling, n.ID)
		}
		if n.IsFirstSibling() {
			db.Add(PredFirstSibling, n.ID)
		}
		if fc := n.FirstChild(); fc != nil {
			db.Add(PredFirstChild, n.ID, fc.ID)
		}
		if ns := n.NextSibling(); ns != nil {
			db.Add(PredNextSibling, n.ID, ns.ID)
		}
		for _, c := range n.Children {
			db.Add(PredChild, n.ID, c.ID)
		}
		if lc := n.LastChild(); lc != nil {
			db.Add(PredLastChild, n.ID, lc.ID)
		}
		for k := 1; k <= childK && k <= len(n.Children); k++ {
			db.Add(ChildKPred(k), n.ID, n.Children[k-1].ID)
		}
		db.Add(PredDom, n.ID)
	}
	return db
}

// dbDiff compares two databases tuple-for-tuple over every predicate.
func dbDiff(a, b *datalog.Database) string {
	dump := func(db *datalog.Database) []string {
		var out []string
		for _, pred := range db.Preds() {
			for _, tup := range db.RelOrNil(pred).Tuples() {
				out = append(out, fmt.Sprintf("%s%v", pred, tup))
			}
		}
		sort.Strings(out)
		return out
	}
	da, dbb := dump(a), dump(b)
	if len(da) != len(dbb) {
		return fmt.Sprintf("fact counts differ: %d vs %d", len(da), len(dbb))
	}
	for i := range da {
		if da[i] != dbb[i] {
			return fmt.Sprintf("fact %d: %s vs %s", i, da[i], dbb[i])
		}
	}
	return ""
}

// TestArenaTreeDBRoundTrip checks that TreeDB over the arena columns
// produces exactly the τ_ur relations the pointer-API reference
// produces, on randomized documents of several shapes.
func TestArenaTreeDBRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trees := []*tree.Tree{
		tree.MustParse("a"),
		tree.MustParse("a(b,c(d,e),f)"),
		tree.Flat(400, "a"),
		tree.Chain(100, "b"),
	}
	for i := 0; i < 8; i++ {
		trees = append(trees, tree.Random(rng, tree.RandomOptions{
			Labels:      []string{"a", "b", "c"},
			Size:        1 + rng.Intn(400),
			MaxChildren: 1 + rng.Intn(8),
		}))
	}
	const childK = 4
	opts := []TreeDBOption{WithChild(), WithLastChild(), WithFirstSibling(), WithDom(), WithChildK(childK)}
	for i, tr := range trees {
		got := TreeDB(tr, opts...)
		want := referenceTreeDB(tr, childK)
		if d := dbDiff(got, want); d != "" {
			t.Errorf("tree %d (size %d): %s", i, tr.Size(), d)
		}
	}
}

// TestArenaNavRoundTrip checks that a Plan produces identical results
// over the arena-aliased Nav and the pointer-walk baseline Nav, on
// randomized documents.
func TestArenaNavRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	progs := []*datalog.Program{
		paperex.EvenAProgram("b"),
		datalog.MustParseProgram(`
q(X) :- firstchild(X,Y), label_a(Y).
q(X) :- nextsibling(X,Y), q(Y).
r(X) :- lastsibling(X), leaf(X).
?- q.
`),
		datalog.MustParseProgram(`
deep(X) :- root(X).
deep(Y) :- deep(X), firstchild(X,Y).
deep(Y) :- deep(X), nextsibling(X,Y).
?- deep.
`),
	}
	for pi, p := range progs {
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			tr := tree.Random(rng, tree.RandomOptions{
				Labels:      []string{"a", "b"},
				Size:        1 + rng.Intn(300),
				MaxChildren: 1 + rng.Intn(6),
			})
			arena, err := pl.Run(NewNav(tr), nil)
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := pl.Run(NewNavFromNodes(tr), nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := dbDiff(arena, baseline); d != "" {
				t.Errorf("program %d tree %d (size %d): %s", pi, i, tr.Size(), d)
			}
		}
	}
}

// TestNavAliasesArena pins the zero-copy property: the Nav of an
// arena-backed tree shares the arena columns instead of copying them.
func TestNavAliasesArena(t *testing.T) {
	tr := tree.MustParse("a(b,c)")
	a := tr.Arena()
	nav := NewNav(tr)
	if &nav.FC[0] != &a.FirstChild[0] || &nav.Label[0] != &a.Label[0] {
		t.Error("nav copied the arena columns")
	}
}
