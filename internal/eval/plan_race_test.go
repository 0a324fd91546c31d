package eval

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// TestPlanConcurrentRuns pins the "immutable after NewPlan, safe for
// concurrent use" contract: one Plan hammered from many goroutines
// over many documents (run under -race in CI). The program tests
// labels that exist in some documents and not in others, so every
// label-resolution path in Run executes; the plan's interned label
// list must never change after construction.
func TestPlanConcurrentRuns(t *testing.T) {
	p, err := datalog.ParseProgram(`
q(X) :- label_td(X), firstchild(X,Y), label_b(Y).
q(X) :- label_ghost(X).
r(X) :- q(X), lastsibling(X).
?- q.
`)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	labelsBefore := len(pl.labels)

	rng := rand.New(rand.NewSource(21))
	docs := make([]*tree.Tree, 8)
	want := make([]string, len(docs))
	for i := range docs {
		docs[i] = tree.Random(rng, tree.RandomOptions{
			Labels: []string{"td", "b", "x"}, Size: 40 + 11*i, MaxChildren: 4})
		db, err := pl.Run(NewNav(docs[i]), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(db.UnarySet("q"), db.UnarySet("r"))
	}

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				i := (w + k) % len(docs)
				db, err := pl.Run(NewNav(docs[i]), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(db.UnarySet("q"), db.UnarySet("r")); got != want[i] {
					t.Errorf("doc %d: %s, want %s", i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if len(pl.labels) != labelsBefore {
		t.Fatalf("plan label list grew after construction: %d -> %d", labelsBefore, len(pl.labels))
	}
}
