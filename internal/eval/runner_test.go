package eval

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

func TestPlanMatchesLinearTree(t *testing.T) {
	p := datalog.MustParseProgram(`
even(X) :- leaf(X).
odd(X)  :- firstchild(X,Y), even(Y), lastsibling(Y).
?- even.
`)
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 30 + i*17, MaxChildren: 4})
		want, err := LinearTree(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Run(NewNav(tr), nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := SameResults(want, got, p.IntensionalPreds()); d != "" {
			t.Fatalf("tree %d: plan differs from LinearTree: %s", i, d)
		}
	}
}

func TestPlanRejectsBadPrograms(t *testing.T) {
	if _, err := NewPlan(datalog.MustParseProgram(`q(X) :- child(X,Y), label_a(Y).`)); err == nil {
		t.Error("child/2 must be rejected by the linear plan")
	}
	if _, err := NewPlan(datalog.MustParseProgram(`e(X,Y) :- firstchild(X,Y).`)); err == nil {
		t.Error("non-monadic program must be rejected")
	}
}

func TestSignatureOf(t *testing.T) {
	p := datalog.MustParseProgram(`
q(X) :- child(X,Y), label_a(Y), dom(X).
r(X) :- child_3(Y,X), lastchild(Y,X).
`)
	sig := SignatureOf(p)
	want := Signature{Child: true, ChildK: 3}
	if sig != want {
		t.Errorf("SignatureOf = %+v, want %+v", sig, want)
	}
}

func TestTreeCache(t *testing.T) {
	tr := tree.MustParse("a(b,c(d))")
	c := NewTreeCache(0)
	if _, ok := c.Result(tr, "q"); ok || c.Contains(tr) {
		t.Error("empty cache reported a result")
	}
	db := datalog.NewDatabase(tr.Size())
	c.SetResult(tr, "q", db)
	if got, ok := c.Result(tr, "q"); !ok || got != db {
		t.Error("result not memoized")
	}
	if _, ok := c.Result(tr, "r"); ok {
		t.Error("a different key shared the result")
	}
	if !c.Contains(tr) || c.Len() != 1 {
		t.Error("cache bookkeeping wrong")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 2 || s.Results != 1 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 1 result", s)
	}
	c.Forget(tr)
	if _, ok := c.Result(tr, "q"); ok || c.Contains(tr) {
		t.Error("Forget did not drop the entry")
	}

	// Bounded cache evicts.
	b := NewTreeCache(2)
	for i := 0; i < 5; i++ {
		b.SetResult(tree.MustParse("a(b)"), "q", db)
	}
	if b.Len() > 2 {
		t.Errorf("bounded cache holds %d entries", b.Len())
	}
}

// TestTreeCacheConcurrent races SetResult, Result and Forget on shared
// trees (run it under -race): every hit returns the one database stored
// for its key, and the counters account for every lookup.
func TestTreeCacheConcurrent(t *testing.T) {
	trees := []*tree.Tree{tree.MustParse("a(b(c),d,e(f(g)))"), tree.MustParse("a(b)")}
	dbs := []*datalog.Database{datalog.NewDatabase(7), datalog.NewDatabase(2)}
	c := NewTreeCache(0)
	c.MaxResults = 3
	const workers, iters = 16, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (w + i) % len(trees)
				key := i % 5
				switch i % 7 {
				case 0:
					c.Forget(trees[k])
				case 1, 2:
					c.SetResult(trees[k], key, dbs[k])
				default:
					if db, ok := c.Result(trees[k], key); ok && db != dbs[k] {
						t.Errorf("tree %d key %d: hit returned another tree's result", k, key)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	lookups := int64(0)
	for i := 0; i < iters; i++ {
		if i%7 > 2 {
			lookups++
		}
	}
	if s := c.Stats(); s.Hits+s.Misses != workers*lookups || s.Results > len(trees)*c.MaxResults {
		t.Errorf("stats = %+v, want %d lookups and at most %d results", s, workers*lookups, len(trees)*c.MaxResults)
	}
}

func TestMapAllOrderAndErrors(t *testing.T) {
	docs := make([]*tree.Tree, 20)
	for i := range docs {
		docs[i] = tree.MustParse("a(b)")
	}
	boom := errors.New("boom")
	res := MapAll(context.Background(), Runner{Workers: 4}, docs,
		func(_ context.Context, d *tree.Tree) (int, error) {
			return d.Size(), nil
		})
	for i, r := range res {
		if r.Index != i || r.Err != nil || r.Value != 2 {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	resE := MapAll(context.Background(), Runner{Workers: 4}, docs,
		func(_ context.Context, _ *tree.Tree) (int, error) { return 0, boom })
	for _, r := range resE {
		if !errors.Is(r.Err, boom) {
			t.Fatalf("error not propagated: %+v", r)
		}
	}
}

func TestMapStreamOrderAndCancel(t *testing.T) {
	in := make(chan *tree.Tree)
	go func() {
		defer close(in)
		for i := 0; i < 30; i++ {
			in <- tree.MustParse(fmt.Sprintf("a(%s)", label(i)))
		}
	}()
	i := 0
	for r := range Map(context.Background(), Runner{Workers: 5}, in,
		func(_ context.Context, d *tree.Tree) (string, error) {
			return d.Nodes[1].Label, nil
		}) {
		if r.Index != i {
			t.Fatalf("stream out of order: got index %d at position %d", r.Index, i)
		}
		if r.Err != nil || r.Value != label(i) {
			t.Fatalf("result %d = %+v", i, r)
		}
		i++
	}
	if i != 30 {
		t.Fatalf("yielded %d of 30", i)
	}

	// Cancellation: the output must close even when the producer
	// abandons the input channel without closing it (the documented
	// select-on-ctx producer pattern).
	ctx, cancel := context.WithCancel(context.Background())
	in2 := make(chan *tree.Tree)
	go func() {
		// Never closes in2.
		for i := 0; i < 100; i++ {
			select {
			case in2 <- tree.MustParse("a"):
			case <-ctx.Done():
				return
			}
		}
	}()
	out := Map(ctx, Runner{Workers: 2}, in2,
		func(ctx context.Context, _ *tree.Tree) (int, error) {
			cancel()
			return 0, ctx.Err()
		})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range out {
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not close after cancellation")
	}
}

func label(i int) string { return string(rune('a' + i%26)) }
