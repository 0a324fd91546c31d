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
	n1, n2 := c.Nav(tr), c.Nav(tr)
	if n1 != n2 {
		t.Error("Nav not memoized")
	}
	if !c.Contains(tr) || c.Len() != 1 {
		t.Error("cache bookkeeping wrong")
	}
	c.Forget(tr)
	if c.Contains(tr) {
		t.Error("Forget did not drop the entry")
	}

	// Bounded cache evicts.
	b := NewTreeCache(2)
	for i := 0; i < 5; i++ {
		b.Nav(tree.MustParse("a(b)"))
	}
	if b.Len() > 2 {
		t.Errorf("bounded cache holds %d entries", b.Len())
	}
}

func TestTreeCacheConcurrent(t *testing.T) {
	tr := tree.MustParse("a(b(c),d,e(f(g)))")
	c := NewTreeCache(0)
	var wg sync.WaitGroup
	navs := make([]*Nav, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			navs[i] = c.Nav(tr)
		}(i)
	}
	wg.Wait()
	for i := 1; i < 32; i++ {
		if navs[i] != navs[0] {
			t.Fatal("concurrent Nav returned distinct values")
		}
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
