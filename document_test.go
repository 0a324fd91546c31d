package mdlog

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mdlog/internal/tree"
)

func TestDocumentLifecycle(t *testing.T) {
	ctx := context.Background()
	doc := NewDocument(tree.MustParse("a(b(c),d)"))
	if doc.NumNodes() != 4 || doc.NumAlive() != 4 {
		t.Fatalf("fresh document: %d nodes, %d alive", doc.NumNodes(), doc.NumAlive())
	}
	if _, err := doc.InsertSubtree(99, 0, tree.New("x")); err == nil {
		t.Fatal("insert under a nonexistent parent succeeded")
	}
	if err := doc.RemoveSubtree(0); err == nil {
		t.Fatal("removing the root succeeded")
	}
	id, err := doc.InsertSubtree(1, 0, tree.New("x", tree.New("y")))
	if err != nil {
		t.Fatal(err)
	}
	if err := doc.SetText(id, "hello"); err != nil {
		t.Fatal(err)
	}
	if err := doc.SetAttr(id, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := doc.RemoveSubtree(3); err != nil { // the original "d"
		t.Fatal(err)
	}
	ds := doc.Stats()
	if ds.Edits != 4 || ds.Live != 5 || ds.Generation == 0 {
		t.Fatalf("stats after edits: %+v", ds)
	}
	// Mutation through the Document leaves no pending windows while no
	// maintainer exists.
	if ds.PendingWindows != 0 || ds.MaintainedPlans != 0 {
		t.Fatalf("log not pruned without maintainers: %+v", ds)
	}

	q, err := Compile(`q(X) :- label_x(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := selectInc(ctx, q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != fmt.Sprintf("[%d]", id) {
		t.Fatalf("select = %v, want [%d]", ids, id)
	}
	if err := doc.RemoveSubtree(id); err != nil {
		t.Fatal(err)
	}
	ids, err = selectInc(ctx, q, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Fatalf("select after removal = %v, want empty", ids)
	}
	ds = doc.Stats()
	if ds.MaintainedPlans != 1 || ds.Inc.Applies == 0 {
		t.Fatalf("maintainer stats: %+v", ds)
	}
	// Snapshot is the canonical re-parse: preorder ids, live nodes only.
	snap := doc.Snapshot()
	if snap.Size() != doc.NumAlive() {
		t.Fatalf("snapshot has %d nodes, document %d alive", snap.Size(), doc.NumAlive())
	}
}

// TestDocumentDetectsOutOfBandMutation ensures edits that bypass the
// Document (violating its contract) surface as errors, never as stale
// results.
func TestDocumentDetectsOutOfBandMutation(t *testing.T) {
	ctx := context.Background()
	tr := tree.MustParse("a(b,c)")
	doc := NewDocument(tr)
	q, err := Compile(`q(X) :- leaf(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := selectInc(ctx, q, doc); err != nil {
		t.Fatal(err)
	}
	a := tr.Arena()
	if _, err := a.InsertSubtree(a.NewDelta(), 0, 0, tree.New("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := selectInc(ctx, q, doc); err == nil {
		t.Fatal("out-of-band mutation went undetected")
	}
}

// TestDocumentIncrementalFallback drives a plan outside the
// delta-maintainable fragment (the MSO automaton) through the
// snapshot fallback: results must equal a from-scratch run on the
// canonical live tree, mapped back to arena ids.
func TestDocumentIncrementalFallback(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	labels := []string{"a", "b", "c"}
	q, err := Compile("exists y (child(x,y) & label_b(y))", LangMSO)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 40, MaxChildren: 4})
	doc := NewDocument(tr)
	for step := 0; step < 8; step++ {
		randomDocEdit(t, rng, doc, labels)
		got, err := selectInc(ctx, q, doc)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		ref, err := q.Select(ctx, doc.Snapshot())
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		pre := doc.Tree().Arena().LivePreorder()
		want := make([]int, len(ref))
		for i, v := range ref {
			want[i] = int(pre[v])
		}
		sort.Ints(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: incremental %v, snapshot oracle %v", step, got, want)
		}
	}
}

// TestDocumentConcurrent hammers one document with concurrent editors
// and incremental readers; run under -race this is the data-race net
// for the session path.
func TestDocumentConcurrent(t *testing.T) {
	ctx := context.Background()
	labels := []string{"a", "b", "c"}
	doc := NewDocument(tree.MustParse("a(b(c),d)"))
	q, err := Compile(`q(X) :- leaf(X). ?- q.`, LangDatalog, WithEngine(EngineBitmap))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 4)
	for w := 0; w < 2; w++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				live := doc.LiveNodes()
				// Racing editors may pick a node the other just removed;
				// those edits fail cleanly and are skipped.
				if len(live) > 1 && rng.Intn(2) == 0 {
					_ = doc.RemoveSubtree(live[1+rng.Intn(len(live)-1)])
				} else {
					_, _ = doc.InsertSubtree(live[rng.Intn(len(live))], rng.Intn(3), tree.New(labels[rng.Intn(3)]))
				}
			}
			done <- nil
		}(int64(w))
	}
	for w := 0; w < 2; w++ {
		go func() {
			for i := 0; i < 50; i++ {
				if _, err := selectInc(ctx, q, doc); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// The final maintained result must still match replay-from-scratch.
	got, err := selectInc(ctx, q, doc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ParseProgram(`q(X) :- leaf(X). ?- q.`)
	if err != nil {
		t.Fatal(err)
	}
	want := replayUnary(t, p, doc, []string{"q"})["q"]
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after concurrent edits: %v, replay %v", got, want)
	}
}

// selectInc is RunIncremental read as node ids — the node-selecting
// shape most live-document tests check.
func selectInc(ctx context.Context, q *CompiledQuery, d *Document) ([]int, error) {
	res := q.RunIncremental(ctx, d)
	return res.IDs, res.Err
}

// spansInc is RunIncremental read as span relations.
func spansInc(ctx context.Context, q *CompiledQuery, d *Document) (SpanResult, error) {
	res := q.RunIncremental(ctx, d)
	return res.Spans, res.Err
}
