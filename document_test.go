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

// TestStaleMaintainerReleasesEditLog: a QuerySet that stops running
// on a live document (as the one a registry change replaced does) must
// not pin the document's edit log. Its maintainer is dropped once
// replaying the windows it missed would touch more rows than the arena
// holds, so the log stays as short after 200 edits as after 20; run
// again, the stale set answers like its members run fresh.
func TestStaleMaintainerReleasesEditLog(t *testing.T) {
	ctx := context.Background()
	labels := []string{"a", "b", "c"}
	srcs := []string{
		`q(X) :- label_b(X). ?- q.`,
		`q(X) :- firstchild(X,Y), label_a(Y). ?- q.`,
		`q(X) :- child(X,Y), label_c(Y). ?- q.`,
	}
	compile := func(srcs []string) []*CompiledQuery {
		qs := make([]*CompiledQuery, len(srcs))
		for i, src := range srcs {
			q, err := Compile(src, LangDatalog)
			if err != nil {
				t.Fatal(err)
			}
			qs[i] = q
		}
		return qs
	}
	newSet := func(srcs []string) *QuerySet {
		set, err := NewQuerySet(compile(srcs)...)
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	run := func(set *QuerySet, doc *Document) {
		for _, res := range set.RunIncremental(ctx, doc) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	pending := func(edits int) int {
		rng := rand.New(rand.NewSource(3))
		doc := NewDocument(tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 40, MaxChildren: 4}))
		// The live set is the stale one plus a member, so the two own
		// different maintainers.
		stale, live := newSet(srcs[:2]), newSet(srcs)
		run(stale, doc)
		run(live, doc)
		for i := 0; i < edits; i++ {
			randomDocEdit(t, rng, doc, labels)
			run(live, doc)
		}
		ds := doc.Stats()
		if ds.PendingWindows > doc.NumNodes() {
			t.Fatalf("%d edits: %d pending windows on a %d-row arena", edits, ds.PendingWindows, doc.NumNodes())
		}
		for i, res := range stale.RunIncremental(ctx, doc) {
			fresh := compile(srcs[i : i+1])[0].RunIncremental(ctx, doc)
			if res.Err != nil || fresh.Err != nil {
				t.Fatal(res.Err, fresh.Err)
			}
			if fmt.Sprint(res.IDs) != fmt.Sprint(fresh.IDs) {
				t.Fatalf("%d edits: stale member %d answers %v, fresh %v", edits, i, res.IDs, fresh.IDs)
			}
		}
		return ds.PendingWindows
	}
	if few, many := pending(20), pending(200); many > few {
		t.Fatalf("pending windows grow with the edit count: %d after 20 edits, %d after 200", few, many)
	}
}

// directPlans are one query per plan outside the delta-maintainable
// fragment: the MSO automaton, the direct Core XPath evaluator that
// not(·) needs, and Elog⁻Δ's EvalDirect. RunIncremental runs them from
// scratch on the document's own arena.
var directPlans = []struct {
	src  string
	lang Language
}{
	{`exists y (child(x,y) & label_b(y))`, LangMSO},
	{`//a[b and not(c)]`, LangXPath},
	{`q(x) :- root(x0), subelem("_", x0, x), notbefore("b", x0, x).`, LangElog},
}

// TestDocumentIncrementalFallback drives every plan outside the
// delta-maintainable fragment through RunIncremental over random
// edits: its arena-id results must equal a from-scratch run on the
// canonical live tree (Snapshot), mapped back to arena ids.
func TestDocumentIncrementalFallback(t *testing.T) {
	ctx := context.Background()
	labels := []string{"a", "b", "c"}
	for _, dp := range directPlans {
		q, err := Compile(dp.src, dp.lang)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 40, MaxChildren: 4})
		doc := NewDocument(tr)
		for step := 0; step < 8; step++ {
			randomDocEdit(t, rng, doc, labels)
			got, err := selectInc(ctx, q, doc)
			if err != nil {
				t.Fatalf("%s step %d: %v", dp.src, step, err)
			}
			ref, err := q.Select(ctx, doc.Snapshot())
			if err != nil {
				t.Fatalf("%s step %d: %v", dp.src, step, err)
			}
			pre := doc.Tree().Arena().LivePreorder()
			want := make([]int, len(ref))
			for i, v := range ref {
				want[i] = int(pre[v])
			}
			sort.Ints(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s step %d: incremental %v, snapshot oracle %v", dp.src, step, got, want)
			}
		}
	}
}

// TestRunOnLiveTreeAnswersInArenaIDs runs one query per plan kind on a
// document whose arena ids and document order disagree: a(b) is
// inserted as the root's first child (arena rows 7 and 8, first in
// document order) and c(b) (row 3) is removed. Run on the document's
// tree must answer in arena ids, like RunIncremental: it sizes its
// result by the arena rows, not the live count, never reaches the
// removed rows, and orders nodes by document order, not by id.
func TestRunOnLiveTreeAnswersInArenaIDs(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name, src string
		lang      Language
		want      string
	}{
		{"datalog", `q(X) :- label_a(X), child(X,Y), label_b(Y). ?- q.`, LangDatalog, "[1 7]"},
		{"xpath", `//a[b]`, LangXPath, "[1 7]"},
		{"xpath-direct", `//a[b and not(c)]`, LangXPath, "[1 7]"},
		{"xpath-direct-reverse", `//b[not(ancestor::a/preceding-sibling::a)]`, LangXPath, "[8]"},
		{"caterpillar", `child*.label_a.child.label_b.(child^-1).label_a`, LangCaterpillar, "[1 7]"},
		{"spanner", "q(X) :- label_a(X), child(X,Y), label_b(Y).\nw(X, A) :- q(X), text(X, S), match(S, /(?<w>x)/, A).\n?- q.\n", LangSpanner, "[1 7]"},
		{"mso", `label_a(x) & exists y (child(x,y) & label_b(y))`, LangMSO, "[1 7]"},
		{"elog", `q(x) :- root(x0), subelem("a", x0, x), contains("b", x, y).`, LangElog, "[1 7]"},
		{"elog-direct-notafter", `q(x) :- root(x0), subelem("a", x0, x), notafter("a", x0, x).`, LangElog, "[7]"},
		{"elog-direct-notbefore", `q(x) :- root(x0), subelem("a", x0, x), notbefore("a", x0, x).`, LangElog, "[5]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Compile(c.src, c.lang)
			if err != nil {
				t.Fatal(err)
			}
			doc := NewDocument(tree.MustParse("r(a(b),c(b),a(c))"))
			if _, err := doc.InsertSubtree(0, 0, tree.New("a", tree.New("b"))); err != nil {
				t.Fatal(err)
			}
			if err := doc.RemoveSubtree(3); err != nil {
				t.Fatal(err)
			}
			run := q.Run(ctx, doc.Tree())
			inc := q.RunIncremental(ctx, doc)
			if run.Err != nil || inc.Err != nil {
				t.Fatalf("Run: %v, RunIncremental: %v", run.Err, inc.Err)
			}
			if got := fmt.Sprint(run.IDs); got != c.want || fmt.Sprint(inc.IDs) != c.want {
				t.Fatalf("%s (%s): Run %s, RunIncremental %v; want %s", c.src, q.EngineName(), got, inc.IDs, c.want)
			}
			db, err := q.Eval(ctx, doc.Tree())
			if err != nil {
				t.Fatal(err)
			}
			if db.Dom != doc.NumNodes() {
				t.Fatalf("%s (%s): result domain %d, want the %d arena rows", c.src, q.EngineName(), db.Dom, doc.NumNodes())
			}
		})
	}
}

// TestForgetLiveDocumentFreesMemo: the results a QuerySet memoizes for
// a live document are keyed by the document's own tree, so each edit's
// results replace the last generation's, and Forget on the tree — the
// call that closes a session — frees them.
func TestForgetLiveDocumentFreesMemo(t *testing.T) {
	ctx := context.Background()
	set, err := CompileSet([]SetSpec{
		{Name: "mso", Source: `label_b(x)`, Lang: LangMSO},
		{Name: "dl", Source: `q(X) :- leaf(X). ?- q.`, Lang: LangDatalog},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := NewDocument(tree.MustParse("a(b(c),d)"))
	for i := 0; i < 5; i++ {
		if _, err := doc.InsertSubtree(0, i, tree.New("b")); err != nil {
			t.Fatal(err)
		}
		for _, res := range set.RunIncremental(ctx, doc) {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Name, res.Err)
			}
		}
	}
	if n := set.Cache().Len(); n != 1 {
		t.Fatalf("%d memo entries after five edits and incremental runs, want 1", n)
	}
	set.Cache().Forget(doc.Tree())
	if n := set.Cache().Len(); n != 0 {
		t.Fatalf("Forget(doc.Tree()) left %d memo entries", n)
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
