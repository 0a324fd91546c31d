package mdlog

// Differential testing of the live-document path: randomly edited
// documents queried through CompiledQuery.RunIncremental and
// QuerySet.RunIncremental must match replay-from-scratch — a from-scratch
// evaluation of the canonical live tree, mapped back to arena ids
// through the live preorder. Shares the program/tree generators and
// MDLOG_FUZZ_N / MDLOG_FUZZ_SEED knobs with differential_test.go.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mdlog/internal/eval"
	"mdlog/internal/tree"
)

// randomDocEdit applies one random structural or text edit through
// the Document API.
func randomDocEdit(t *testing.T, rng *rand.Rand, doc *Document, labels []string) {
	t.Helper()
	live := doc.Tree().Arena().LivePreorder()
	switch op := rng.Intn(4); {
	case op == 0 && len(live) > 1: // remove a non-root subtree
		if err := doc.RemoveSubtree(int(live[1+rng.Intn(len(live)-1)])); err != nil {
			t.Fatal(err)
		}
	case op <= 2: // insert a small subtree
		sub := tree.New(labels[rng.Intn(len(labels))])
		for i := rng.Intn(3); i > 0; i-- {
			sub.Add(tree.New(labels[rng.Intn(len(labels))]))
		}
		if _, err := doc.InsertSubtree(int(live[rng.Intn(len(live))]), rng.Intn(4), sub); err != nil {
			t.Fatal(err)
		}
	default: // retext (no τ_ur fact changes)
		if err := doc.SetText(int(live[rng.Intn(len(live))]), fmt.Sprintf("t%d", rng.Int())); err != nil {
			t.Fatal(err)
		}
	}
}

// replayUnary is the replay-from-scratch oracle: evaluate p with the
// reference naive engine on the canonical live tree (as if the
// document had been re-parsed) and map each predicate's extension
// back to arena ids through the live preorder.
func replayUnary(t *testing.T, p *Program, doc *Document, preds []string) map[string][]int {
	t.Helper()
	ref, err := eval.EvalOnTree(p, doc.Snapshot(), eval.EngineNaive)
	if err != nil {
		t.Fatalf("replay oracle: %v\nprogram:\n%s", err, p)
	}
	pre := doc.Tree().Arena().LivePreorder()
	out := make(map[string][]int, len(preds))
	for _, pred := range preds {
		ids := ref.UnarySet(pred)
		mapped := make([]int, len(ids))
		for i, v := range ids {
			mapped[i] = int(pre[v])
		}
		sort.Ints(mapped)
		out[pred] = mapped
	}
	return out
}

// fallbackArms pairs MSO queries — plans outside the maintainable
// fragment, which RunIncremental serves by a from-scratch run over the
// live-tree snapshot remapped to arena ids — with datalog twins the
// replay oracle evaluates.
var fallbackArms = []struct{ mso, datalog string }{
	{`exists y (child(x,y) & label_b(y))`, `q(X) :- child(X,Y), label_b(Y).`},
	{`label_a(x) & exists y nextsibling(x,y)`, `q(X) :- label_a(X), nextsibling(X,Y).`},
	{`leaf(x) & exists y (child(y,x) & label_c(y))`, `q(X) :- leaf(X), child(Y,X), label_c(Y).`},
}

// TestIncrementalDifferential fuzzes edit scripts: random programs
// over randomly edited documents, with the incremental results of
// every engine/level arm — plus all-linear and all-bitmap fused
// QuerySets and one MSO query on the snapshot fallback — compared
// against replay-from-scratch after every edit window.
func TestIncrementalDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(fuzzSeed(t) ^ 0x9e3779b9))
	labels := []string{"a", "b", "c"}
	iters := fuzzIterations(t)/4 + 2
	engines := []Engine{EngineLinear, EngineBitmap}
	levels := []OptLevel{OptNone, OptFull}
	type fallback struct {
		q    *CompiledQuery
		twin *Program
	}
	fallbacks := make([]fallback, len(fallbackArms))
	for k, fa := range fallbackArms {
		q, err := Compile(fa.mso, LangMSO)
		if err != nil {
			t.Fatalf("compiling fallback arm %s: %v", fa.mso, err)
		}
		twin, err := ParseProgram(fa.datalog)
		if err != nil {
			t.Fatal(err)
		}
		fallbacks[k] = fallback{q, twin}
	}

	for i := 0; i < iters; i++ {
		progs := []*Program{randomMonadicProgram(rng), randomMonadicProgram(rng), randomMonadicProgram(rng)}
		p := progs[0]
		preds := p.IntensionalPreds()
		tr := tree.Random(rng, tree.RandomOptions{Labels: labels, Size: 25 + rng.Intn(55), MaxChildren: 5})
		doc := NewDocument(tr)

		// One maintained arm per engine × optimization level, all fed
		// the same edit script.
		type arm struct {
			e   Engine
			lvl OptLevel
			q   *CompiledQuery
		}
		var arms []arm
		for _, e := range engines {
			for _, lvl := range levels {
				q, err := CompileProgram(p.Clone(), WithEngine(e), WithOptLevel(lvl))
				if err != nil {
					t.Fatalf("case %d: compiling %v/%v: %v\nprogram:\n%s", i, e, lvl, err, p)
				}
				arms = append(arms, arm{e, lvl, q})
			}
		}

		// All-linear and all-bitmap fused sets over the same namespace.
		sets := map[Engine]*QuerySet{}
		for _, e := range []Engine{EngineLinear, EngineBitmap} {
			qs := make([]*CompiledQuery, len(progs))
			for j, mp := range progs {
				q, err := CompileProgram(mp.Clone(), WithEngine(e), WithOptLevel(OptFull))
				if err != nil {
					t.Fatalf("case %d: compiling set member %d on %v: %v\nprogram:\n%s", i, j, e, err, mp)
				}
				qs[j] = q
			}
			set, err := NewQuerySet(qs...)
			if err != nil {
				t.Fatalf("case %d: fusing on %v: %v", i, e, err)
			}
			if set.FusedLen() != len(progs) {
				t.Fatalf("case %d: fused %d of %d %v members", i, set.FusedLen(), len(progs), e)
			}
			sets[e] = set
		}
		fb := fallbacks[i%len(fallbacks)]

		for step := 0; step < 6; step++ {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				randomDocEdit(t, rng, doc, labels)
			}
			oracle := replayUnary(t, p, doc, preds)
			for _, a := range arms {
				res := a.q.RunIncremental(ctx, doc)
				if res.Err != nil {
					t.Fatalf("case %d step %d: incremental %v/%v: %v\nprogram:\n%s", i, step, a.e, a.lvl, res.Err, p)
				}
				for _, pred := range preds {
					if got := fmt.Sprint(res.Assignment[pred]); got != fmt.Sprint(oracle[pred]) {
						t.Fatalf("case %d step %d: incremental %v/%v: %s = %s, replay %v\nprogram:\n%s",
							i, step, a.e, a.lvl, pred, got, oracle[pred], p)
					}
				}
			}
			for e, set := range sets {
				res := set.RunIncremental(ctx, doc)
				for j, r := range res {
					if r.Err != nil {
						t.Fatalf("case %d step %d: fused %v member %d: %v\nprogram:\n%s", i, step, e, j, r.Err, progs[j])
					}
					mo := replayUnary(t, progs[j], doc, progs[j].IntensionalPreds())
					for _, pred := range progs[j].IntensionalPreds() {
						got, want := r.Assignment[pred], mo[pred]
						if fmt.Sprint(got) != fmt.Sprint(want) && (len(got) > 0 || len(want) > 0) {
							t.Fatalf("case %d step %d: fused %v member %d: %s = %v, replay %v\nprogram:\n%s",
								i, step, e, j, pred, got, want, progs[j])
						}
					}
				}
			}
			res := fb.q.RunIncremental(ctx, doc)
			if res.Err != nil {
				t.Fatalf("case %d step %d: fallback %s: %v", i, step, fb.q.Source(), res.Err)
			}
			if got, want := fmt.Sprint(res.IDs), fmt.Sprint(replayUnary(t, fb.twin, doc, []string{"q"})["q"]); got != want {
				t.Fatalf("case %d step %d: fallback %s selects %s, replay %s", i, step, fb.q.Source(), got, want)
			}
		}
	}
}

// TestMutationInvalidatesMemo is the arena-staleness regression test:
// a Select that memoized its result must never serve the pre-mutation
// memo after the document changes — the result memo and navigation
// arrays are both keyed by (tree, generation).
func TestMutationInvalidatesMemo(t *testing.T) {
	ctx := context.Background()
	src := `q(X) :- label_new(X). ?- q.`
	for _, e := range []Engine{EngineLinear, EngineBitmap} {
		t.Run(e.String(), func(t *testing.T) {
			tr := tree.MustParse("a(b(c),d)")
			q, err := Compile(src, LangDatalog, WithEngine(e))
			if err != nil {
				t.Fatal(err)
			}
			ids, err := q.Select(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 0 {
				t.Fatalf("pre-mutation select = %v, want empty", ids)
			}
			a := tr.Arena()
			id, err := a.InsertSubtree(a.NewDelta(), 0, 0, tree.New("new"))
			if err != nil {
				t.Fatal(err)
			}
			ids, err = q.Select(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ids) != fmt.Sprint([]int32{id}) {
				t.Fatalf("post-mutation select = %v, want [%d] (stale memo?)", ids, id)
			}
			if err := a.RemoveSubtree(a.NewDelta(), id); err != nil {
				t.Fatal(err)
			}
			ids, err = q.Select(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 0 {
				t.Fatalf("post-removal select = %v, want empty (stale memo?)", ids)
			}
		})
	}

	t.Run("fused-set", func(t *testing.T) {
		tr := tree.MustParse("a(b(c),d)")
		q1, err := Compile(src, LangDatalog, WithEngine(EngineBitmap))
		if err != nil {
			t.Fatal(err)
		}
		q2, err := Compile(`q(X) :- leaf(X). ?- q.`, LangDatalog, WithEngine(EngineBitmap))
		if err != nil {
			t.Fatal(err)
		}
		set, err := NewQuerySet(q1, q2)
		if err != nil {
			t.Fatal(err)
		}
		res := set.Run(ctx, tr)
		if len(res[0].IDs) != 0 || res[0].Err != nil || res[1].Err != nil {
			t.Fatalf("pre-mutation set run: %+v", res)
		}
		a := tr.Arena()
		id, err := a.InsertSubtree(a.NewDelta(), 0, 2, tree.New("new"))
		if err != nil {
			t.Fatal(err)
		}
		res = set.Run(ctx, tr)
		if res[0].Err != nil || fmt.Sprint(res[0].IDs) != fmt.Sprint([]int32{id}) {
			t.Fatalf("post-mutation fused member = %v (err %v), want [%d] (stale memo?)", res[0].IDs, res[0].Err, id)
		}
		// The new leaf must also appear in the second member's result.
		found := false
		for _, v := range res[1].IDs {
			if v == int(id) {
				found = true
			}
		}
		if !found {
			t.Fatalf("post-mutation leaf member = %v, missing new node %d (stale memo?)", res[1].IDs, id)
		}
	})
}
