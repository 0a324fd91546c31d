package mdlog

// Differential testing of the live-document path: randomly edited
// documents queried through CompiledQuery.RunIncremental and
// QuerySet.RunIncremental must match replay-from-scratch — a from-scratch
// evaluation of the canonical live tree (Document.Snapshot) by an
// independent evaluator, mapped back to arena ids through the live
// preorder. Shares the program/tree generators and MDLOG_FUZZ_N /
// MDLOG_FUZZ_SEED knobs with differential_test.go.

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
	out := make(map[string][]int, len(preds))
	for _, pred := range preds {
		out[pred] = toArenaIDs(doc, ref.UnarySet(pred))
	}
	return out
}

// toArenaIDs maps canonical live-tree (preorder) ids to the document's
// arena ids, sorted.
func toArenaIDs(doc *Document, ids []int) []int {
	pre := doc.Tree().Arena().LivePreorder()
	mapped := make([]int, len(ids))
	for i, v := range ids {
		mapped[i] = int(pre[v])
	}
	sort.Ints(mapped)
	return mapped
}

// directArm is a query whose plan lies outside the maintainable
// fragment — RunIncremental runs it from scratch on the document's own
// arena — with a replay oracle that evaluates a twin of it
// independently on the document's Snapshot.
type directArm struct {
	name   string
	q      *CompiledQuery
	oracle func(t *testing.T, doc *Document) map[string][]int
}

// msoTwinArms pair MSO queries with datalog twins the replay oracle
// evaluates.
var msoTwinArms = []struct{ mso, datalog string }{
	{`exists y (child(x,y) & label_b(y))`, `q(X) :- child(X,Y), label_b(Y).`},
	{`label_a(x) & exists y nextsibling(x,y)`, `q(X) :- label_a(X), nextsibling(X,Y).`},
	{`leaf(x) & exists y (child(y,x) & label_c(y))`, `q(X) :- leaf(X), child(Y,X), label_c(Y).`},
}

// xpathTwinArms pair negated Core XPath queries, which run on the
// direct evaluator, with MSO twin formulas the automaton evaluates.
// `//` excludes the root (it is no node's child); siblings are two
// children of one parent ordered by before.
var xpathTwinArms = []struct{ xpath, mso string }{
	{`//a[b and not(c)]`,
		`label_a(x) & ~root(x) & exists y (child(x,y) & label_b(y)) & ~exists y (child(x,y) & label_c(y))`},
	{`//c[not(preceding-sibling::b)]`,
		`label_c(x) & ~root(x) & ~exists y (label_b(y) & exists z (child(z,x) & child(z,y)) & before(y,x))`},
	{`//b[not(parent::a) or following-sibling::c]`,
		`label_b(x) & ~root(x) & (~exists y (child(y,x) & label_a(y)) | exists y (label_c(y) & exists z (child(z,x) & child(z,y)) & before(x,y)))`},
}

// elogDeltaArm is an Elog⁻Δ program over every node: the first a-child
// (notafter), leaves with no c-sibling after them (notbefore), and
// b-children with an f-sibling at most halfway along (before). Its
// oracle is EvalDirect on the Snapshot.
const elogDeltaArm = `n(x) :- root(x).
n(x) :- n(x0), subelem("_", x0, x).
f(x) :- n(x0), subelem("a", x0, x), notafter("a", x0, x).
l(x) :- n(x0), subelem("_", x0, x), notbefore("c", x0, x), leaf(x).
m(x) :- n(x0), subelem("b", x0, x), before("_", 0, 50, x0, x, y), f(y).`

// directArms compiles the MSO, negated-XPath and Elog⁻Δ arms.
func directArms(t *testing.T) []directArm {
	var arms []directArm
	for _, a := range msoTwinArms {
		q, err := Compile(a.mso, LangMSO, WithQueryPred("q"))
		if err != nil {
			t.Fatalf("compiling %s: %v", a.mso, err)
		}
		twin, err := ParseProgram(a.datalog)
		if err != nil {
			t.Fatal(err)
		}
		arms = append(arms, directArm{a.mso, q, func(t *testing.T, doc *Document) map[string][]int {
			return replayUnary(t, twin, doc, []string{"q"})
		}})
	}
	for _, a := range xpathTwinArms {
		q, err := Compile(a.xpath, LangXPath, WithQueryPred("q"))
		if err != nil {
			t.Fatalf("compiling %s: %v", a.xpath, err)
		}
		if q.EngineName() != "xpath-direct" {
			t.Fatalf("%s runs on %s, want the direct evaluator", a.xpath, q.EngineName())
		}
		twin, err := Compile(a.mso, LangMSO)
		if err != nil {
			t.Fatalf("compiling %s: %v", a.mso, err)
		}
		arms = append(arms, directArm{a.xpath, q, func(t *testing.T, doc *Document) map[string][]int {
			ids, err := twin.Select(context.Background(), doc.Snapshot())
			if err != nil {
				t.Fatal(err)
			}
			return map[string][]int{"q": toArenaIDs(doc, ids)}
		}})
	}
	prog, err := ParseElog(elogDeltaArm)
	if err != nil {
		t.Fatal(err)
	}
	q, err := CompileElog(prog)
	if err != nil {
		t.Fatal(err)
	}
	if q.EngineName() != "elog-direct" {
		t.Fatalf("the Elog⁻Δ arm runs on %s, want the direct evaluator", q.EngineName())
	}
	arms = append(arms, directArm{"Elog⁻Δ arm", q, func(t *testing.T, doc *Document) map[string][]int {
		ref, err := prog.EvalDirect(doc.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		for pat, ids := range ref {
			ref[pat] = toArenaIDs(doc, ids)
		}
		return ref
	}})
	return arms
}

// TestIncrementalDifferential fuzzes edit scripts: random programs
// over randomly edited documents, with the incremental results of
// every engine/level arm — plus all-linear and all-bitmap fused
// QuerySets and the direct arms (MSO, negated XPath, Elog⁻Δ), which
// run from scratch on the document's arena — compared against
// replay-from-scratch after every edit window.
func TestIncrementalDifferential(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(fuzzSeed(t) ^ 0x9e3779b9))
	labels := []string{"a", "b", "c"}
	iters := fuzzIterations(t)/4 + 2
	engines := []Engine{EngineLinear, EngineBitmap}
	levels := []OptLevel{OptNone, OptFull}
	direct := directArms(t)

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
		// Two direct arms per case, so every arm runs within the
		// smallest workload.
		dirs := []directArm{direct[i%len(direct)], direct[(i+len(direct)/2)%len(direct)]}

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
			// RunIncremental and a plain Run on the document's tree
			// both answer in arena ids.
			for _, d := range dirs {
				oracle := d.oracle(t, doc)
				for how, res := range map[string]SetResult{
					"RunIncremental": d.q.RunIncremental(ctx, doc),
					"Run":            d.q.Run(ctx, doc.Tree()),
				} {
					if res.Err != nil {
						t.Fatalf("case %d step %d: direct %s %s: %v", i, step, d.name, how, res.Err)
					}
					for pred, want := range oracle {
						if got := fmt.Sprint(res.Assignment[pred]); got != fmt.Sprint(want) {
							t.Fatalf("case %d step %d: direct %s %s: %s = %s, replay %v", i, step, d.name, how, pred, got, want)
						}
					}
				}
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
