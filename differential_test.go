package mdlog

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/eval"
	"mdlog/internal/opt"
	"mdlog/internal/refute"
	"mdlog/internal/span"
	"mdlog/internal/tree"
)

// Cross-engine differential fuzzing: random monadic programs over the
// full extensional vocabulary × random trees, evaluated by both
// grounding engines at every optimization level through the one
// Compile entry point, and by the set-oriented engines (semi-naive,
// LIT) on the raw program. All five engines must agree with the naive
// fixpoint on every visible relation — this is the semantics net
// under TMNF, the optimizer and the engines.
//
// The default iteration count keeps `go test ./...` fast; `make
// fuzz-smoke` raises it via MDLOG_FUZZ_N for a bounded CI fuzzing run.

// fuzzIterations reads MDLOG_FUZZ_N (default 60 programs).
func fuzzIterations(t *testing.T) int {
	if s := os.Getenv("MDLOG_FUZZ_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad MDLOG_FUZZ_N=%q", s)
		}
		return n
	}
	if testing.Short() {
		return 15
	}
	return 60
}

// fuzzVocabulary is the generator's alphabet: every unary and binary
// extensional predicate the engines accept, including the ones with
// special-case handling (child/2 forces the Theorem 5.2 rewrite on the
// linear route, child_k exercises τ_rk, dom the trivially-true check).
var (
	fuzzUnaryEDB = []string{"root", "leaf", "lastsibling", "firstsibling", "dom", "label_a", "label_b"}
	fuzzBinEDB   = []string{"firstchild", "nextsibling", "lastchild", "child", "child_2"}
	fuzzIDB      = []string{"p0", "p1", "p2", "p3"}
	fuzzVars     = []string{"X", "Y", "Z", "W"}
)

// randomMonadicProgram generates a safe monadic program with query
// predicate p0. Bodies mix extensional atoms, intensional atoms and
// the occasional propositional helper; the head variable is always
// bound by the first atom, and rules that end up unsafe are discarded.
func randomMonadicProgram(rng *rand.Rand) *datalog.Program {
	V, At, R := datalog.V, datalog.At, datalog.R
	p := &datalog.Program{Query: "p0"}
	nRules := 2 + rng.Intn(7)
	for len(p.Rules) < nRules {
		var head datalog.Atom
		if rng.Intn(8) == 0 {
			head = At("s" + strconv.Itoa(rng.Intn(2))) // propositional helper
		} else {
			head = At(fuzzIDB[rng.Intn(len(fuzzIDB))], V("X"))
		}
		var body []datalog.Atom
		add := func(v string) {
			switch rng.Intn(5) {
			case 0, 1:
				body = append(body, At(fuzzUnaryEDB[rng.Intn(len(fuzzUnaryEDB))], V(v)))
			case 2, 3:
				w := fuzzVars[rng.Intn(len(fuzzVars))]
				body = append(body, At(fuzzBinEDB[rng.Intn(len(fuzzBinEDB))], V(v), V(w)))
			default:
				body = append(body, At(fuzzIDB[rng.Intn(len(fuzzIDB))], V(v)))
			}
		}
		add("X") // bind the head variable first
		for extra := rng.Intn(3); extra > 0; extra-- {
			add(fuzzVars[rng.Intn(len(fuzzVars))])
		}
		if rng.Intn(6) == 0 {
			body = append(body, At("s"+strconv.Itoa(rng.Intn(2))))
		}
		r := R(head, body...)
		if r.IsSafe() {
			p.Add(r)
		}
	}
	return p
}

// evalThrough compiles p for one engine/level and evaluates it on tr,
// returning the visible relations.
func evalThrough(ctx context.Context, p *Program, tr *Tree, e Engine, lvl OptLevel, extract []string) (*Database, error) {
	opts := []Option{WithEngine(e), WithOptLevel(lvl), WithoutCache()}
	if len(extract) > 0 {
		opts = append(opts, WithExtract(extract...))
	}
	q, err := CompileProgram(p.Clone(), opts...)
	if err != nil {
		return nil, err
	}
	return q.Eval(ctx, tr)
}

// litOutOfFragment recognizes the LIT engine's documented rejection of
// programs outside Datalog LIT (Proposition 3.7) — a domain
// difference, not a divergence.
func litOutOfFragment(err error) bool {
	return err != nil && strings.Contains(err.Error(), "not in Datalog LIT")
}

// fuzzSeed reads MDLOG_FUZZ_SEED (default 1234), so a CI fuzzing run
// can explore fresh program/tree pairs while plain `go test` stays
// deterministic.
func fuzzSeed(t *testing.T) int64 {
	s := os.Getenv("MDLOG_FUZZ_SEED")
	if s == "" {
		return 1234
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad MDLOG_FUZZ_SEED=%q", s)
	}
	return n
}

// fuzzFusedSet builds a QuerySet over the generated programs at one
// optimization level, with every member on the given grounding engine,
// and requires every member's fused result to match its individual
// evaluation — all programs share the p0..p3/s0..s1 namespace, so this
// doubles as an apex-renaming capture test.
func fuzzFusedSet(t *testing.T, ctx context.Context, caseNo int, progs []*Program, tr *Tree, lvl OptLevel, engine Engine) {
	t.Helper()
	queries := make([]*CompiledQuery, len(progs))
	for j, p := range progs {
		q, err := CompileProgram(p.Clone(), WithOptLevel(lvl), WithEngine(engine), WithoutCache())
		if err != nil {
			t.Fatalf("case %d: compiling set member %d at %v/%v: %v\nprogram:\n%s", caseNo, j, engine, lvl, err, p)
		}
		queries[j] = q
	}
	checkFuseReference(t, fmt.Sprintf("case %d at %v/%v", caseNo, engine, lvl), queries)
	set, err := NewQuerySet(queries...)
	if err != nil {
		t.Fatalf("case %d: fusing at %v/%v: %v", caseNo, engine, lvl, err)
	}
	if set.FusedLen() != len(progs) {
		t.Fatalf("case %d: fused %d of %d %v members", caseNo, set.FusedLen(), len(progs), engine)
	}
	checkPlanOwnership(t, set)
	results := set.Run(ctx, tr)
	for j, res := range results {
		if res.Err != nil {
			t.Fatalf("case %d: fused member %d at %v/%v: %v\nprogram:\n%s", caseNo, j, engine, lvl, res.Err, progs[j])
		}
		// An all-bitmap set must run its shared pass on the bitmap
		// engine (and an all-linear one on linear).
		if res.Stats.Engine != engine.String() {
			t.Fatalf("case %d: fused member %d served by %q, want %q", caseNo, j, res.Stats.Engine, engine)
		}
		ind, err := queries[j].Eval(ctx, tr)
		if err != nil {
			t.Fatalf("case %d: individual member %d at %v: %v", caseNo, j, lvl, err)
		}
		for _, pred := range progs[j].IntensionalPreds() {
			want := ind.UnarySet(pred)
			got := res.Assignment[pred]
			if fmt.Sprint(got) != fmt.Sprint(want) && (len(got) > 0 || len(want) > 0) {
				t.Fatalf("case %d: fused member %d at %v: %s = %v, individual %v\nprogram:\n%s\ntree: %s",
					caseNo, j, lvl, pred, got, want, progs[j], tr)
			}
		}
	}
}

func TestDifferentialEngines(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(fuzzSeed(t)))
	engines := []Engine{EngineLinear, EngineBitmap}
	levels := []OptLevel{OptNone, OptFull}
	iters := fuzzIterations(t)

	for i := 0; i < iters; i++ {
		p := randomMonadicProgram(rng)
		preds := p.IntensionalPreds()
		// Two more programs over the same predicate namespace for the
		// fused-set differential below.
		setMates := []*Program{p, randomMonadicProgram(rng), randomMonadicProgram(rng)}
		for d := 0; d < 2; d++ {
			tr := tree.Random(rng, tree.RandomOptions{
				Labels: []string{"a", "b", "c"}, Size: 15 + rng.Intn(45), MaxChildren: 5})

			// Reference semantics: the naive fixpoint on the raw
			// program, which the other set-oriented engines must match.
			ref, err := eval.EvalOnTree(p, tr, eval.EngineNaive)
			if err != nil {
				t.Fatalf("case %d: reference engine failed: %v\nprogram:\n%s", i, err, p)
			}
			for _, e := range []Engine{eval.EngineSemiNaive, eval.EngineLIT} {
				db, err := eval.EvalOnTree(p, tr, e)
				if litOutOfFragment(err) {
					continue
				}
				if err != nil {
					t.Fatalf("case %d: %v failed: %v\nprogram:\n%s", i, e, err, p)
				}
				if diff := eval.SameResults(ref, db, preds); diff != "" {
					t.Fatalf("case %d: %v diverges from naive: %s\nprogram:\n%s\ntree: %s", i, e, diff, p, tr)
				}
			}
			for _, e := range engines {
				for _, lvl := range levels {
					db, err := evalThrough(ctx, p, tr, e, lvl, nil)
					if err != nil {
						t.Fatalf("case %d: %v/%v failed: %v\nprogram:\n%s", i, e, lvl, err, p)
					}
					if diff := eval.SameResults(ref, db, preds); diff != "" {
						t.Fatalf("case %d: %v/%v diverges from naive: %s\nprogram:\n%s\ntree: %s",
							i, e, lvl, diff, p, tr)
					}
				}
			}

			// Goal-directed variant: only the query predicate is
			// observable, which arms dead-rule elimination and inlining.
			want := fmt.Sprint(ref.UnarySet("p0"))
			for _, e := range engines {
				for _, lvl := range levels {
					db, err := evalThrough(ctx, p, tr, e, lvl, []string{"p0"})
					if err != nil {
						t.Fatalf("case %d: goal-directed %v/%v failed: %v\nprogram:\n%s", i, e, lvl, err, p)
					}
					if got := fmt.Sprint(db.UnarySet("p0")); got != want {
						t.Fatalf("case %d: goal-directed %v/%v selects %s, want %s\nprogram:\n%s\ntree: %s",
							i, e, lvl, got, want, p, tr)
					}
				}
			}

			// Fused-set variant: the three generated programs run as
			// one QuerySet pass and must agree with their individual
			// evaluations at both optimization levels, on both
			// grounding engines (all-linear and all-bitmap sets).
			for _, lvl := range levels {
				fuzzFusedSet(t, ctx, i, setMates, tr, lvl, EngineLinear)
				fuzzFusedSet(t, ctx, i, setMates, tr, lvl, EngineBitmap)
			}

			// Subsumption arm: a semantically identical variant of p
			// (implied duplicate conjuncts + defensive dom atoms) runs
			// beside the original in one QuerySet. Whether or not the
			// containment checker proves the equivalence (recursive
			// programs stay Unknown and evaluate normally), both
			// members must answer exactly like the reference, and
			// SubsumedRuns may be set only when Plans() reports the
			// member subsumed.
			for _, lvl := range levels {
				fuzzSubsumedPair(t, ctx, i, p, tr, lvl, want)
			}
			// Renamed-twin arm: p's compiled program beside a copy with
			// every intensional predicate renamed and the rule order
			// reversed. Dedup must merge the copy away entirely.
			for _, lvl := range levels {
				fuzzRenamedTwin(t, ctx, i, p, tr, lvl, want)
			}
			if d == 0 {
				fuzzCheckerSoundness(t, ctx, i, rng, p, tr, ref)
			}

			// Spanner arm: a random regex formula over a random tree with
			// random text/attribute content, end to end through
			// LangSpanner, against a naive reference.
			fuzzSpannerArm(t, ctx, i, rng)

			// Incremental arm: the same program delta-maintained on a
			// live document must match replay-from-scratch after each
			// edit window (tr is not used again after this).
			doc := NewDocument(tr)
			var incArms []*CompiledQuery
			for _, e := range []Engine{EngineLinear, EngineBitmap} {
				q, err := CompileProgram(p.Clone(), WithEngine(e), WithOptLevel(OptFull))
				if err != nil {
					t.Fatalf("case %d: compiling incremental %v arm: %v\nprogram:\n%s", i, e, err, p)
				}
				incArms = append(incArms, q)
			}
			for step := 0; step < 2; step++ {
				randomDocEdit(t, rng, doc, []string{"a", "b", "c"})
				want := fmt.Sprint(replayUnary(t, p, doc, []string{"p0"})["p0"])
				for _, q := range incArms {
					ids, err := selectInc(ctx, q, doc)
					if err != nil {
						t.Fatalf("case %d step %d: incremental %s: %v\nprogram:\n%s", i, step, q.EngineName(), err, p)
					}
					if got := fmt.Sprint(ids); got != want {
						t.Fatalf("case %d step %d: incremental %s selects %s, replay %s\nprogram:\n%s",
							i, step, q.EngineName(), got, want, p)
					}
				}
			}
		}
	}
}

// fuzzSpannerArm is the spanner differential: a random regex formula
// over a random tree whose nodes carry random text and attribute
// values, compiled through LangSpanner on both grounding engines at
// both optimization levels. The reference is assembled naively — the
// candidate node set from the naive engine, and the span tuples
// from Formula.NaiveEnumerate (the backtracking matcher the vset
// automaton must agree with) over each candidate's character data.
func fuzzSpannerArm(t *testing.T, ctx context.Context, caseNo int, rng *rand.Rand) {
	t.Helper()
	fsrc := span.RandomFormula(rng, 2)
	f, err := span.ParseFormula(fsrc)
	if err != nil {
		t.Fatalf("case %d: random formula /%s/ does not parse: %v", caseNo, fsrc, err)
	}
	tr := tree.Random(rng, tree.RandomOptions{
		Labels: []string{"a", "b", "c"}, Size: 8 + rng.Intn(16), MaxChildren: 4})
	for _, n := range tr.Nodes {
		if rng.Intn(4) > 0 {
			n.Text = span.RandomText(rng, 10)
		}
		if rng.Intn(3) == 0 {
			n.Attrs = map[string]string{"k": span.RandomText(rng, 10)}
		}
	}

	// One text rule gated on a random unary EDB condition, one attr
	// rule over the whole domain; both heads emit the source span plus
	// every capture variable.
	cond := fuzzUnaryEDB[rng.Intn(len(fuzzUnaryEDB))]
	var heads, outs strings.Builder
	for i := range f.Vars {
		fmt.Fprintf(&heads, ", V%d", i)
		fmt.Fprintf(&outs, ", V%d", i)
	}
	src := fmt.Sprintf(`
		cand(X) :- %s(X).
		sp(X, S%s) :- cand(X), text(X, S), match(S, /%s/%s).
		spa(X, A%s) :- attr(X, "k", A), match(A, /%s/%s).
		?- cand.
	`, cond, heads.String(), fsrc, outs.String(), heads.String(), fsrc, outs.String())

	// Naive reference rows, encoded "node [s e] [s e]...".
	naiveRows := func(ids []int, data func(int) (string, bool)) []string {
		seen := map[string]bool{}
		var rows []string
		for _, id := range ids {
			text, ok := data(id)
			if !ok {
				continue
			}
			for _, marks := range f.NaiveEnumerate(text) {
				row := fmt.Sprintf("%d [0 %d]", id, len(text))
				for v := range f.Vars {
					row += fmt.Sprintf(" [%d %d]", marks[2*v], marks[2*v+1])
				}
				if !seen[row] {
					seen[row] = true
					rows = append(rows, row)
				}
			}
		}
		sort.Strings(rows)
		return rows
	}
	candDB, err := eval.EvalOnTree(datalog.MustParseProgram(fmt.Sprintf("cand(X) :- %s(X).", cond)), tr, eval.EngineNaive)
	if err != nil {
		t.Fatalf("case %d: reference candidates: %v", caseNo, err)
	}
	cands := candDB.UnarySet("cand")
	all := make([]int, len(tr.Nodes))
	for i := range all {
		all[i] = i
	}
	// text(X, S) fails on a node without character data (an empty attr
	// value, by contrast, is a present value) — mirror that here.
	wantSp := naiveRows(cands, func(id int) (string, bool) {
		return tr.Nodes[id].Text, tr.Nodes[id].Text != ""
	})
	wantSpa := naiveRows(all, func(id int) (string, bool) {
		v, ok := tr.Nodes[id].Attrs["k"]
		return v, ok
	})

	gotRows := func(res SpanResult, rel string) []string {
		var rows []string
		if r := res.Rel(rel); r != nil {
			for _, row := range r.Rows {
				s := fmt.Sprint(row.Node)
				for _, sp := range row.Spans {
					s += fmt.Sprintf(" [%d %d]", sp.Start, sp.End)
				}
				rows = append(rows, s)
			}
		}
		sort.Strings(rows)
		return rows
	}
	for _, e := range []Engine{EngineLinear, EngineBitmap} {
		for _, lvl := range []OptLevel{OptNone, OptFull} {
			q, err := Compile(src, LangSpanner, WithEngine(e), WithOptLevel(lvl), WithoutCache())
			if err != nil {
				t.Fatalf("case %d: spanner %v/%v compile: %v\nprogram:\n%s", caseNo, e, lvl, err, src)
			}
			res, err := q.Spans(ctx, tr)
			if err != nil {
				t.Fatalf("case %d: spanner %v/%v run: %v\nprogram:\n%s", caseNo, e, lvl, err, src)
			}
			for rel, want := range map[string][]string{"sp": wantSp, "spa": wantSpa} {
				if got := gotRows(res, rel); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("case %d: spanner %v/%v %s = %v, naive reference %v\nformula: /%s/\nprogram:\n%s\ntree: %s",
						caseNo, e, lvl, rel, got, want, fsrc, src, tr)
				}
			}
		}
	}
}

// subsumeVariant builds a semantically identical restatement of p: in
// every rule body, the first atom is duplicated with all its variables
// renamed fresh (a conjunct implied by the original body never changes
// the derived heads, stage by stage of the fixpoint), and unary heads
// get a defensive dom atom over the head variable (dom is the full
// domain on every tree). Neither change is α-invisible, so plain dedup
// cannot merge the variant with p — only the containment checker can.
func subsumeVariant(p *Program) *Program {
	out := p.Clone()
	n := 0
	for ri := range out.Rules {
		r := &out.Rules[ri]
		if len(r.Body) == 0 {
			continue
		}
		n++
		cp := r.Body[0].Clone()
		for j, tm := range cp.Args {
			if tm.IsVar() {
				cp.Args[j] = datalog.V(fmt.Sprintf("%s_dup%d", tm.Var, n))
			}
		}
		r.Body = append(r.Body, cp)
		if len(r.Head.Args) == 1 && r.Head.Args[0].IsVar() {
			r.Body = append(r.Body, datalog.At("dom", r.Head.Args[0]))
		}
	}
	return out
}

// fuzzSubsumedPair runs p and its subsumeVariant as one QuerySet and
// requires (a) both members answer the reference p0 set, (b) the
// SubsumedRuns flag agrees with the compile-time Plans() decision, and
// (c) a subsumed member's whole assignment matches its individual
// evaluation (the projection path hides no relation).
func fuzzSubsumedPair(t *testing.T, ctx context.Context, caseNo int, p *Program, tr *Tree, lvl OptLevel, want string) {
	t.Helper()
	variant := subsumeVariant(p)
	q1, err := CompileProgram(p.Clone(), WithOptLevel(lvl), WithoutCache())
	if err != nil {
		t.Fatalf("case %d: compiling original at %v: %v\nprogram:\n%s", caseNo, lvl, err, p)
	}
	q2, err := CompileProgram(variant.Clone(), WithOptLevel(lvl), WithoutCache())
	if err != nil {
		t.Fatalf("case %d: compiling variant at %v: %v\nprogram:\n%s", caseNo, lvl, err, variant)
	}
	set, err := NewNamedQuerySet(
		NamedQuery{Name: "orig", Query: q1},
		NamedQuery{Name: "variant", Query: q2},
	)
	if err != nil {
		t.Fatalf("case %d: fusing subsumption pair at %v: %v", caseNo, lvl, err)
	}
	plans := set.Plans()
	res := set.Run(ctx, tr)
	for j, r := range res {
		if r.Err != nil {
			t.Fatalf("case %d: subsumption pair member %d at %v: %v\nprogram:\n%s", caseNo, j, lvl, r.Err, variant)
		}
		if got := fmt.Sprint(r.IDs); got != want {
			t.Fatalf("case %d: subsumption pair member %s at %v selects %s, want %s\noriginal:\n%s\nvariant:\n%s\ntree: %s",
				caseNo, r.Name, lvl, got, want, p, variant, tr)
		}
		wantSub := int64(0)
		if plans[j].Subsumed {
			wantSub = 1
		}
		if r.Stats.SubsumedRuns != wantSub {
			t.Fatalf("case %d: member %s SubsumedRuns=%d, plan %+v", caseNo, r.Name, r.Stats.SubsumedRuns, plans[j])
		}
	}
	// The variant's full assignment must match its own individual
	// evaluation even when served by projection.
	ind, err := q2.Eval(ctx, tr)
	if err != nil {
		t.Fatalf("case %d: individual variant at %v: %v", caseNo, lvl, err)
	}
	for _, pred := range variant.IntensionalPreds() {
		got, wantIDs := res[1].Assignment[pred], ind.UnarySet(pred)
		if fmt.Sprint(got) != fmt.Sprint(wantIDs) && (len(got) > 0 || len(wantIDs) > 0) {
			t.Fatalf("case %d: variant %s = %v via set, %v individually\nvariant:\n%s", caseNo, pred, got, wantIDs, variant)
		}
	}
}

// fuzzRenamedTwin fuses p, compiled at lvl, with a twin: its
// post-optimization program with every intensional predicate renamed
// and the rules in reverse order, compiled as is. The twin is the same
// program up to names, so dedup's partition refinement must merge every
// twin predicate into p's — the twin owns no fused rule — and both
// members must select the reference p0 set.
func fuzzRenamedTwin(t *testing.T, ctx context.Context, caseNo int, p *Program, tr *Tree, lvl OptLevel, want string) {
	t.Helper()
	q, err := CompileProgram(p.Clone(), WithOptLevel(lvl), WithoutCache())
	if err != nil {
		t.Fatalf("case %d: compiling original at %v: %v\nprogram:\n%s", caseNo, lvl, err, p)
	}
	post := groundingOf(q.plan).Program()
	twin := post.Clone()
	rename := func(pred string) string { return "twin_" + pred }
	idb := map[string]bool{}
	for _, pred := range twin.IntensionalPreds() {
		idb[pred] = true
	}
	slices.Reverse(twin.Rules)
	for ri := range twin.Rules {
		r := &twin.Rules[ri]
		r.Head.Pred = rename(r.Head.Pred)
		for j := range r.Body {
			if idb[r.Body[j].Pred] {
				r.Body[j].Pred = rename(r.Body[j].Pred)
			}
		}
	}
	twin.Query = rename(post.Query)
	tq, err := CompileProgram(twin, WithOptLevel(OptNone), WithExtract(twin.Query), WithoutCache())
	if err != nil {
		t.Fatalf("case %d: compiling twin at %v: %v\ntwin:\n%s", caseNo, lvl, err, twin)
	}
	checkFuseReference(t, fmt.Sprintf("case %d: renamed twin at %v", caseNo, lvl), []*CompiledQuery{q, tq})
	set, err := NewNamedQuerySet(NamedQuery{Name: "orig", Query: q}, NamedQuery{Name: "twin", Query: tq})
	if err != nil {
		t.Fatalf("case %d: fusing renamed twin at %v: %v", caseNo, lvl, err)
	}
	if rules := set.Plans()[1].Rules; rules != 0 {
		t.Fatalf("case %d: renamed twin at %v owns %d fused rules, want 0\nprogram:\n%s\ntwin:\n%s",
			caseNo, lvl, rules, post, twin)
	}
	for _, r := range set.Run(ctx, tr) {
		if r.Err != nil {
			t.Fatalf("case %d: renamed twin pair member %s at %v: %v", caseNo, r.Name, lvl, r.Err)
		}
		if got := fmt.Sprint(r.IDs); got != want {
			t.Fatalf("case %d: renamed twin pair member %s at %v selects %s, want %s\nprogram:\n%s\ntree: %s",
				caseNo, r.Name, lvl, got, want, post, tr)
		}
	}
}

// fuzzCheckerSoundness cross-examines the containment checker on a
// pair with known semantics: ext = p plus extra rules, so p ⊆ ext
// holds on every tree. A NotContained verdict in that direction is a
// checker bug; a Contained verdict in either direction is re-verified
// by evaluation on tr; a NotContained verdict for ext ⊆ p must carry a
// witness that separates the two programs when re-evaluated.
func fuzzCheckerSoundness(t *testing.T, ctx context.Context, caseNo int, rng *rand.Rand, p *Program, tr *Tree, ref *Database) {
	t.Helper()
	ext := p.Clone()
	extra := randomMonadicProgram(rng)
	ext.Rules = append(ext.Rules, extra.Rules...)
	copts := &opt.ContainOptions{Refute: refute.Options{Trees: 60}}

	evalP0 := func(prog *Program) map[int]bool {
		db, err := eval.EvalOnTree(prog, tr, eval.EngineSemiNaive)
		if err != nil {
			t.Fatalf("case %d: evaluating for checker verification: %v\nprogram:\n%s", caseNo, err, prog)
		}
		out := map[int]bool{}
		for _, v := range db.UnarySet("p0") {
			out[v] = true
		}
		return out
	}

	r, _ := opt.CheckContainment(p, "p0", ext, "p0", copts)
	if r == opt.NotContained {
		t.Fatalf("case %d: checker refuted p ⊆ p+rules, which holds universally\np:\n%s\next:\n%s", caseNo, p, ext)
	}
	if r == opt.Contained {
		sup := evalP0(ext)
		for v := range evalP0(p) {
			if !sup[v] {
				t.Fatalf("case %d: checker proved p ⊆ ext but node %d violates it on tr\np:\n%s\next:\n%s\ntree: %s",
					caseNo, v, p, ext, tr)
			}
		}
	}

	rBack, w := opt.CheckContainment(ext, "p0", p, "p0", copts)
	switch rBack {
	case opt.Contained:
		sub := evalP0(p)
		for v := range evalP0(ext) {
			if !sub[v] {
				t.Fatalf("case %d: checker proved ext ⊆ p but node %d violates it on tr\np:\n%s\next:\n%s\ntree: %s",
					caseNo, v, p, ext, tr)
			}
		}
	case opt.NotContained:
		if w == nil || w.Tree == nil {
			t.Fatalf("case %d: NotContained without witness", caseNo)
		}
		db1, err := eval.EvalOnTree(ext, w.Tree, eval.EngineSemiNaive)
		if err != nil {
			t.Fatalf("case %d: re-evaluating witness: %v", caseNo, err)
		}
		db2, err := eval.EvalOnTree(p, w.Tree, eval.EngineSemiNaive)
		if err != nil {
			t.Fatalf("case %d: re-evaluating witness: %v", caseNo, err)
		}
		in := func(vs []int, n int) bool {
			for _, v := range vs {
				if v == n {
					return true
				}
			}
			return false
		}
		if !in(db1.UnarySet("p0"), w.Node) || in(db2.UnarySet("p0"), w.Node) {
			t.Fatalf("case %d: witness node %d does not separate ext from p\np:\n%s\next:\n%s\nwitness tree: %s",
				caseNo, w.Node, p, ext, w.Tree)
		}
	}
}
