package mdlog

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// querySetPage is a small product table exercising label tests, child
// navigation and sibling structure across all member languages.
const querySetPage = `<html><body><table>
<tr><td>Espresso</td><td><b>2.20</b></td><td><em>in stock</em></td></tr>
<tr><td>Water</td><td>1.00</td><td><em>out</em></td></tr>
<tr><td>Cake</td><td><b>3.10</b></td><td><em>in stock</em></td></tr>
</table></body></html>`

// querySetSpecs is a mixed-language member pool: XPath, Elog⁻, MSO,
// caterpillar and raw datalog, so sets drawn from it always mix fused
// (linear datalog) and unfused (automaton) members.
func querySetSpecs() []SetSpec {
	return []SetSpec{
		{Name: "xpath-td-b", Source: `//td[b]`, Lang: LangXPath},
		{Name: "elog-prices", Source: `
item(x)  :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- item(x0), subelem("td.b", x0, x).
`, Lang: LangElog, Options: []Option{WithQueryPred("price")}},
		{Name: "mso-td-b", Source: `label_td(x) & exists y (child(x,y) & label_b(y))`, Lang: LangMSO},
		{Name: "cat-td", Source: `child*.label_td`, Lang: LangCaterpillar},
		{Name: "dl-rows", Source: `row(X) :- label_tr(X), child(X,Y), label_td(Y). ?- row.`, Lang: LangDatalog},
	}
}

// compileQuerySetMember compiles one spec with an engine/opt override
// appended, so the differential suite can sweep the full matrix.
func compileQuerySetMember(t *testing.T, sp SetSpec, extra ...Option) *CompiledQuery {
	t.Helper()
	q, err := Compile(sp.Source, sp.Lang, append(append([]Option{}, sp.Options...), extra...)...)
	if err != nil {
		t.Fatalf("compiling %s: %v", sp.Name, err)
	}
	return q
}

// assignString renders an assignment deterministically for comparison.
func assignString(a Assignment) string {
	var parts []string
	for _, pred := range sortedKeys(a) {
		parts = append(parts, fmt.Sprintf("%s=%v", pred, a[pred]))
	}
	return strings.Join(parts, " ")
}

func sortedKeys(a Assignment) []string {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

// TestQuerySetDifferential locks the fusion contract: for each engine
// × optimization level, QuerySet.Run returns bit-identical results to
// the per-query Select/Assign path, for every member of a
// mixed-language set.
func TestQuerySetDifferential(t *testing.T) {
	ctx := context.Background()
	doc := ParseHTML(querySetPage)
	specs := querySetSpecs()
	for _, engine := range []Engine{EngineLinear, EngineBitmap} {
		for _, lvl := range []OptLevel{OptNone, OptFull} {
			t.Run(fmt.Sprintf("%v-%v", engine, lvl), func(t *testing.T) {
				var members []NamedQuery
				var individual []*CompiledQuery
				for _, sp := range specs {
					members = append(members, NamedQuery{Name: sp.Name,
						Query: compileQuerySetMember(t, sp, WithEngine(engine), WithOptLevel(lvl))})
					individual = append(individual, compileQuerySetMember(t, sp, WithEngine(engine), WithOptLevel(lvl)))
				}
				set, err := NewNamedQuerySet(members...)
				if err != nil {
					t.Fatal(err)
				}
				results := set.Run(ctx, doc)
				if len(results) != len(specs) {
					t.Fatalf("got %d results, want %d", len(results), len(specs))
				}
				for i, res := range results {
					q := individual[i]
					if res.Err != nil {
						// Error isolation: the member's failure must
						// mirror the individual path, and the other
						// members must be unaffected.
						if _, ierr := q.Eval(ctx, doc); ierr == nil || ierr.Error() != res.Err.Error() {
							t.Fatalf("%s: fused err %v, individual err %v", res.Name, res.Err, ierr)
						}
						continue
					}
					if q.QueryPred() != "" {
						ids, err := q.Select(ctx, doc)
						if err != nil {
							t.Fatalf("%s: individual Select: %v", res.Name, err)
						}
						if fmt.Sprint(res.IDs) != fmt.Sprint(ids) {
							t.Errorf("%s: fused IDs %v, individual %v", res.Name, res.IDs, ids)
						}
					}
					ind := q.Run(ctx, doc)
					if ind.Err != nil {
						t.Fatalf("%s: individual Run: %v", res.Name, ind.Err)
					}
					if a := ind.Assignment; assignString(res.Assignment) != assignString(a) {
						t.Errorf("%s: fused assignment %q, individual %q",
							res.Name, assignString(res.Assignment), assignString(a))
					}
				}
			})
		}
	}
}

// TestQuerySetFusesLinearMembers checks the fused pass actually covers
// the datalog-routed members and merges their shared chains.
func TestQuerySetFusesLinearMembers(t *testing.T) {
	set, err := CompileSet(querySetSpecs())
	if err != nil {
		t.Fatal(err)
	}
	// xpath, elog, caterpillar and datalog route through the linear
	// engine; the MSO member runs its automaton unfused.
	if got, want := set.FusedLen(), 4; got != want {
		t.Fatalf("FusedLen = %d, want %d", got, want)
	}
	rep := set.FuseStats()
	if rep.Members != 4 || rep.RulesIn == 0 || rep.RulesOut == 0 {
		t.Fatalf("implausible fuse report: %+v", rep)
	}
	if rep.RulesOut > rep.RulesIn {
		t.Fatalf("fusion grew the program: %+v", rep)
	}
}

// TestQuerySetSharedChainDedup fuses near-identical wrappers and
// requires the shared auxiliary chains to be merged, not just
// concatenated.
func TestQuerySetSharedChainDedup(t *testing.T) {
	mk := func(leaf string) SetSpec {
		return SetSpec{Source: fmt.Sprintf(`
item(x) :- root(x0), subelem("html.body.table.tr", x0, x).
f(x)    :- item(x0), subelem(%q, x0, x).
`, leaf), Lang: LangElog, Options: []Option{WithQueryPred("f")}}
	}
	set, err := CompileSet([]SetSpec{mk("td.b"), mk("td.em"), mk("td.b")})
	if err != nil {
		t.Fatal(err)
	}
	rep := set.FuseStats()
	if rep.MergedPreds == 0 || rep.MergedRules == 0 {
		t.Fatalf("expected shared-chain merging, got %+v", rep)
	}
	// The three members share the item chain (and two are identical),
	// so the fused program must be well under the concatenated size.
	if rep.RulesOut*2 > rep.RulesIn {
		t.Fatalf("weak dedup: %+v", rep)
	}
	// And the duplicate third member must still answer independently.
	doc := ParseHTML(querySetPage)
	results := set.Run(context.Background(), doc)
	if fmt.Sprint(results[0].IDs) != fmt.Sprint(results[2].IDs) {
		t.Fatalf("identical members disagree: %v vs %v", results[0].IDs, results[2].IDs)
	}
	if fmt.Sprint(results[0].IDs) == fmt.Sprint(results[1].IDs) {
		t.Fatalf("distinct members agree unexpectedly: %v", results[0].IDs)
	}
}

// TestQuerySetNoQueryPredMember: a member without a distinguished
// query predicate gets nil IDs but a populated assignment — matching
// the individual Select (error) / Assign (works) contract.
func TestQuerySetNoQueryPredMember(t *testing.T) {
	set, err := CompileSet([]SetSpec{
		{Name: "multi", Source: `
a(X) :- label_td(X).
b(X) :- label_em(X).
`, Lang: LangDatalog},
		{Name: "xp", Source: `//td`, Lang: LangXPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := ParseHTML(querySetPage)
	results := set.Run(context.Background(), doc)
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("unexpected errors: %v, %v", results[0].Err, results[1].Err)
	}
	if results[0].IDs != nil {
		t.Fatalf("member without query predicate got IDs %v", results[0].IDs)
	}
	if len(results[0].Assignment["a"]) == 0 {
		t.Fatalf("assignment missing: %v", results[0].Assignment)
	}
}

// TestQuerySetMemoHit: the second Run on the same document must be
// served from the fused result memo.
func TestQuerySetMemoHit(t *testing.T) {
	set, err := CompileSet([]SetSpec{
		{Source: `//td[b]`, Lang: LangXPath},
		{Source: `//td`, Lang: LangXPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	doc := ParseHTML(querySetPage)
	ctx := context.Background()
	first := set.Run(ctx, doc)
	second := set.Run(ctx, doc)
	for i := range first {
		if fmt.Sprint(first[i].IDs) != fmt.Sprint(second[i].IDs) {
			t.Fatalf("memoized run diverges: %v vs %v", first[i].IDs, second[i].IDs)
		}
	}
	if second[0].Stats.CacheHits == 0 {
		t.Fatalf("second run not served from memo: %+v", second[0].Stats)
	}
	if st := set.Stats(); st.Runs != 2 || st.CacheHits == 0 {
		t.Fatalf("set aggregate: %+v", st)
	}
}

// TestQuerySetFusedRunsStats: fused members record FusedRuns on their
// own aggregates (the counter /stats and /metrics surface per
// wrapper).
func TestQuerySetFusedRunsStats(t *testing.T) {
	q1 := mustCompileQS(t, `//td[b]`, LangXPath)
	q2 := mustCompileQS(t, `//td`, LangXPath)
	set, err := NewQuerySet(q1, q2)
	if err != nil {
		t.Fatal(err)
	}
	doc := ParseHTML(querySetPage)
	set.Run(context.Background(), doc)
	if st := q1.Stats(); st.FusedRuns != 1 || st.Runs != 1 {
		t.Fatalf("q1 stats: %+v", st)
	}
	// An individual run afterwards must not count as fused.
	if _, err := q1.Select(context.Background(), doc); err != nil {
		t.Fatal(err)
	}
	if st := q1.Stats(); st.FusedRuns != 1 || st.Runs != 2 {
		t.Fatalf("q1 stats after individual run: %+v", st)
	}
}

func mustCompileQS(t *testing.T, src string, lang Language, opts ...Option) *CompiledQuery {
	t.Helper()
	q, err := Compile(src, lang, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestRunnerSetAll: the MapAll fan-out of a whole set preserves order
// and per-member results, race-clean under -race.
func TestRunnerSetAll(t *testing.T) {
	set, err := CompileSet(querySetSpecs())
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]*Tree, 16)
	for i := range docs {
		docs[i] = ParseHTML(querySetPage)
	}
	res := MapAll(context.Background(), Runner{Workers: 8}, docs,
		func(ctx context.Context, t *Tree) ([]SetResult, error) { return set.Run(ctx, t), nil })
	if len(res) != len(docs) {
		t.Fatalf("got %d results", len(res))
	}
	want := set.Run(context.Background(), docs[0])
	for _, dr := range res {
		if dr.Err != nil {
			t.Fatalf("doc %d: %v", dr.Index, dr.Err)
		}
		for i, r := range dr.Value {
			if r.Err != nil {
				t.Fatalf("doc %d member %s: %v", dr.Index, r.Name, r.Err)
			}
			if fmt.Sprint(r.IDs) != fmt.Sprint(want[i].IDs) {
				t.Fatalf("doc %d member %s: %v, want %v", dr.Index, r.Name, r.IDs, want[i].IDs)
			}
		}
	}
}

// TestRunnerSetHTMLStream: a failing reader marks only its own
// document; the other documents still parse and evaluate every
// member.
func TestRunnerSetHTMLStream(t *testing.T) {
	set, err := CompileSet([]SetSpec{
		{Source: `//td[b]`, Lang: LangXPath},
		{Source: `//em`, Lang: LangXPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs := make(chan io.Reader, 3)
	srcs <- strings.NewReader(querySetPage)
	srcs <- &failingReader{prefix: "<html><td>", err: fmt.Errorf("stream cut")}
	srcs <- strings.NewReader(querySetPage)
	close(srcs)
	// Parse inside the pool; a member's failure would land in its own
	// SetResult, a read failure in the document's Err.
	setHTML := func(ctx context.Context, rd io.Reader) ([]SetResult, error) {
		doc, err := ParseHTMLReader(rd)
		if err != nil {
			return nil, err
		}
		return set.Run(ctx, doc), nil
	}
	var got []Result[[]SetResult]
	for res := range Map(context.Background(), Runner{Workers: 2}, srcs, setHTML) {
		got = append(got, res)
	}
	if len(got) != 3 {
		t.Fatalf("got %d results", len(got))
	}
	if got[1].Err == nil || got[1].Value != nil {
		t.Fatalf("failing document not isolated: %+v", got[1])
	}
	for _, i := range []int{0, 2} {
		if got[i].Err != nil {
			t.Fatalf("doc %d: %v", i, got[i].Err)
		}
		if len(got[i].Value) != 2 || got[i].Value[0].Err != nil {
			t.Fatalf("doc %d results: %+v", i, got[i].Value)
		}
		if len(got[i].Value[0].IDs) == 0 || len(got[i].Value[1].IDs) == 0 {
			t.Fatalf("doc %d selected nothing: %+v", i, got[i].Value)
		}
	}
}

// TestQuerySetConcurrentRun hammers one set from many goroutines (the
// race detector validates the fused memo and atomic stats).
func TestQuerySetConcurrentRun(t *testing.T) {
	set, err := CompileSet(querySetSpecs())
	if err != nil {
		t.Fatal(err)
	}
	second, err := ParseTree("html(body(table(tr(td,td(b)))))")
	if err != nil {
		t.Fatal(err)
	}
	docs := []*Tree{ParseHTML(querySetPage), second}
	want := make([][]SetResult, len(docs))
	for i, d := range docs {
		want[i] = set.Run(context.Background(), d)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				d := r % len(docs)
				got := set.Run(context.Background(), docs[d])
				for i := range got {
					if got[i].Err != nil || fmt.Sprint(got[i].IDs) != fmt.Sprint(want[d][i].IDs) {
						panic(fmt.Sprintf("concurrent divergence on doc %d member %d", d, i))
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestQuerySetForgetCoversUnfusedMembers: the set's cache holds the
// unfused members' memos too, so one Cache().Forget invalidates the
// whole set's state for a document (regression: unfused members used
// to memoize in their own per-query caches, which Forget on the set
// cache never touched).
func TestQuerySetForgetCoversUnfusedMembers(t *testing.T) {
	ctx := context.Background()
	set, err := CompileSet([]SetSpec{
		{Name: "xp", Source: `//td`, Lang: LangXPath},
		{Name: "mso", Source: `label_td(x)`, Lang: LangMSO}, // automaton: unfused
	})
	if err != nil {
		t.Fatal(err)
	}
	if set.FusedLen() != 0 {
		t.Fatalf("FusedLen = %d, want 0 (one linear member is not fused)", set.FusedLen())
	}
	doc := ParseHTML(querySetPage)
	set.Run(ctx, doc)
	second := set.Run(ctx, doc)
	for _, res := range second {
		if res.Stats.CacheHits != 1 {
			t.Fatalf("%s: second run not served from the set cache: %+v", res.Name, res.Stats)
		}
	}
	set.Cache().Forget(doc)
	third := set.Run(ctx, doc)
	for _, res := range third {
		if res.Stats.CacheHits != 0 {
			t.Fatalf("%s: Forget did not clear the member's memo: %+v", res.Name, res.Stats)
		}
	}
}

// TestQuerySetRespectsWithoutCache: a member compiled WithoutCache
// keeps its no-memoization contract inside a set — repeat runs never
// report cache hits, fused or not.
func TestQuerySetRespectsWithoutCache(t *testing.T) {
	ctx := context.Background()
	doc := ParseHTML(querySetPage)
	// Fused pair with one opted-out member: the shared pass must not
	// memoize.
	set, err := CompileSet([]SetSpec{
		{Name: "a", Source: `//td[b]`, Lang: LangXPath, Options: []Option{WithoutCache()}},
		{Name: "b", Source: `//td`, Lang: LangXPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	set.Run(ctx, doc)
	for _, res := range set.Run(ctx, doc) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Stats.CacheHits != 0 {
			t.Fatalf("%s: fused pass memoized despite WithoutCache member: %+v", res.Name, res.Stats)
		}
	}
	// Unfused opted-out member: same contract.
	set2, err := CompileSet([]SetSpec{
		{Name: "mso", Source: `label_td(x)`, Lang: LangMSO, Options: []Option{WithoutCache()}},
		{Name: "xp", Source: `//td`, Lang: LangXPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	set2.Run(ctx, doc)
	second := set2.Run(ctx, doc)
	if second[0].Stats.CacheHits != 0 {
		t.Fatalf("unfused WithoutCache member memoized: %+v", second[0].Stats)
	}
	if second[1].Stats.CacheHits != 1 {
		t.Fatalf("cached member should hit the set memo: %+v", second[1].Stats)
	}
}

// TestQuerySetAggregateFacts: the set-level aggregate accumulates the
// members' result-fact counts (regression: Stats().Facts was always 0).
func TestQuerySetAggregateFacts(t *testing.T) {
	set, err := CompileSet([]SetSpec{
		{Source: `//td`, Lang: LangXPath},
		{Source: `//em`, Lang: LangXPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	set.Run(context.Background(), ParseHTML(querySetPage))
	if st := set.Stats(); st.Facts == 0 {
		t.Fatalf("set aggregate lost the fact counts: %+v", st)
	}
}

// TestQuerySetSubsumption: a member whose query is a semantically
// equal but syntactically different restatement of another's must be
// answered by projection — zero rules of its own in the fused program,
// SubsumedRuns recorded, results identical to running it alone.
func TestQuerySetSubsumption(t *testing.T) {
	ctx := context.Background()
	base := mustCompileQS(t, `q(X) :- firstchild(X,Y), label_td(Y). ?- q.`, LangDatalog)
	// Duplicated join fragment + defensive dom: not α-equivalent, only
	// the containment checker can prove it equal.
	variant := mustCompileQS(t, `q(X) :- dom(X), firstchild(X,Z), label_td(Z), firstchild(X,W), label_td(W). ?- q.`, LangDatalog)
	set, err := NewNamedQuerySet(
		NamedQuery{Name: "base", Query: base},
		NamedQuery{Name: "variant", Query: variant},
	)
	if err != nil {
		t.Fatal(err)
	}
	plans := set.Plans()
	if len(plans) != 2 {
		t.Fatalf("plans: %+v", plans)
	}
	if plans[0].Subsumed || !plans[0].Fused || plans[0].Rules == 0 {
		t.Fatalf("base plan: %+v", plans[0])
	}
	if !plans[1].Subsumed || plans[1].SharedWith != "base" || plans[1].Rules != 0 {
		t.Fatalf("variant plan: %+v", plans[1])
	}
	if plans[0].Class != plans[1].Class {
		t.Fatalf("equivalent members must share a class: %+v", plans)
	}
	if rep := set.FuseStats(); rep.SubsumedPreds != 1 {
		t.Fatalf("fuse report: %+v", rep)
	}

	doc := ParseHTML(querySetPage)
	res := set.Run(ctx, doc)
	for _, r := range res {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
	}
	// Projection answers must match a direct individual evaluation.
	solo := mustCompileQS(t, `q(X) :- dom(X), firstchild(X,Z), label_td(Z), firstchild(X,W), label_td(W). ?- q.`, LangDatalog)
	want, err := solo.Select(ctx, ParseHTML(querySetPage))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res[1].IDs) != fmt.Sprint(want) {
		t.Fatalf("subsumed member answers %v, direct evaluation %v", res[1].IDs, want)
	}
	if fmt.Sprint(res[0].IDs) != fmt.Sprint(res[1].IDs) {
		t.Fatalf("equivalent members disagree: %v vs %v", res[0].IDs, res[1].IDs)
	}
	// Stats: the subsumed member's run is flagged, the representative's
	// is not.
	if st := res[1].Stats; st.SubsumedRuns != 1 || st.FusedRuns != 1 {
		t.Fatalf("variant run stats: %+v", st)
	}
	if st := res[0].Stats; st.SubsumedRuns != 0 {
		t.Fatalf("base run stats: %+v", st)
	}
	if st := variant.Stats(); st.SubsumedRuns != 1 || st.Runs != 1 {
		t.Fatalf("variant lifetime stats: %+v", st)
	}
	if st := base.Stats(); st.SubsumedRuns != 0 || st.Runs != 1 {
		t.Fatalf("base lifetime stats: %+v", st)
	}

	// RunIncremental attributes the same way: it shares Run's member
	// loop, so the subsumed member's maintained run is flagged too.
	inc := set.RunIncremental(ctx, NewDocument(ParseHTML(querySetPage)))
	for i, r := range inc {
		if r.Err != nil {
			t.Fatalf("incremental %s: %v", r.Name, r.Err)
		}
		if fmt.Sprint(r.IDs) != fmt.Sprint(res[i].IDs) {
			t.Fatalf("incremental %s answers %v, Run %v", r.Name, r.IDs, res[i].IDs)
		}
	}
	if st := inc[1].Stats; st.SubsumedRuns != 1 || st.FusedRuns != 1 {
		t.Fatalf("incremental variant run stats: %+v", st)
	}
	if st := inc[0].Stats; st.SubsumedRuns != 0 {
		t.Fatalf("incremental base run stats: %+v", st)
	}
	if st := variant.Stats(); st.SubsumedRuns != 2 || st.Runs != 2 {
		t.Fatalf("variant lifetime stats after RunIncremental: %+v", st)
	}
}

// TestQuerySetSubsumptionDistinctKeptApart: near-miss members (proper
// containment, not equivalence) must both keep their rules and answer
// independently.
func TestQuerySetSubsumptionDistinctKeptApart(t *testing.T) {
	ctx := context.Background()
	all := mustCompileQS(t, `q(X) :- label_td(X). ?- q.`, LangDatalog)
	some := mustCompileQS(t, `q(X) :- label_td(X), firstchild(X,Y), label_b(Y). ?- q.`, LangDatalog)
	set, err := NewNamedQuerySet(
		NamedQuery{Name: "all", Query: all},
		NamedQuery{Name: "some", Query: some},
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range set.Plans() {
		if p.Subsumed {
			t.Fatalf("proper containment wrongly subsumed: %+v", p)
		}
	}
	doc := ParseHTML(querySetPage)
	res := set.Run(ctx, doc)
	if fmt.Sprint(res[0].IDs) == fmt.Sprint(res[1].IDs) {
		t.Fatalf("distinct queries must differ on this page: %v", res[0].IDs)
	}
	for _, r := range res {
		if r.Stats.SubsumedRuns != 0 {
			t.Fatalf("%s: %+v", r.Name, r.Stats)
		}
	}
}

// TestQuerySetRebuildUnfoldsChangedMembers pins FuseReport.Unfolded: a
// first build computes every fused member's UCQ signatures, a rebuild
// with one member replaced by a freshly compiled query computes only
// that member's, and a rebuild over the same queries computes none —
// and the memo never changes what fusion decides.
func TestQuerySetRebuildUnfoldsChangedMembers(t *testing.T) {
	specs := querySetSpecs()
	members := make([]NamedQuery, len(specs))
	for i, sp := range specs {
		members[i] = NamedQuery{Name: sp.Name, Query: compileQuerySetMember(t, sp)}
	}
	build := func() FuseReport {
		t.Helper()
		set, err := NewNamedQuerySet(members...)
		if err != nil {
			t.Fatal(err)
		}
		return set.FuseStats()
	}
	first := build()
	if first.Members < 2 || first.Unfolded != first.Members {
		t.Fatalf("first build unfolded %d of %d fused members", first.Unfolded, first.Members)
	}
	const replaced = 4 // dl-rows, a fused member
	members[replaced].Query = compileQuerySetMember(t, specs[replaced])
	second := build()
	if second.Unfolded != 1 {
		t.Fatalf("rebuild after replacing one member unfolded %d members, want 1", second.Unfolded)
	}
	third := build()
	if third.Unfolded != 0 {
		t.Fatalf("rebuild over the same queries unfolded %d members, want 0", third.Unfolded)
	}
	for _, rep := range []*FuseReport{&first, &second, &third} {
		rep.Unfolded, rep.CheckNs = 0, 0
	}
	if first != second || second != third {
		t.Fatalf("fuse reports differ across rebuilds: %+v, %+v, %+v", first, second, third)
	}
}

// TestQuerySetConcurrentBuilds builds sets concurrently from shared
// compiled queries: every member's signatures are computed exactly
// once among all builds, and every build fuses alike.
func TestQuerySetConcurrentBuilds(t *testing.T) {
	specs := querySetSpecs()
	members := make([]NamedQuery, len(specs))
	for i, sp := range specs {
		members[i] = NamedQuery{Name: sp.Name, Query: compileQuerySetMember(t, sp)}
	}
	const builds = 8
	reps := make([]FuseReport, builds)
	errs := make([]error, builds)
	var wg sync.WaitGroup
	for b := range builds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			set, err := NewNamedQuerySet(members...)
			if err != nil {
				errs[b] = err
				return
			}
			reps[b] = set.FuseStats()
		}()
	}
	wg.Wait()
	unfolded := 0
	for b := range builds {
		if errs[b] != nil {
			t.Fatal(errs[b])
		}
		unfolded += reps[b].Unfolded
		reps[b].Unfolded, reps[b].CheckNs = 0, 0
		if reps[b] != reps[0] {
			t.Fatalf("build %d fused %+v, build 0 %+v", b, reps[b], reps[0])
		}
	}
	if unfolded != reps[0].Members {
		t.Fatalf("%d concurrent builds unfolded %d members in all, want %d", builds, unfolded, reps[0].Members)
	}
}
