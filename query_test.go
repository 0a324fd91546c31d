package mdlog

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"mdlog/internal/elog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/tree"
	"mdlog/internal/wrap"
	"mdlog/internal/xpath"
)

const crossPage = `
<html><body>
<table>
  <tr><td>Espresso</td><td><b>2.20</b></td></tr>
  <tr><td>Cappuccino</td><td><b>3.10</b></td></tr>
  <tr><td>Water</td><td>1.00</td></tr>
</table>
</body></html>`

// The same unary query — "td elements having a b-labeled child" —
// written in five of the paper's formalisms. Compiled through the one
// Compile entry point, all must select the same node set.
var crossSources = []struct {
	lang Language
	src  string
	opts []Option
}{
	{LangDatalog, `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`, nil},
	{LangMSO, `label_td(x) & exists y (child(x,y) & label_b(y))`, nil},
	{LangXPath, `//td[b]`, nil},
	{LangCaterpillar, `child*.label_td.child.label_b.(child^-1).label_td`, nil},
	{LangElog, `q(x) :- root(x0), subelem("html.body.table.tr.td", x0, x), contains("b", x, y).`, nil},
}

func TestCompileCrossFormalismEquivalence(t *testing.T) {
	doc := ParseHTML(crossPage)
	ctx := context.Background()

	// Reference: the direct Core XPath evaluator.
	xp, err := ParseXPath("//td[b]")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(xpath.Select(xp, doc))
	if want == "[]" {
		t.Fatalf("reference query selects nothing; bad test document")
	}

	for _, lvl := range []OptLevel{OptNone, OptFull} {
		for _, cs := range crossSources {
			opts := append([]Option{WithOptLevel(lvl)}, cs.opts...)
			q, err := Compile(cs.src, cs.lang, opts...)
			if err != nil {
				t.Fatalf("%v/%v: compile: %v", cs.lang, lvl, err)
			}
			got, err := q.Select(ctx, doc)
			if err != nil {
				t.Fatalf("%v/%v: select: %v", cs.lang, lvl, err)
			}
			if fmt.Sprint(got) != want {
				t.Errorf("%v/%v selects %v, want %v", cs.lang, lvl, got, want)
			}
			// Repeated execution must be stable (and exercise the cache).
			again, err := q.Select(ctx, doc)
			if err != nil {
				t.Fatalf("%v/%v: second select: %v", cs.lang, lvl, err)
			}
			if fmt.Sprint(again) != want {
				t.Errorf("%v/%v second select %v, want %v", cs.lang, lvl, again, want)
			}
		}
	}
}

func TestCompileTMNFRoute(t *testing.T) {
	doc := ParseHTML(crossPage)
	p, err := ParseProgram(`q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ToTMNF(p)
	if err != nil {
		t.Fatal(err)
	}
	// Program.String drops the ?- directive; WithQueryPred restores it.
	q, err := Compile(tp.String(), LangTMNF, WithQueryPred("q"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Select(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	xp, _ := ParseXPath("//td[b]")
	if want := fmt.Sprint(xpath.Select(xp, doc)); fmt.Sprint(got) != want {
		t.Errorf("TMNF route selects %v, want %v", got, want)
	}

	// LangTMNF must validate, not normalize.
	if _, err := Compile(`q(X) :- child(X,Y), label_b(Y).`, LangTMNF); err == nil {
		t.Error("LangTMNF accepted a non-TMNF program")
	}
}

func TestCompileEngines(t *testing.T) {
	doc := ParseHTML(crossPage)
	src := `sel(X) :- label_td(X), firstchild(X,Y), label_b(Y).` // td whose first child is b
	want := ""
	for _, e := range []Engine{EngineLinear, EngineBitmap} {
		q, err := Compile(src, LangDatalog, WithEngine(e), WithQueryPred("sel"))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		got, err := q.Select(context.Background(), doc)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if want == "" {
			want = fmt.Sprint(got)
		} else if fmt.Sprint(got) != want {
			t.Errorf("engine %v selects %v, want %v", e, got, want)
		}
	}
}

// TestEvalHidesNormalizationHelpers pins the Eval contract: when a
// grounding engine runs a TMNF-normalized child-using program, the
// tm_* auxiliaries must not leak into the visible relations.
func TestEvalHidesNormalizationHelpers(t *testing.T) {
	doc := ParseHTML(crossPage)
	src := `q(X) :- child(Y,X), label_tr(Y).`
	want := ""
	for _, e := range []Engine{EngineLinear, EngineBitmap} {
		cq, err := Compile(src, LangDatalog, WithEngine(e))
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		db, err := cq.Eval(context.Background(), doc)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		preds := fmt.Sprint(db.Preds())
		if want == "" {
			want = preds
		} else if preds != want {
			t.Errorf("engine %v exposes %v, engine linear exposes %v", e, preds, want)
		}
		if preds != "[q]" {
			t.Errorf("engine %v exposes %v, want [q]", e, preds)
		}
	}
}

// TestWithEngineEveryLanguage: WithEngine means the same thing in all
// seven languages. Any engine but linear and bitmap fails compilation
// with an error naming the two; linear and bitmap select the same ids.
func TestWithEngineEveryLanguage(t *testing.T) {
	doc := ParseHTML(crossPage)
	ctx := context.Background()
	dl, err := ParseProgram(crossSources[0].src)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ToTMNF(dl)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[Language]string{
		LangTMNF: tp.String() + "?- q.",
		LangSpanner: `q(X) :- label_td(X), child(X,Y), label_b(Y).
			digit(X, S) :- q(X), text(X, S), match(S, /[0-9]/).
			?- q.`,
	}
	for _, cs := range crossSources {
		sources[cs.lang] = cs.src
	}
	if len(sources) != len(LanguageNames()) {
		t.Fatalf("table covers %d languages, want all %d", len(sources), len(LanguageNames()))
	}
	for lang, src := range sources {
		if _, err := Compile(src, lang, WithEngine(Engine(2))); err == nil || !strings.Contains(err.Error(), "valid engines: linear, bitmap") {
			t.Errorf("%v: WithEngine(Engine(2)) compiled (err %v); want an error naming linear, bitmap", lang, err)
		}
		var ids []string
		for _, e := range []Engine{EngineLinear, EngineBitmap} {
			q, err := Compile(src, lang, WithEngine(e))
			if err != nil {
				t.Fatalf("%v/%v: %v", lang, e, err)
			}
			got, err := q.Select(ctx, doc)
			if err != nil {
				t.Fatalf("%v/%v: %v", lang, e, err)
			}
			ids = append(ids, fmt.Sprint(got))
		}
		if ids[0] != ids[1] || ids[0] == "[]" {
			t.Errorf("%v: linear selects %s, bitmap %s", lang, ids[0], ids[1])
		}
	}
}

func TestCompiledQueryWrap(t *testing.T) {
	doc := ParseHTML(crossPage)
	src := `
row(x)   :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- row(x0), subelem("td.b.#text", x0, x).
`
	q, err := Compile(src, LangElog, WithWrapOptions(WrapOptions{KeepText: true}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	out, err := q.Wrap(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	assign := q.Run(ctx, doc).Assignment
	if len(assign["row"]) != 3 || len(assign["price"]) != 2 {
		t.Fatalf("assignment = %v", assign)
	}
	// Legacy wrapper agrees.
	prog, err := ParseElog(src)
	if err != nil {
		t.Fatal(err)
	}
	w := &wrap.ElogWrapper{Program: prog, Options: WrapOptions{KeepText: true}}
	lout, lassign, err := w.Run(doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(assign) != fmt.Sprint(lassign) {
		t.Errorf("assignment %v vs legacy %v", assign, lassign)
	}
	if !out.Equal(lout) {
		t.Errorf("output tree differs from legacy wrapper:\n%s\nvs\n%s", out, lout)
	}
}

func TestElogSelectNeedsUniquePattern(t *testing.T) {
	src := `
a(x) :- root(x0), subelem("_", x0, x).
b(x) :- root(x0), subelem("_._", x0, x).
`
	q, err := Compile(src, LangElog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Select(context.Background(), ParseHTML(crossPage)); err == nil {
		t.Error("Select on ambiguous Elog program should error")
	}
	q2, err := Compile(src, LangElog, WithQueryPred("b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q2.Select(context.Background(), ParseHTML(crossPage)); err != nil {
		t.Errorf("WithQueryPred select: %v", err)
	}
	// A single-pattern WithExtract also disambiguates Select.
	q3, err := Compile(src, LangElog, WithExtract("b"))
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := q3.Select(context.Background(), ParseHTML(crossPage)); err != nil {
		t.Errorf("WithExtract select: %v", err)
	} else if len(ids) == 0 {
		t.Error("WithExtract select returned nothing")
	}
}

func TestCompiledQueryStats(t *testing.T) {
	doc := ParseHTML(crossPage)
	q, err := Compile(`q(X) :- label_td(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := q.Select(ctx, doc); err != nil {
		t.Fatal(err)
	}
	res := q.Run(ctx, doc)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// Facts counts the run's visible result relations — here the one
	// relation q, so exactly the selected nodes.
	rs := res.Stats
	db, err := q.Eval(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Runs != 1 || rs.Facts != int64(db.Size()) || rs.Facts != int64(len(res.IDs)) {
		t.Errorf("per-run stats = %+v", rs)
	}
	if rs.CacheHits != 1 {
		t.Errorf("second run on same tree should hit the cache: %+v", rs)
	}
	agg := q.Stats()
	if agg.Runs != 3 || agg.CacheHits < 2 {
		t.Errorf("aggregate stats = %+v", agg)
	}
	if agg.Compile <= 0 {
		t.Errorf("compile time not recorded: %+v", agg)
	}
}

func TestCompiledQueryContextCancel(t *testing.T) {
	q, err := Compile(`q(X) :- label_td(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := q.Select(ctx, ParseHTML(crossPage)); err == nil {
		t.Error("canceled context should fail Select")
	}
}

// TestUnknownBinaryDiagnosedAtEveryOptLevel: a typo'd tree relation
// must fail compilation identically at -O0 and -O1 — the optimizer is
// not allowed to eliminate its way past a diagnosable error, even
// when the offending rule is outside the extraction roots.
func TestUnknownBinaryDiagnosedAtEveryOptLevel(t *testing.T) {
	for _, src := range []string{
		`
q(X) :- label_td(X).
r(X) :- bogus(X,Y), label_b(Y).
`,
		// Indirect: the offending rule references an intensional
		// predicate whose defining rule is otherwise dead — it must
		// stay defined so the engine reaches the typo'd binary atom.
		`
q(X) :- label_td(X).
p(X) :- label_b(X).
r(X) :- p(X), bogus(X,Y).
`,
	} {
		for _, lvl := range []OptLevel{OptNone, OptFull} {
			_, err := Compile(src, LangDatalog, WithExtract("q"), WithOptLevel(lvl))
			if err == nil || !strings.Contains(err.Error(), "unknown binary predicate") {
				t.Errorf("%v: want the unknown-binary diagnosis, got %v\nprogram:%s", lvl, err, src)
			}
		}
	}
}

// TestResultMemoNoAliasing pins the TreeCache memo-key contract: the
// key hashes the POST-optimization program (plus engine and visible
// predicates), so two semantically different compilations of the SAME
// source string — different extraction lists, different optimization
// levels — never share a memo entry, while byte-identical plans do.
func TestResultMemoNoAliasing(t *testing.T) {
	doc := ParseHTML(crossPage)
	tc := NewTreeCache(0)
	ctx := context.Background()
	src := `
a(X) :- label_td(X).
b(X) :- label_tr(X).
`
	compile := func(extract string, lvl OptLevel) *CompiledQuery {
		t.Helper()
		q, err := Compile(src, LangDatalog, WithCache(tc), WithExtract(extract), WithOptLevel(lvl))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}

	qa := compile("a", OptFull)
	dbA, err := qa.Eval(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbA.UnarySet("a")) == 0 {
		t.Fatalf("extract-a query found no td nodes")
	}

	// Same source, different visible predicate: must NOT reuse qa's
	// memoized (and a-only) result.
	qb := compile("b", OptFull)
	dbB, err := qb.Eval(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dbB.UnarySet("b")) == 0 {
		t.Fatalf("extract-b query served a stale memo entry: %v", dbB)
	}

	// Same source and extraction, different optimization level: the
	// optimized and unoptimized plans differ, so a third entry appears.
	qa0 := compile("a", OptNone)
	if _, err := qa0.Eval(ctx, doc); err != nil {
		t.Fatal(err)
	}
	if got := tc.Stats().Results; got != 3 {
		t.Fatalf("memo holds %d entries, want 3 (a/O1, b/O1, a/O0)", got)
	}

	// A byte-identical plan from a separate Compile call SHARES the
	// entry: cross-query amortization, the flip side of the hash key.
	qaDup := compile("a", OptFull)
	if res := qaDup.Run(ctx, doc); res.Err != nil {
		t.Fatal(res.Err)
	} else if rs := res.Stats; rs.CacheHits != 1 {
		t.Errorf("identical plan should hit the shared memo: %+v", rs)
	}
	if got := tc.Stats().Results; got != 3 {
		t.Errorf("identical plan grew the memo to %d entries", got)
	}
}

// TestRunnerFanOut exercises the Runner under -race: one compiled
// query, many documents, bounded workers, results in order; plus many
// goroutines hammering one document through the shared TreeCache.
func TestRunnerFanOut(t *testing.T) {
	q, err := Compile(`q(X) :- label_b(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	docs := make([]*Tree, 40)
	for i := range docs {
		docs[i] = tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 50 + i, MaxChildren: 4})
	}
	want := make([][]int, len(docs))
	for i, d := range docs {
		ids, err := q.Select(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	r := Runner{Workers: 8}
	res := MapAll(ctx, r, docs, q.Select)
	if len(res) != len(docs) {
		t.Fatalf("got %d results", len(res))
	}
	for i, x := range res {
		if x.Err != nil {
			t.Fatalf("doc %d: %v", i, x.Err)
		}
		if x.Index != i {
			t.Fatalf("result %d out of order (index %d)", i, x.Index)
		}
		if fmt.Sprint(x.Value) != fmt.Sprint(want[i]) {
			t.Errorf("doc %d: %v, want %v", i, x.Value, want[i])
		}
	}

	// Streaming: same results, same order.
	in := make(chan *Tree)
	go func() {
		defer close(in)
		for _, d := range docs {
			in <- d
		}
	}()
	i := 0
	for x := range Map(ctx, r, in, q.Select) {
		if x.Err != nil {
			t.Fatalf("stream doc %d: %v", i, x.Err)
		}
		if x.Index != i {
			t.Fatalf("stream result %d has index %d", i, x.Index)
		}
		if fmt.Sprint(x.Value) != fmt.Sprint(want[i]) {
			t.Errorf("stream doc %d: %v, want %v", i, x.Value, want[i])
		}
		i++
	}
	if i != len(docs) {
		t.Fatalf("stream yielded %d of %d", i, len(docs))
	}

	// Concurrent Select on the SAME document: the TreeCache must be
	// race-clean and the answer identical every time.
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				ids, err := q.Select(ctx, docs[0])
				if err != nil {
					t.Error(err)
					return
				}
				if fmt.Sprint(ids) != fmt.Sprint(want[0]) {
					t.Errorf("concurrent select: %v, want %v", ids, want[0])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRunnerWrapAll(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	docs := []*Tree{
		ParseHTML(html.ProductListing(rng, 3)),
		ParseHTML(html.ProductListing(rng, 5)),
		ParseHTML(html.ProductListing(rng, 2)),
	}
	q, err := Compile(`
item(x)  :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- item(x0), subelem("td.b.#text", x0, x).
`, LangElog, WithWrapOptions(WrapOptions{KeepText: true}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res := MapAll(ctx, Runner{Workers: 3}, docs, q.Wrap)
	for i, x := range res {
		if x.Err != nil {
			t.Fatalf("doc %d: %v", i, x.Err)
		}
		if x.Value == nil || x.Value.Size() < 2 {
			t.Errorf("doc %d: output tree %v", i, x.Value)
		}
		if a := q.Run(ctx, docs[i]).Assignment; len(a["item"]) == 0 {
			t.Errorf("doc %d extracted nothing: %v", i, a)
		}
	}
	// ProductListing emits one header row plus the item rows.
	a0, a1 := q.Run(ctx, docs[0]).Assignment, q.Run(ctx, docs[1]).Assignment
	if len(a0["item"]) != 4 || len(a1["item"]) != 6 {
		t.Errorf("row counts: %v / %v", a0, a1)
	}
}

func TestRunnerContextCancel(t *testing.T) {
	q, err := Compile(`q(X) :- label_a(X). ?- q.`, LangDatalog)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	docs := []*Tree{MustParseTree(t, "a(b,c)"), MustParseTree(t, "a(a)")}
	res := MapAll(ctx, Runner{Workers: 2}, docs, q.Select)
	for i, x := range res {
		if x.Err == nil {
			t.Errorf("doc %d should carry the cancellation error", i)
		}
	}
}

func MustParseTree(t *testing.T, s string) *Tree {
	t.Helper()
	tr, err := ParseTree(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestShimsMatchCompiled pins the compiled path to the single-shot
// oracles the former façade shims wrapped: the Theorem 4.2 query
// evaluator, the direct Core XPath evaluator (not(·) included) and the
// direct caterpillar evaluator.
func TestShimsMatchCompiled(t *testing.T) {
	doc := ParseHTML(crossPage)
	ctx := context.Background()

	p, err := ParseProgram(`q(X) :- label_td(X), firstchild(X,Y). ?- q.`)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := eval.Query(p, doc)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := CompileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	unified, err := cq.Select(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(legacy) != fmt.Sprint(unified) {
		t.Errorf("Query %v vs CompiledQuery %v", legacy, unified)
	}

	xp, err := ParseXPath("//tr[not(td/b)]") // negation: direct plan
	if err != nil {
		t.Fatal(err)
	}
	xq, err := CompileXPath(xp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := xq.Select(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || fmt.Sprint(got) != fmt.Sprint(xpath.Select(xp, doc)) {
		t.Errorf("negation query selects %v, want the one row the direct evaluator selects", got)
	}

	ce, err := ParseCaterpillar("child.child")
	if err != nil {
		t.Fatal(err)
	}
	cc, err := CompileCaterpillar(ce)
	if err != nil {
		t.Fatal(err)
	}
	cids, err := cc.Select(ctx, doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(selectRoot(ce, doc)) != fmt.Sprint(cids) {
		t.Errorf("direct caterpillar evaluator disagrees with compiled route")
	}
}

// TestRunnerSelectHTMLStream drives raw HTML readers through the
// worker pool: streaming parse (arena ingestion) + Select per worker,
// results in input order.
func TestRunnerSelectHTMLStream(t *testing.T) {
	q, err := Compile(`//td[b]`, LangXPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	srcs := make([]string, 24)
	want := make([][]int, len(srcs))
	for i := range srcs {
		srcs[i] = html.ProductListing(rng, 3+i)
		ids, err := q.Select(ctx, ParseHTML(srcs[i]))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ids
	}

	in := make(chan io.Reader)
	go func() {
		defer close(in)
		for _, s := range srcs {
			in <- strings.NewReader(s)
		}
	}()
	r := Runner{Workers: 6}
	i := 0
	for x := range Map(ctx, r, in, selectHTML(q)) {
		if x.Err != nil {
			t.Fatalf("doc %d: %v", i, x.Err)
		}
		if x.Index != i {
			t.Fatalf("result %d has index %d", i, x.Index)
		}
		if fmt.Sprint(x.Value) != fmt.Sprint(want[i]) {
			t.Errorf("doc %d: %v, want %v", i, x.Value, want[i])
		}
		i++
	}
	if i != len(srcs) {
		t.Fatalf("yielded %d of %d", i, len(srcs))
	}

	// A failing reader surfaces as a per-document error, not a hang.
	in2 := make(chan io.Reader, 2)
	in2 <- strings.NewReader(srcs[0])
	in2 <- iotestErrReader{}
	close(in2)
	var errs, oks int
	for x := range Map(ctx, r, in2, selectHTML(q)) {
		if x.Err != nil {
			errs++
		} else {
			oks++
		}
	}
	if errs != 1 || oks != 1 {
		t.Errorf("errs=%d oks=%d", errs, oks)
	}
}

type iotestErrReader struct{}

func (iotestErrReader) Read([]byte) (int, error) { return 0, fmt.Errorf("boom") }

// TestDirectPlansLoadSortedSets pins the precondition unaryDB and
// elogDirectPlan rely on when they bulk-load an answer with
// AddUnarySet: the direct Core XPath and Elog⁻Δ evaluators return
// strictly increasing ids, and the loaded relation holds exactly those
// ids, membership included.
func TestDirectPlansLoadSortedSets(t *testing.T) {
	xp, err := ParseXPath("//*[not(b)]")
	if err != nil {
		t.Fatal(err)
	}
	xq, err := CompileXPath(xp, WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	eq, err := CompileElog(elog.AnBnProgram(), WithoutCache())
	if err != nil {
		t.Fatal(err)
	}
	if xq.EngineName() != "xpath-direct" || eq.EngineName() != "elog-direct" {
		t.Fatalf("engines %s, %s: want the direct evaluators", xq.EngineName(), eq.EngineName())
	}
	ascending := func(ids []int) bool {
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				return false
			}
		}
		return true
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		doc := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 1 + rng.Intn(30), MaxChildren: 6})
		direct, err := elog.AnBnProgram().EvalDirect(doc)
		if err != nil {
			t.Fatal(err)
		}
		answers := map[*CompiledQuery]map[string][]int{
			xq: {"q": xpath.Select(xp, doc)},
			eq: direct,
		}
		for q, want := range answers {
			db, err := q.Eval(ctx, doc)
			if err != nil {
				t.Fatal(err)
			}
			for pred, ids := range want {
				if !ascending(ids) {
					t.Fatalf("%s: %s answer %v is not strictly increasing", q.EngineName(), pred, ids)
				}
				if got := db.UnarySet(pred); fmt.Sprint(got) != fmt.Sprint(ids) {
					t.Fatalf("%s: %s loaded %v, want %v", q.EngineName(), pred, got, ids)
				}
				for v := 0; v < doc.Size(); v++ {
					if db.Has(pred, v) != slices.Contains(ids, v) {
						t.Fatalf("%s: %s membership of %d wrong", q.EngineName(), pred, v)
					}
				}
			}
		}
	}
}

// TestUnaryDBRejectsOutOfDomain: an evaluator answer naming a node
// outside the document's arena ids fails the run instead of vanishing.
func TestUnaryDBRejectsOutOfDomain(t *testing.T) {
	if _, err := unaryDB(7, "q", []int{1, 7, 8}); err == nil {
		t.Error("ids 7 and 8 accepted in a domain of 7")
	}
	if _, err := unaryDB(7, "q", []int{-1}); err == nil {
		t.Error("id -1 accepted")
	}
	db, err := unaryDB(7, "q", []int{0, 6})
	if err != nil || !slices.Equal(db.UnarySet("q"), []int{0, 6}) {
		t.Errorf("in-domain ids: %v, %v", db.UnarySet("q"), err)
	}
}
