package mdlog

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"mdlog/internal/html"
)

// raceDetector reports a -race build (see race_test.go).
var raceDetector bool

// gateFleet is a crawl-like wrapper fleet: twelve members over all
// seven languages, four of them selecting the same cells, so fusion,
// subsumption, the MSO automaton and span extraction all run.
func gateFleet(t testing.TB) []SetSpec {
	p, err := ParseProgram(`q(X) :- label_td(X), child(X,Y), label_em(Y). ?- q.`)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ToTMNF(p)
	if err != nil {
		t.Fatal(err)
	}
	prices := "cell(X) :- label_b(Y), child(Y, X), label_#text(X).\n" +
		"price(X, A) :- cell(X), text(X, S), match(S, /(?<amt>[0-9]+\\.[0-9][0-9])/, A).\n?- cell.\n"
	field := `item(x) :- root(x0), subelem("html.body.table.tr", x0, x).
f(x) :- item(x0), subelem("td.b", x0, x).`
	specs := []SetSpec{
		{Name: "td_b", Lang: LangDatalog, Source: `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`},
		{Name: "second_cell", Lang: LangDatalog, Source: `q(X) :- label_tr(X), firstchild(X,Y), nextsibling(Y,Z), label_td(Z). ?- q.`},
		{Name: "second_cell_implied", Lang: LangDatalog, Source: `q(A) :- label_tr(A), firstchild(A,B), nextsibling(B,C), label_td(C), firstchild(A,D), dom(A). ?- q.`},
		{Name: "summaries", Lang: LangDatalog, Source: `q(X) :- label_li(X), child(X,Y), label_span(Y). ?- q.`},
		{Name: "headlines", Lang: LangDatalog, Source: `q(X) :- label_li(X), firstchild(X,Y), label_a(Y). ?- q.`},
		{Name: "td_em", Lang: LangTMNF, Source: tp.String(), Options: []Option{WithQueryPred("q")}},
		{Name: "td_b_xpath", Lang: LangXPath, Source: `//td[b]`},
		{Name: "td_b_mso", Lang: LangMSO, Source: `label_td(x) & exists y (child(x,y) & label_b(y))`},
		{Name: "td_b_cat", Lang: LangCaterpillar, Source: `child*.label_td.child.label_b.(child^-1).label_td`},
		{Name: "price_cells", Lang: LangElog, Source: field, Options: []Option{WithQueryPred("f")}},
		{Name: "prices", Lang: LangSpanner, Source: prices},
		{Name: "sale_prices", Lang: LangSpanner, Source: strings.Replace(prices, "price(X, A)", "sale(X, A)", 1)},
	}
	for i := range specs {
		// Every run evaluates: no member memoizes results.
		specs[i].Options = append(specs[i].Options, WithoutCache())
	}
	return specs
}

// TestFusedRunAllocGate is a fixed-bound gate on the allocations of
// one fused QuerySet.Run over a fixed ~1k-node ProductListing with a
// crawl-like fleet. It counts what the run path allocates — relation
// materialization, projection, the MSO pass, span rows — so
// reintroducing per-relation copies or auxiliary materialization
// fails it deterministically, whatever the machine's speed.
func TestFusedRunAllocGate(t *testing.T) {
	// 214 allocations at the time of writing (the per-relation
	// projection copies and auxiliary relations it replaced cost 1,671).
	maxAllocsPerRun, runs := 240.0, 20
	if raceDetector {
		maxAllocsPerRun, runs = 400, 100
	}
	set, err := CompileSet(gateFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	doc := ParseHTML(html.ProductListing(rand.New(rand.NewSource(7)), 1000/9))
	ctx := context.Background()
	check := func() {
		for _, res := range set.Run(ctx, doc) {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Name, res.Err)
			}
		}
	}
	check()
	allocs := testing.AllocsPerRun(runs, check)
	t.Logf("%d nodes, %d members (%d fused): %.0f allocs per run", doc.Size(), set.Len(), set.FusedLen(), allocs)
	if allocs > maxAllocsPerRun {
		t.Fatalf("fused QuerySet.Run allocates %.0f times per run, bound %.0f", allocs, maxAllocsPerRun)
	}
}
