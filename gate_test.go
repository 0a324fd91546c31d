package mdlog

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mdlog/internal/html"
	"mdlog/internal/opt"
	"mdlog/internal/xpath"
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

// TestFusedRuleCountGate pins the size of gateFleet's fused program:
// apex renaming, dedup and subsumption together. A pass that stops
// merging or starts duplicating moves it. Every fused rule belongs to
// a member, so the members' Plans account for the whole program.
func TestFusedRuleCountGate(t *testing.T) {
	const want = 43
	set, err := CompileSet(gateFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	if got := set.FuseStats().RulesOut; got != want {
		t.Fatalf("gateFleet fuses to %d rules, want %d", got, want)
	}
	checkPlanOwnership(t, set)
}

// TestFuseMatchesReferenceGateFleet: gateFleet's fused program, aliases
// and fuse report are byte-identical to the string-keyed reference
// fusion's.
func TestFuseMatchesReferenceGateFleet(t *testing.T) {
	specs := gateFleet(t)
	queries := make([]*CompiledQuery, len(specs))
	for i, sp := range specs {
		q, err := Compile(sp.Source, sp.Lang, sp.Options...)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name, err)
		}
		queries[i] = q
	}
	checkFuseReference(t, "gateFleet", queries)
}

// checkFuseReference fails t unless opt.Fuse fuses the queries as
// NewQuerySet would exactly like opt.FuseReference. The queries must
// not have been fused yet, so their signature memos are fresh.
func checkFuseReference(t *testing.T, what string, queries []*CompiledQuery) {
	t.Helper()
	var members []opt.FuseMember
	for i, q := range queries {
		if g := groundingOf(q.plan); g != nil {
			members = append(members, fuseMember(i, g))
		}
	}
	if err := opt.DiffFuseReference(members); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// checkPlanOwnership fails t unless the fused members' MemberPlan.Rules
// sum to the fused program's rule count: fusion adds no rule that no
// member owns, so -explain and Plans() account for all of it.
func checkPlanOwnership(t *testing.T, set *QuerySet) {
	t.Helper()
	if set.FusedLen() < 2 {
		return
	}
	owned := 0
	for _, p := range set.Plans() {
		if p.Fused {
			owned += p.Rules
		}
	}
	if got := set.FuseStats().RulesOut; owned != got {
		t.Fatalf("fused members own %d rules, fused program has %d", owned, got)
	}
}

// liveGate is a live ProductListing run by gateFleet without the
// members that recurse from the root (//td[b], the caterpillar, the
// Elog field), for which one row edit overdeletes and rederives almost
// the whole model. DRed maintains the rest, except the MSO member,
// whose automaton re-runs on the document's own arena.
type liveGate struct {
	doc   *Document
	table int    // the product table
	rows  []int  // its item rows
	row   *Node  // a product row to insert
	run   func() // RunIncremental over the fleet; fails the test on error
}

// newLiveGate opens a ProductListing of about n nodes as a live
// document and runs the fleet on it once.
func newLiveGate(t *testing.T, n int) *liveGate {
	skip := map[string]bool{"td_b_xpath": true, "td_b_cat": true, "price_cells": true}
	set, err := CompileSet(slices.DeleteFunc(gateFleet(t), func(sp SetSpec) bool { return skip[sp.Name] }))
	if err != nil {
		t.Fatal(err)
	}
	row, err := ParseTree("tr(td(#text),td(b(#text)),td(em(#text)))")
	if err != nil {
		t.Fatal(err)
	}
	page := ParseHTML(html.ProductListing(rand.New(rand.NewSource(7)), n/9))
	g := &liveGate{doc: NewDocument(page), table: -1, row: row.Root}
	for _, v := range page.Nodes {
		switch {
		case v.Label == "table" && g.table < 0:
			g.table = v.ID
		case v.Label == "tr" && v.Attrs["class"] == "item":
			g.rows = append(g.rows, v.ID)
		}
	}
	ctx := context.Background()
	g.run = func() {
		for _, res := range set.RunIncremental(ctx, g.doc) {
			if res.Err != nil {
				t.Fatalf("%s: %v", res.Name, res.Err)
			}
		}
	}
	g.run()
	return g
}

// TestLiveEditAllocGate is a fixed-bound gate on the allocations of
// one live-edit step — a product row spliced into (or out of) the
// middle of a ~1k-node table, then RunIncremental over the liveGate
// fleet. Maintenance that rebuilds state instead of propagating the
// delta fails it deterministically.
func TestLiveEditAllocGate(t *testing.T) {
	// 190 allocations at the time of writing, with or without -race,
	// 23 of them the MSO member's run on the arena; rebuilding the
	// maintained state on every step costs 361, and running the MSO
	// member on a per-generation pointer copy of the page cost 2,415.
	maxAllocsPerRun, runs := 200.0, 20
	if raceDetector {
		maxAllocsPerRun, runs = 300, 100
	}
	g := newLiveGate(t, 1000)
	inserted := -1
	step := func() {
		var err error
		if inserted < 0 {
			inserted, err = g.doc.InsertSubtree(g.table, len(g.rows)/2, g.row)
		} else {
			err = g.doc.RemoveSubtree(inserted)
			inserted = -1
		}
		if err != nil {
			t.Fatal(err)
		}
		g.run()
	}
	allocs := testing.AllocsPerRun(runs, step)
	t.Logf("%d nodes: %.0f allocs per step", g.doc.NumAlive(), allocs)
	if allocs > maxAllocsPerRun {
		t.Fatalf("live-edit step allocates %.0f times, bound %.0f", allocs, maxAllocsPerRun)
	}
}

// TestDRedCounterGate bounds the DRed work of a fixed 20-edit script
// on a ~10k-node live document: row inserts and removals in the
// product table, price text edits and attribute edits, each followed
// by RunIncremental over the liveGate fleet. Overdeleted, rederived
// and fallback counts summed over the script must stay far below the
// document size: an edit that cascades through the table's rows (a
// row splice once overdeleted 501 second_cell facts) fails it.
func TestDRedCounterGate(t *testing.T) {
	// 75 overdeleted, 20 rederived, 0 fallbacks at the time of writing
	// (100 and 40 while fusion still extracted shared body fragments).
	const maxOverdeleted, maxRederived, maxFallbacks = 200, 100, 0
	g := newLiveGate(t, 10000)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		var err error
		switch r := rng.Intn(len(g.rows)); i % 4 {
		case 0:
			var id int
			if id, err = g.doc.InsertSubtree(g.table, 1+r, g.row); err == nil {
				g.rows = append(g.rows, id)
			}
		case 1:
			err = g.doc.RemoveSubtree(g.rows[r])
			g.rows = slices.Delete(g.rows, r, r+1)
		case 2:
			err = g.doc.SetText(g.rows[r]+5, "$9.99") // the row's price text
		case 3:
			err = g.doc.SetAttr(g.rows[r], "data-rev", "x")
		}
		if err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
		g.run()
	}
	inc := g.doc.Stats().Inc
	t.Logf("%d nodes, 20 edits: %d applies, %d overdeleted, %d rederived, %d fallbacks",
		g.doc.NumAlive(), inc.Applies, inc.Overdeleted, inc.Rederived, inc.Fallbacks)
	if inc.Overdeleted > maxOverdeleted || inc.Rederived > maxRederived || inc.Fallbacks > maxFallbacks {
		t.Fatalf("DRed counters over bound: overdeleted %d (≤ %d), rederived %d (≤ %d), fallbacks %d (≤ %d)",
			inc.Overdeleted, maxOverdeleted, inc.Rederived, maxRederived, inc.Fallbacks, maxFallbacks)
	}
}

// TestXPathSelectAllocGate pins the direct Core XPath evaluator to
// O(|Q|) allocations per run whatever the page size: a negated query
// over ProductListing pages of ~1k and ~10k nodes must allocate the
// same number of times, give or take a fixed slack. The node-at-a-time
// evaluator it replaced allocated per candidate node (1,805 and 17,809).
func TestXPathSelectAllocGate(t *testing.T) {
	const slack = 4
	x, err := ParseXPath("//tr[td[b] and not(td[i])]")
	if err != nil {
		t.Fatal(err)
	}
	var allocs [2]float64
	for i, n := range []int{1000, 10000} {
		doc := ParseHTML(html.ProductListing(rand.New(rand.NewSource(7)), n/9))
		if len(xpath.Select(x, doc)) == 0 {
			t.Fatalf("%d nodes: the gate query selects nothing", doc.Size())
		}
		allocs[i] = testing.AllocsPerRun(10, func() { xpath.Select(x, doc) })
		t.Logf("%d nodes: %.0f allocs per run", doc.Size(), allocs[i])
	}
	if allocs[1] > allocs[0]+slack {
		t.Fatalf("Select allocates %.0f times at ~10k nodes and %.0f at ~1k, slack %d", allocs[1], allocs[0], slack)
	}
}
