package main

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	mdlog "mdlog"
	"mdlog/internal/service"
)

// wrapperDef is one fleet member as the benchmark registers it.
type wrapperDef struct {
	Name   string
	Lang   mdlog.Language
	Source string
	// Pred names the query predicate whose nodes /extractall returns
	// ("" = the language's default).
	Pred string
}

func (w wrapperDef) spec() service.WrapperSpec {
	return service.WrapperSpec{Lang: w.Lang, Source: w.Source, Pred: w.Pred}
}

// served compiles the member the way the daemon does (its defaults).
func (w wrapperDef) served() (*mdlog.CompiledQuery, error) { return w.spec().Compile() }

// reference compiles the member for the output oracle: uncached, on the
// linear engine, never fused with other members.
func (w wrapperDef) reference() (*mdlog.CompiledQuery, error) {
	opts := []mdlog.Option{mdlog.WithoutCache(), mdlog.WithEngine(mdlog.EngineLinear)}
	if w.Pred != "" {
		opts = append(opts, mdlog.WithQueryPred(w.Pred))
	}
	return mdlog.Compile(w.Source, w.Lang, opts...)
}

// frontEnd names the front-end layer that compiles a language; tmnf is
// datalog already in normal form, and spanners live in package span.
func frontEnd(l mdlog.Language) string {
	switch l {
	case mdlog.LangDatalog, mdlog.LangTMNF:
		return "datalog"
	case mdlog.LangSpanner:
		return "span"
	}
	return l.String()
}

// compileLangs are the opt.compile_ms.* suffixes, one per front end.
var compileLangs = []string{"datalog", "elog", "xpath", "mso", "caterpillar", "spanner"}

func compileMetric(l mdlog.Language) string {
	if l == mdlog.LangTMNF {
		l = mdlog.LangDatalog
	}
	return "opt.compile_ms." + l.String()
}

const pricesSpanner = `
cell(X) :- label_b(Y), child(Y, X), label_#text(X).
price(X, A) :- cell(X), text(X, S), match(S, /(?<amt>[0-9]+\.[0-9][0-9])/, A).
?- cell.
`

func elogField(leaf string) string {
	return fmt.Sprintf(`item(x) :- root(x0), subelem("html.body.table.tr", x0, x).
f(x) :- item(x0), subelem(%q, x0, x).`, leaf)
}

// crawlFleet is the 12-wrapper fleet served in the crawl workload. It
// spans all seven languages over product listings and news indexes.
// Four members select the same nodes (td with a b child) in four
// languages, and one repeats another with an implied conjunct, so
// fusion, CSE and subsumption all have work. Three members (the XPath,
// caterpillar and Elog ones) recurse over descendants of the root.
func crawlFleet() ([]wrapperDef, error) {
	p, err := mdlog.ParseProgram(`q(X) :- label_td(X), child(X,Y), label_em(Y). ?- q.`)
	if err != nil {
		return nil, err
	}
	tp, err := mdlog.ToTMNF(p)
	if err != nil {
		return nil, err
	}
	return []wrapperDef{
		{Name: "td_b", Lang: mdlog.LangDatalog, Source: `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`},
		{Name: "second_cell", Lang: mdlog.LangDatalog, Source: `q(X) :- label_tr(X), firstchild(X,Y), nextsibling(Y,Z), label_td(Z). ?- q.`},
		{Name: "second_cell_implied", Lang: mdlog.LangDatalog, Source: `q(A) :- label_tr(A), firstchild(A,B), nextsibling(B,C), label_td(C), firstchild(A,D), dom(A). ?- q.`},
		{Name: "summaries", Lang: mdlog.LangDatalog, Source: `q(X) :- label_li(X), child(X,Y), label_span(Y). ?- q.`},
		{Name: "headlines", Lang: mdlog.LangDatalog, Source: `q(X) :- label_li(X), firstchild(X,Y), label_a(Y). ?- q.`},
		{Name: "td_em", Lang: mdlog.LangTMNF, Source: tp.String(), Pred: "q"},
		{Name: "td_b_xpath", Lang: mdlog.LangXPath, Source: `//td[b]`},
		{Name: "td_b_mso", Lang: mdlog.LangMSO, Source: `label_td(x) & exists y (child(x,y) & label_b(y))`},
		{Name: "td_b_cat", Lang: mdlog.LangCaterpillar, Source: `child*.label_td.child.label_b.(child^-1).label_td`},
		{Name: "price_cells", Lang: mdlog.LangElog, Source: elogField("td.b"), Pred: "f"},
		{Name: "prices", Lang: mdlog.LangSpanner, Source: pricesSpanner},
		{Name: "sale_prices", Lang: mdlog.LangSpanner, Source: strings.Replace(pricesSpanner, "price(X, A)", "sale(X, A)", 1)},
	}, nil
}

// rootRecursive names the crawl members that recurse over descendants
// of the root; see incrementalFleet.
var rootRecursive = map[string]bool{"td_b_xpath": true, "td_b_cat": true, "price_cells": true}

// incrementalFleet is the part of the crawl fleet that live documents
// maintain by DRed: not MSO, whose automaton falls back to re-evaluating
// a snapshot and would hide DRed, and not the root-recursive members,
// for which one row edit overdeletes and rederives almost the whole
// model (about 0.5 s per member per edit batch at 100k nodes), which
// would leave the workload a handful of samples.
func incrementalFleet() ([]wrapperDef, error) {
	all, err := crawlFleet()
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(all, func(w wrapperDef) bool { return w.Lang == mdlog.LangMSO || rootRecursive[w.Name] }), nil
}

// langCounts is the fleet composition by language, for the manifest.
func langCounts(fleet []wrapperDef) map[string]int {
	out := map[string]int{}
	for _, w := range fleet {
		out[w.Lang.String()]++
	}
	return out
}

// compiledFleet is a fleet compiled the way the daemon serves it, with
// the fused set over all members.
type compiledFleet struct {
	queries []*mdlog.CompiledQuery
	set     *mdlog.QuerySet
}

func compileFleet(fleet []wrapperDef) (*compiledFleet, error) {
	cf := &compiledFleet{}
	members := make([]mdlog.NamedQuery, len(fleet))
	for i, w := range fleet {
		q, err := w.served()
		if err != nil {
			return nil, fmt.Errorf("compiling %s: %w", w.Name, err)
		}
		cf.queries = append(cf.queries, q)
		members[i] = mdlog.NamedQuery{Name: w.Name, Query: q}
	}
	set, err := mdlog.NewNamedQuerySet(members...)
	if err != nil {
		return nil, err
	}
	cf.set = set
	return cf, nil
}

// fleetReference holds each member's oracle query.
type fleetReference map[string]*mdlog.CompiledQuery

func referenceFleet(fleet []wrapperDef) (fleetReference, error) {
	refs := fleetReference{}
	for _, w := range fleet {
		q, err := w.reference()
		if err != nil {
			return nil, fmt.Errorf("compiling reference %s: %w", w.Name, err)
		}
		refs[w.Name] = q
	}
	return refs, nil
}

// selectAll evaluates every reference member on t.
func (r fleetReference) selectAll(t *mdlog.Tree) (map[string][]int, error) {
	out := make(map[string][]int, len(r))
	for name, q := range r {
		ids, err := q.Select(context.Background(), t)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", name, err)
		}
		out[name] = ids
	}
	return out, nil
}

// checkSet compares an output=nodes set reply against the expected
// nodes per wrapper, reporting each mismatch; ok is false on any.
func checkSet(t *tally, index int, body []byte, want map[string][]int) bool {
	var got setReply
	if err := json.Unmarshal(body, &got); err != nil {
		t.mismatch(index, "", "decoding reply: %v", err)
		return false
	}
	ok := len(got.Results) == len(want)
	if !ok {
		t.mismatch(index, "", "%d results, want %d", len(got.Results), len(want))
	}
	for _, r := range got.Results {
		w, known := want[r.Wrapper]
		switch {
		case !known:
			t.mismatch(index, r.Wrapper, "unexpected wrapper")
			ok = false
		case r.Error != "":
			t.mismatch(index, r.Wrapper, "error %s", r.Error)
			ok = false
		case !slices.Equal(r.Nodes, w):
			t.mismatch(index, r.Wrapper, "%d nodes, want %d", len(r.Nodes), len(w))
			ok = false
		}
	}
	return ok
}

// probeCompile times compiling each member (reps times, one span per
// call) and fusing the compiled fleet, for the opt.* metrics of the
// workloads whose compile work happens only in setup.
func probeCompile(tr *tracer, fleet []wrapperDef, reps int, out map[string]float64) error {
	perLang := map[string][]float64{}
	members := make([]mdlog.NamedQuery, len(fleet))
	for rep := 0; rep < reps; rep++ {
		for i, w := range fleet {
			var err error
			var q *mdlog.CompiledQuery
			_, d := tr.timed(0, 0, frontEnd(w.Lang)+".compile", 1, func() { q, err = w.served() })
			if err != nil {
				return fmt.Errorf("compiling %s: %w", w.Name, err)
			}
			members[i] = mdlog.NamedQuery{Name: w.Name, Query: q}
			perLang[compileMetric(w.Lang)] = append(perLang[compileMetric(w.Lang)], float64(d)/1e6)
		}
	}
	for name, xs := range perLang {
		out[name] = median(xs)
	}
	var fuse, check []float64
	var set *mdlog.QuerySet
	for rep := 0; rep < reps; rep++ {
		var err error
		_, d := tr.timed(0, 0, "opt.fuse", int64(len(fleet)), func() { set, err = mdlog.NewNamedQuerySet(members...) })
		if err != nil {
			return err
		}
		fuse = append(fuse, float64(d)/1e6)
		check = append(check, float64(set.FuseStats().CheckNs)/1e6)
	}
	out["opt.fuse_ms"] = median(fuse)
	out["opt.subsume.check_ms"] = median(check)
	setShape(set, out)
	out["mso.dta_states"] = msoStates(fleet)
	return nil
}

// setShape records what fusion made of a fleet.
func setShape(set *mdlog.QuerySet, out map[string]float64) {
	subsumed := 0
	for _, p := range set.Plans() {
		if p.Subsumed {
			subsumed++
		}
	}
	rep := set.FuseStats()
	out["mdlog.queryset.fused_members"] = float64(set.FusedLen())
	out["mdlog.queryset.subsumed_members"] = float64(subsumed)
	out["mdlog.queryset.fused_rules"] = float64(rep.RulesOut)
	out["opt.cse_preds"] = float64(rep.CSEPreds)
	out["opt.subsumed_preds"] = float64(rep.SubsumedPreds)
	if rep.SubsumeChecked > 0 {
		out["opt.subsume.decided_ratio"] = 1 - float64(rep.SubsumeUnknown)/float64(rep.SubsumeChecked)
	}
}

// msoStates sums the automaton states of the fleet's MSO members.
func msoStates(fleet []wrapperDef) float64 {
	total := 0
	for _, w := range fleet {
		if w.Lang != mdlog.LangMSO {
			continue
		}
		f, err := mdlog.ParseMSO(w.Source)
		if err != nil {
			continue
		}
		q, err := mdlog.CompileMSOQuery(f)
		if err != nil {
			continue
		}
		total += q.C.DTA.NumStates
	}
	return float64(total)
}
