package experiments

import (
	"context"
	"fmt"
	"math/rand"

	mdlog "mdlog"
	"mdlog/internal/html"
	"mdlog/internal/mso"
)

// This file measures EXT-OPT: what the compile-time optimizer
// (internal/opt) buys on realistic compiled wrappers — rule-count
// reduction of the prepared plan and end-to-end repeated-Select
// speedup. cmd/benchtables -opt serializes the same measurements as
// BENCH_optimize.json so CI archives the optimizer trajectory.

// OptPoint is one wrapper's optimizer measurement. Select timings run
// the full plan per call (result memo disabled), so they expose the
// engine's per-rule grounding cost.
type OptPoint struct {
	// Wrapper names the compiled example.
	Wrapper string `json:"wrapper"`
	// Lang is the source language.
	Lang string `json:"lang"`
	// RulesBefore / RulesAfter are the plan sizes around the -O1
	// pipeline.
	RulesBefore int `json:"rules_before"`
	RulesAfter  int `json:"rules_after"`
	// Inlined and DeadRules break the reduction down by pass.
	Inlined   int `json:"inlined"`
	DeadRules int `json:"dead_rules"`
	// SelectNsO0 / SelectNsO1 are one full Select in nanoseconds at
	// each level.
	SelectNsO0 float64 `json:"select_ns_o0"`
	SelectNsO1 float64 `json:"select_ns_o1"`
	// Speedup is SelectNsO0 / SelectNsO1.
	Speedup float64 `json:"speedup"`
}

// optElogSource is the CLAIM-C64 product wrapper: the Elog⁻ → datalog
// → TMNF route emits long tm_* chains for every subelem path.
const optElogSource = `
item(x)   :- root(x0), subelem("html.body.table.tr", x0, x).
name(x)   :- item(x0), subelem("td.#text", x0, x), firstsibling(x).
price(x)  :- item(x0), subelem("td.b.#text", x0, x).
status(x) :- item(x0), subelem("td.em.#text", x0, x).
`

// OptData measures the optimizer on the compiled MSO, Elog and XPath
// example wrappers against one product-listing document.
func OptData(cfg Config) []OptPoint {
	rows := 300
	if cfg.Quick {
		rows = 60
	}
	rng := rand.New(rand.NewSource(48))
	doc := html.Parse(html.ProductListing(rng, rows))
	ctx := context.Background()

	type wrapper struct {
		name    string
		compile func(lvl mdlog.OptLevel) (*mdlog.CompiledQuery, error)
		lang    string
	}
	msoSrc := `label_td(x) & exists y (child(x,y) & label_b(y))`
	wrappers := []wrapper{
		{"elog-products", func(lvl mdlog.OptLevel) (*mdlog.CompiledQuery, error) {
			return mdlog.Compile(optElogSource, mdlog.LangElog, mdlog.WithEngine(mdlog.EngineLinear),
				mdlog.WithQueryPred("price"), mdlog.WithOptLevel(lvl), mdlog.WithoutCache())
		}, "elog"},
		{"mso-td-b", func(lvl mdlog.OptLevel) (*mdlog.CompiledQuery, error) {
			f, err := mso.Parse(msoSrc)
			if err != nil {
				return nil, err
			}
			uq, err := mso.CompileQuery(f)
			if err != nil {
				return nil, err
			}
			// The Theorem 4.4 translation needs the document alphabet;
			// goal-direction comes from extracting only the query pred.
			prog, err := uq.ToDatalog(doc.Labels(), "q")
			if err != nil {
				return nil, err
			}
			return mdlog.CompileProgram(prog, mdlog.WithEngine(mdlog.EngineLinear), mdlog.WithQueryPred("q"),
				mdlog.WithExtract("q"), mdlog.WithOptLevel(lvl), mdlog.WithoutCache())
		}, "mso"},
		{"xpath-td-b", func(lvl mdlog.OptLevel) (*mdlog.CompiledQuery, error) {
			return mdlog.Compile(`//td[b]`, mdlog.LangXPath, mdlog.WithEngine(mdlog.EngineLinear),
				mdlog.WithOptLevel(lvl), mdlog.WithoutCache())
		}, "xpath"},
	}

	var out []OptPoint
	for _, w := range wrappers {
		q0, err := w.compile(mdlog.OptNone)
		if err != nil {
			panic(fmt.Sprintf("%s/O0: %v", w.name, err))
		}
		q1, err := w.compile(mdlog.OptFull)
		if err != nil {
			panic(fmt.Sprintf("%s/O1: %v", w.name, err))
		}
		// Semantics guard: both levels must select the same nodes.
		ids0, err0 := q0.Select(ctx, doc)
		ids1, err1 := q1.Select(ctx, doc)
		if err0 != nil || err1 != nil || fmt.Sprint(ids0) != fmt.Sprint(ids1) {
			panic(fmt.Sprintf("%s: O0/O1 disagree: %v/%v (%v, %v)", w.name, ids0, ids1, err0, err1))
		}
		rep := q1.OptStats()
		pt := OptPoint{
			Wrapper: w.name, Lang: w.lang,
			RulesBefore: rep.RulesBefore, RulesAfter: rep.RulesAfter,
			Inlined: rep.Inlined, DeadRules: rep.DeadRules,
		}
		pt.SelectNsO0 = float64(timeIt(func() {
			if _, err := q0.Select(ctx, doc); err != nil {
				panic(err)
			}
		}).Nanoseconds())
		pt.SelectNsO1 = float64(timeIt(func() {
			if _, err := q1.Select(ctx, doc); err != nil {
				panic(err)
			}
		}).Nanoseconds())
		pt.Speedup = pt.SelectNsO0 / pt.SelectNsO1
		out = append(out, pt)
	}
	return out
}

// Opt renders OptData as an experiment table (EXT-OPT).
func Opt(cfg Config) Table {
	t := Table{
		ID:    "EXT-OPT",
		Title: "Goal-directed optimizer: plan size and repeated-Select speedup",
		Headers: []string{"wrapper", "lang", "rules O0", "rules O1", "inlined", "dead",
			"select ms O0", "select ms O1", "speedup"},
		Notes: "One product-listing document, result memo disabled so every Select runs the full plan. " +
			"rules O0/O1 are the prepared plan sizes; inlined/dead break the reduction down by pass. " +
			"cmd/benchtables -opt emits these rows as BENCH_optimize.json.",
	}
	for _, pt := range OptData(cfg) {
		t.Rows = append(t.Rows, []string{
			pt.Wrapper, pt.Lang,
			fmt.Sprint(pt.RulesBefore), fmt.Sprint(pt.RulesAfter),
			fmt.Sprint(pt.Inlined), fmt.Sprint(pt.DeadRules),
			fmt.Sprintf("%.3f", pt.SelectNsO0/1e6), fmt.Sprintf("%.3f", pt.SelectNsO1/1e6),
			fmt.Sprintf("%.2fx", pt.Speedup),
		})
	}
	return t
}
