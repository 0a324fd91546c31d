package mdlog

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mdlog/internal/html"
	"mdlog/internal/mso"
)

// optElogSource is the CLAIM-C64 product wrapper: the Elog⁻ → datalog
// → TMNF route emits long tm_* chains for every subelem path.
const optElogSource = `
item(x)   :- root(x0), subelem("html.body.table.tr", x0, x).
name(x)   :- item(x0), subelem("td.#text", x0, x), firstsibling(x).
price(x)  :- item(x0), subelem("td.b.#text", x0, x).
status(x) :- item(x0), subelem("td.em.#text", x0, x).
`

// optWrapper is one example wrapper compiled at a given optimizer
// level. Every run evaluates the full plan (no result memo).
type optWrapper struct {
	name    string
	compile func(lvl OptLevel) (*CompiledQuery, error)
}

// optWrappers are the Elog, MSO and XPath example wrappers over doc.
// The MSO wrapper goes through the Theorem 4.4 translation to datalog,
// which needs the document alphabet, so the optimizer sees its rules.
func optWrappers(doc *Tree) []optWrapper {
	return []optWrapper{
		{"elog-products", func(lvl OptLevel) (*CompiledQuery, error) {
			return Compile(optElogSource, LangElog, WithQueryPred("price"), WithOptLevel(lvl), WithoutCache())
		}},
		{"mso-td-b", func(lvl OptLevel) (*CompiledQuery, error) {
			uq, err := mso.CompileQuery(mso.MustParse(`label_td(x) & exists y (child(x,y) & label_b(y))`))
			if err != nil {
				return nil, err
			}
			prog, err := uq.ToDatalog(doc.Labels(), "q")
			if err != nil {
				return nil, err
			}
			return CompileProgram(prog, WithQueryPred("q"), WithExtract("q"), WithOptLevel(lvl), WithoutCache())
		}},
		{"xpath-td-b", func(lvl OptLevel) (*CompiledQuery, error) {
			return Compile(`//td[b]`, LangXPath, WithOptLevel(lvl), WithoutCache())
		}},
	}
}

// optDoc is the fixed product listing the optimizer checks run on.
func optDoc(rows int) *Tree {
	return ParseHTML(html.ProductListing(rand.New(rand.NewSource(48)), rows))
}

// TestOptimizerShrinksWrappers: -O1 prepares strictly fewer rules than
// -O0 for every example wrapper (the Elog⁻ products wrapper, the MSO
// td[b] wrapper and //td[b]), and both levels select the same nodes.
func TestOptimizerShrinksWrappers(t *testing.T) {
	doc := optDoc(60)
	ctx := context.Background()
	for _, w := range optWrappers(doc) {
		q0, err := w.compile(OptNone)
		if err != nil {
			t.Fatalf("%s -O0: %v", w.name, err)
		}
		q1, err := w.compile(OptFull)
		if err != nil {
			t.Fatalf("%s -O1: %v", w.name, err)
		}
		ids0, err0 := q0.Select(ctx, doc)
		ids1, err1 := q1.Select(ctx, doc)
		if err0 != nil || err1 != nil || !slices.Equal(ids0, ids1) {
			t.Errorf("%s: -O0 selects %v (%v), -O1 selects %v (%v)", w.name, ids0, err0, ids1, err1)
		}
		if len(ids1) == 0 {
			t.Errorf("%s selects nothing", w.name)
		}
		r0, r1 := q0.OptStats().RulesAfter, q1.OptStats().RulesAfter
		if r1 >= r0 {
			t.Errorf("%s: -O1 prepares %d rules, -O0 %d; want fewer", w.name, r1, r0)
		}
	}
}

// BenchmarkOptimizer runs each example wrapper's full plan at -O0 and
// -O1 on one product listing, reporting the prepared plan sizes
// (rules_o0, rules_o1) beside ns/op per level.
func BenchmarkOptimizer(b *testing.B) {
	doc := optDoc(300)
	ctx := context.Background()
	for _, w := range optWrappers(doc) {
		levels := []struct {
			name string
			lvl  OptLevel
		}{{"O0", OptNone}, {"O1", OptFull}}
		qs := make([]*CompiledQuery, len(levels))
		for i, l := range levels {
			q, err := w.compile(l.lvl)
			if err != nil {
				b.Fatalf("%s -%s: %v", w.name, l.name, err)
			}
			qs[i] = q
		}
		for i, l := range levels {
			b.Run(w.name+"/"+l.name, func(b *testing.B) {
				for n := 0; n < b.N; n++ {
					if _, err := qs[i].Select(ctx, doc); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(qs[0].OptStats().RulesAfter), "rules_o0")
				b.ReportMetric(float64(qs[1].OptStats().RulesAfter), "rules_o1")
			})
		}
	}
}
