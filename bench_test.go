// Benchmarks for the paper's quantitative claims (the CLAIM-*/FIG-*
// ids of DESIGN.md §3, whose tables cmd/benchtables prints for
// EXPERIMENTS.md) and for the serving substrate. Run
// `go test -run '^$' -bench . -benchmem`.
package mdlog

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"mdlog/internal/datalog"
	"mdlog/internal/elog"
	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/mso"
	"mdlog/internal/paperex"
	"mdlog/internal/qa"
	"mdlog/internal/tmnf"
	"mdlog/internal/tree"
	"mdlog/internal/xpath"
)

// BenchmarkTheorem42Data — CLAIM-T42 (data axis): linear-time combined
// complexity of monadic datalog over trees.
func BenchmarkTheorem42Data(b *testing.B) {
	p := paperex.EvenAProgram("b")
	for _, n := range []int{1000, 4000, 16000} {
		rng := rand.New(rand.NewSource(42))
		tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: n, MaxChildren: 5})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.LinearTree(p, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node")
		})
	}
}

// BenchmarkTheorem42Program — CLAIM-T42 (program axis).
func BenchmarkTheorem42Program(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 4000, MaxChildren: 5})
	for _, rules := range []int{16, 64, 256} {
		p := benchProgramOfSize(rules)
		b.Run(fmt.Sprintf("rules=%d", rules), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.LinearTree(p, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchProgramOfSize(rules int) *datalog.Program {
	p := &datalog.Program{}
	V, At, R := datalog.V, datalog.At, datalog.R
	p.Add(R(At("p0", V("X")), At("leaf", V("X"))))
	i := 0
	for len(p.Rules) < rules {
		cur := fmt.Sprintf("p%d", i+1)
		prev := fmt.Sprintf("p%d", i)
		switch i % 3 {
		case 0:
			p.Add(R(At(cur, V("X")), At("firstchild", V("X"), V("Y")), At(prev, V("Y"))))
		case 1:
			p.Add(R(At(cur, V("X")), At("nextsibling", V("X"), V("Y")), At(prev, V("Y"))))
		default:
			p.Add(R(At(cur, V("X")), At(prev, V("X")), At("label_a", V("X"))))
		}
		i++
	}
	return p
}

// BenchmarkGenericVsTreeEngine — ABLATION-engines: what the Theorem
// 4.2 restriction buys over generic datalog evaluation.
func BenchmarkGenericVsTreeEngine(b *testing.B) {
	p := paperex.EvenAProgram("b")
	rng := rand.New(rand.NewSource(44))
	tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 1000, MaxChildren: 5})
	for _, eng := range []eval.Engine{eval.EngineLinear, eval.EngineLIT, eval.EngineSemiNaive, eval.EngineNaive} {
		engine := eng
		b.Run(engine.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.EvalOnTree(p, tr, engine); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroundLinear — CLAIM-GROUND: Proposition 3.5.
func BenchmarkGroundLinear(b *testing.B) {
	for _, m := range []int{10000, 40000} {
		p := &datalog.Program{}
		p.Add(datalog.R(datalog.At("p", datalog.C(0))))
		for i := 1; i < m; i++ {
			p.Add(datalog.R(datalog.At("p", datalog.C(i)), datalog.At("p", datalog.C(i-1))))
		}
		db := datalog.NewDatabase(m)
		b.Run(fmt.Sprintf("clauses=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.GroundEval(p, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGuardedEval — CLAIM-GUARD: Proposition 3.6.
func BenchmarkGuardedEval(b *testing.B) {
	p := datalog.MustParseProgram(`
sel(X) :- e(X,Y), good(Y).
sel(Y) :- e(X,Y), sel(X).
`)
	for _, m := range []int{10000, 40000} {
		rng := rand.New(rand.NewSource(45))
		db := datalog.NewDatabase(m)
		for i := 0; i < m; i++ {
			db.Add("e", rng.Intn(m), rng.Intn(m))
		}
		db.Add("good", rng.Intn(m))
		b.Run(fmt.Sprintf("tuples=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.GuardedEval(p, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLITEval — CLAIM-LIT: Proposition 3.7.
func BenchmarkLITEval(b *testing.B) {
	p := paperex.EvenAProgram("b")
	rng := rand.New(rand.NewSource(48))
	tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 2000, MaxChildren: 5})
	db := eval.TreeDB(tr, eval.WithDom())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.LITEval(p, db); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample421 — FIG-EX421: direct QA runs (superpolynomial)
// vs the Theorem 4.11 translation (linear).
func BenchmarkExample421(b *testing.B) {
	a := qa.Example421(1)
	prog := a.ToDatalog("query")
	for _, depth := range []int{5, 7, 9} {
		tr := tree.CompleteBinary(depth, "a")
		b.Run(fmt.Sprintf("direct/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := a.Run(tr, qa.RunOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(qa.Example421Steps(1, depth)), "QA-steps")
		})
		b.Run(fmt.Sprintf("datalog/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.LinearTree(prog, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQArTranslation — CLAIM-T411: translation cost and size.
func BenchmarkQArTranslation(b *testing.B) {
	for _, alpha := range []int{1, 2} {
		a := qa.Example421(alpha)
		b.Run(fmt.Sprintf("alpha=%d", alpha), func(b *testing.B) {
			var rules int
			for i := 0; i < b.N; i++ {
				rules = len(a.ToDatalog("query").Rules)
			}
			b.ReportMetric(float64(rules), "rules")
		})
	}
}

// BenchmarkTMNFTransform — CLAIM-T52: the Theorem 5.2 pipeline.
func BenchmarkTMNFTransform(b *testing.B) {
	for _, m := range []int{50, 200} {
		p := &datalog.Program{}
		V, At, R := datalog.V, datalog.At, datalog.R
		for i := 0; i < m; i++ {
			cur := fmt.Sprintf("q%d", i)
			prev := "leaf"
			if i > 0 {
				prev = fmt.Sprintf("q%d", i-1)
			}
			p.Add(R(At(cur, V("X")),
				At("child", V("X"), V("Y")), At(prev, V("Y")),
				At("child", V("X"), V("Z")), At("label_a", V("Z"))))
		}
		b.Run(fmt.Sprintf("rules=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tmnf.Transform(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTMNFThenLinearVsGeneric — ABLATION: evaluating a child-
// using program by TMNF + linear engine vs generic semi-naive.
func BenchmarkTMNFThenLinearVsGeneric(b *testing.B) {
	p := datalog.MustParseProgram(`
q(X) :- child(X,Y), child(Y,Z), label_a(Z).
`)
	rng := rand.New(rand.NewSource(49))
	tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 2000, MaxChildren: 5})
	tp, err := tmnf.Transform(p)
	if err != nil {
		b.Fatal(err)
	}
	db := eval.TreeDB(tr, eval.WithChild())
	b.Run("tmnf+linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.LinearTree(tp, tr); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("generic-seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datalog.SemiNaiveEval(p, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkElogEval — CLAIM-C64: compiled Elog⁻ wrappers on synthetic
// product pages.
func BenchmarkElogEval(b *testing.B) {
	prog := elog.MustParseProgram(`
item(x)   :- root(x0), subelem("html.body.table.tr", x0, x).
name(x)   :- item(x0), subelem("td.#text", x0, x), firstsibling(x).
price(x)  :- item(x0), subelem("td.b.#text", x0, x).
`)
	compiled, err := prog.CompileLinear()
	if err != nil {
		b.Fatal(err)
	}
	for _, rows := range []int{200, 800} {
		rng := rand.New(rand.NewSource(46))
		doc := html.Parse(html.ProductListing(rng, rows))
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.LinearTree(compiled, doc); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(doc.Size()), "ns/node")
		})
	}
}

// BenchmarkMSOCompileBlowup — FIG-MSO-cost: quantifier alternation
// drives the automaton construction; evaluation stays linear.
func BenchmarkMSOCompileBlowup(b *testing.B) {
	queries := []string{
		"leaf(x)",
		"exists y1 (child(x,y1) & (leaf(y1) | label_a(y1)))",
		"forall y2 (child(x,y2) -> exists y1 (child(y2,y1) & (leaf(y1) | label_a(y1))))",
	}
	for k, src := range queries {
		f := mso.MustParse(src)
		b.Run(fmt.Sprintf("compile/alt=%d", k), func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				q, err := mso.CompileQuery(f)
				if err != nil {
					b.Fatal(err)
				}
				states = q.C.DTA.NumStates
			}
			b.ReportMetric(float64(states), "states")
		})
	}
	// Evaluation cost after compilation.
	q := mso.MustCompileQuery(queries[2])
	rng := rand.New(rand.NewSource(47))
	tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: 3000, MaxChildren: 4})
	b.Run("eval/alt=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q.Select(tr)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tr.Size()), "ns/node")
	})
}

// BenchmarkSemiNaiveVsNaive — ABLATION: the delta optimization in the
// generic engine.
func BenchmarkSemiNaiveVsNaive(b *testing.B) {
	p := datalog.MustParseProgram(`
tc(X,Y) :- e(X,Y).
tc(X,Z) :- tc(X,Y), e(Y,Z).
`)
	db := datalog.NewDatabase(300)
	for i := 0; i < 299; i++ {
		db.Add("e", i, i+1)
	}
	b.Run("seminaive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datalog.SemiNaiveEval(p, db); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := datalog.NaiveEval(p, db); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkXPathBridge: Core XPath through the full
// datalog/TMNF/linear pipeline vs the direct evaluator.
func BenchmarkXPathBridge(b *testing.B) {
	q := xpath.MustParse("//tr[td/b]/td")
	rng := rand.New(rand.NewSource(51))
	doc := html.Parse(html.ProductListing(rng, 400))
	prog, err := xpath.ToDatalog(q, "q")
	if err != nil {
		b.Fatal(err)
	}
	tp, err := tmnf.Transform(prog)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			xpath.Select(q, doc)
		}
	})
	b.Run("datalog-linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eval.LinearTree(tp, doc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompileOnceAmortization: what the unified
// compile-once/run-many API buys. "legacy" re-prepares the program and
// navigation arrays and re-solves on every call (the old free-function
// path); "compiled" reuses one CompiledQuery whose TreeCache memoizes
// per-document state and the per-(query, tree) result; "compiled-
// nocache" isolates plan reuse alone from the memoization.
func BenchmarkCompileOnceAmortization(b *testing.B) {
	ctx := context.Background()
	p := paperex.EvenAProgram("b")
	for _, n := range []int{1000, 8000} {
		rng := rand.New(rand.NewSource(42))
		tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a", "b"}, Size: n, MaxChildren: 5})
		b.Run(fmt.Sprintf("legacy/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eval.Query(p, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("compiled/n=%d", n), func(b *testing.B) {
			q, err := CompileProgram(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Select(ctx, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("compiled-nocache/n=%d", n), func(b *testing.B) {
			q, err := CompileProgram(p, WithoutCache())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Select(ctx, tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRunnerFanOut: one compiled Elog⁻ wrapper
// fanned over a batch of product pages, sequential vs worker pool.
func BenchmarkRunnerFanOut(b *testing.B) {
	ctx := context.Background()
	q, err := Compile(`
item(x)   :- root(x0), subelem("html.body.table.tr", x0, x).
price(x)  :- item(x0), subelem("td.b.#text", x0, x).
`, LangElog, WithQueryPred("item"), WithoutCache())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(46))
	docs := make([]*Tree, 16)
	for i := range docs {
		docs[i] = ParseHTML(html.ProductListing(rng, 100))
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := Runner{Workers: workers}
			for i := 0; i < b.N; i++ {
				for _, res := range MapAll(ctx, r, docs, q.Select) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// BenchmarkCaterpillarDocumentOrder — EX-2.5: evaluating the document
// order caterpillar from the root.
func BenchmarkCaterpillarDocumentOrder(b *testing.B) {
	// SelectFromRoot of ≺ reaches every node but the root.
	rng := rand.New(rand.NewSource(50))
	tr := tree.Random(rng, tree.RandomOptions{Labels: []string{"a"}, Size: 2000, MaxChildren: 4})
	e := mustCat("child+ | (child^-1)*.nextsibling+.child*")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(selectRoot(e, tr)); got != tr.Size()-1 {
			b.Fatalf("got %d", got)
		}
	}
}

// wideListing returns a product-listing page with roughly the given
// node count (the wide, shallow shape of real catalog pages).
func wideListing(nodes int) string {
	rng := rand.New(rand.NewSource(52))
	return html.ProductListing(rng, nodes/9)
}

// BenchmarkArenaSubstrate: the full repeated-Select
// pipeline (parse → materialize → eval) on a wide ~100k-node document.
// Three lanes share one compiled plan, so the delta is pure substrate:
//
//   - "arena": the rewired hot path — ParseArena streams the source
//     into the struct-of-arrays representation and the engine indexes
//     its columns directly (NavOf), no *Node view at all. This is the
//     lane the ≥2x acceptance criterion measures.
//   - "arena+view": ParseReader additionally materializes the *Node
//     compatibility view (slab-allocated) before evaluating.
//   - "pointer-baseline": the pre-arena path — pointer-per-node parse
//     (ParseNodes), navigation arrays rebuilt by walking *Node
//     pointers (NewNavFromNodes).
func BenchmarkArenaSubstrate(b *testing.B) {
	src := wideListing(100_000)
	prog := datalog.MustParseProgram(`
q(X) :- label_td(X), firstchild(X,Y), label_b(Y).
?- q.
`)
	pl, err := eval.NewPlan(prog)
	if err != nil {
		b.Fatal(err)
	}
	nodes := html.Parse(src).Size()
	b.Run("arena", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a, err := html.ParseArena(strings.NewReader(src))
			if err != nil {
				b.Fatal(err)
			}
			db, err := pl.Run(eval.NavOf(a), nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(db.UnarySet("q")) == 0 {
				b.Fatal("no results")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
	})
	b.Run("arena+view", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			doc, err := html.ParseReader(strings.NewReader(src))
			if err != nil {
				b.Fatal(err)
			}
			db, err := pl.Run(eval.NewNav(doc), nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(db.UnarySet("q")) == 0 {
				b.Fatal("no results")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
	})
	b.Run("pointer-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			doc := html.ParseNodes(src)
			db, err := pl.Run(eval.NewNavFromNodes(doc), nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(db.UnarySet("q")) == 0 {
				b.Fatal("no results")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nodes), "ns/node")
	})
}

// BenchmarkHTMLStreamIngestion: the library side of the
// ingestion fan-out under mdlogd's /batch endpoint. A batch of raw
// HTML pages is pushed through Map with a parse-then-Select task, so
// tokenize → arena-build → evaluate all run inside the worker pool; the
// sequential lane is the same pipeline without the pool.
func BenchmarkHTMLStreamIngestion(b *testing.B) {
	ctx := context.Background()
	q, err := Compile("//tr[td/b]/td", LangXPath, WithoutCache())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	pages := make([]string, 16)
	for i := range pages {
		pages[i] = html.ProductListing(rng, 100)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pages {
				doc, err := ParseHTMLReader(strings.NewReader(p))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := q.Select(ctx, doc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("stream/workers=%d", workers), func(b *testing.B) {
			r := Runner{Workers: workers}
			for i := 0; i < b.N; i++ {
				srcs := make(chan io.Reader, len(pages))
				for _, p := range pages {
					srcs <- strings.NewReader(p)
				}
				close(srcs)
				for res := range Map(ctx, r, srcs, selectHTML(q)) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}
			}
		})
	}
}

// BenchmarkStatsRecordParallel hammers the aggregate-stats hot path:
// every worker's run is a result-memo hit, so recording the run is the
// only shared write left. With the former mutex this serialized a
// 16-way fan-out; atomic counters keep the workers independent.
func BenchmarkStatsRecordParallel(b *testing.B) {
	ctx := context.Background()
	q, err := Compile(`//td[b]`, LangXPath)
	if err != nil {
		b.Fatal(err)
	}
	doc := ParseHTML(html.ProductListing(rand.New(rand.NewSource(7)), 200))
	if _, err := q.Select(ctx, doc); err != nil { // prime the memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := q.Run(ctx, doc).Err; err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunnerFanout16 drives a 16-way Runner fan-out over memoized
// documents end to end — the serving shape whose throughput the
// aggregate-stats mutex used to cap.
func BenchmarkRunnerFanout16(b *testing.B) {
	ctx := context.Background()
	q, err := Compile(`//td[b]`, LangXPath, WithCache(NewTreeCache(0)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	docs := make([]*Tree, 64)
	for i := range docs {
		docs[i] = ParseHTML(html.ProductListing(rng, 50))
	}
	r := Runner{Workers: 16}
	for _, res := range MapAll(ctx, r, docs, q.Select) { // prime the memo
		if res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range MapAll(ctx, r, docs, q.Select) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}

// BenchmarkEngineCrossover times every crawl-fleet wrapper of mdbench
// on both grounding engines over product listings and news indexes
// from ~50 to ~100k nodes: uncached Select, so each run includes
// building the navigation arrays. The MSO member is left out — its
// automaton ignores the engine. The fleet rows run all members as one
// fused QuerySet, as mdlogd's /extractall does. linear ns/node ÷ bitmap
// ns/node is the per-wrapper crossover table of DESIGN.md § Engine
// comparison, the measurement behind eval.DefaultEngine.
func BenchmarkEngineCrossover(b *testing.B) {
	ctx := context.Background()
	members := append([]wrapperShape{
		{"td_b", LangDatalog, `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`, "", "ProductListing"},
		{"second_cell", LangDatalog, `q(X) :- label_tr(X), firstchild(X,Y), nextsibling(Y,Z), label_td(Z). ?- q.`, "", "ProductListing"},
		{"second_cell_implied", LangDatalog, `q(A) :- label_tr(A), firstchild(A,B), nextsibling(B,C), label_td(C), firstchild(A,D), dom(A). ?- q.`, "", "ProductListing"},
		{"summaries", LangDatalog, `q(X) :- label_li(X), child(X,Y), label_span(Y). ?- q.`, "", "NewsIndex"},
		{"headlines", LangDatalog, `q(X) :- label_li(X), firstchild(X,Y), label_a(Y). ?- q.`, "", "NewsIndex"},
		{"td_em", LangDatalog, `q(X) :- label_td(X), child(X,Y), label_em(Y). ?- q.`, "", "ProductListing"},
		{"prices", LangSpanner, `cell(X) :- label_b(Y), child(Y, X), label_#text(X).
price(X, A) :- cell(X), text(X, S), match(S, /(?<amt>[0-9]+\.[0-9][0-9])/, A).
?- cell.`, "", "ProductListing"},
	}, rootRecursiveShapes...)
	compiled := map[Engine][]*CompiledQuery{}
	fleets := map[Engine]*QuerySet{}
	for _, e := range []Engine{EngineLinear, EngineBitmap} {
		for _, m := range members {
			opts := []Option{WithEngine(e), WithoutCache()}
			if m.pred != "" {
				opts = append(opts, WithQueryPred(m.pred))
			}
			q, err := Compile(m.src, m.lang, opts...)
			if err != nil {
				b.Fatalf("%s: %v", m.name, err)
			}
			compiled[e] = append(compiled[e], q)
		}
		set, err := NewQuerySet(compiled[e]...)
		if err != nil {
			b.Fatal(err)
		}
		fleets[e] = set
	}
	perNode := func(b *testing.B, doc *Tree, run func() error) {
		for i := 0; i < b.N; i++ {
			if err := run(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(doc.Size()), "ns/node")
	}
	for _, gen := range []string{"ProductListing", "NewsIndex"} {
		for _, nodes := range []int{30, 1000, 10000, 100000} {
			doc := ParseHTML(widePage(gen, nodes))
			for _, e := range []Engine{EngineLinear, EngineBitmap} {
				for i, m := range members {
					q := compiled[e][i]
					b.Run(fmt.Sprintf("%s/%s/n=%d/%v", m.name, gen, doc.Size(), e), func(b *testing.B) {
						perNode(b, doc, func() error { _, err := q.Select(ctx, doc); return err })
					})
				}
				b.Run(fmt.Sprintf("fleet/%s/n=%d/%v", gen, doc.Size(), e), func(b *testing.B) {
					perNode(b, doc, func() error {
						for _, r := range fleets[e].Run(ctx, doc) {
							if r.Err != nil {
								return r.Err
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// BenchmarkDocumentEdit — EXT-LIVE: one live-document splice, an
// insert and then a removal of one product row in the middle of a
// 1k-row and a 10k-row table. A splice rewires only the parent and
// the two neighboring rows; the only part that grows with the table is
// the NextSibling walk to the insertion point. Renumbering the
// following siblings, as a stored child-position column would need,
// costs ~100x more on the 10k lane (EXPERIMENTS.md § EXT-LIVE).
func BenchmarkDocumentEdit(b *testing.B) {
	for _, rows := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			doc := NewDocument(ParseHTML(html.ProductListing(rand.New(rand.NewSource(1)), rows)))
			table := -1
			for _, n := range doc.Tree().Nodes {
				if n.Label == "table" {
					table = n.ID
					break
				}
			}
			if table < 0 {
				b.Fatal("no table in the product listing")
			}
			mid := len(doc.Tree().Nodes[table].Children) / 2
			// The arena copies the inserted subtree, so one row serves
			// every iteration.
			row := tree.New("tr", tree.New("td", tree.New("#text")), tree.New("td", tree.New("b")), tree.New("td"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, err := doc.InsertSubtree(table, mid, row)
				if err != nil {
					b.Fatal(err)
				}
				if err := doc.RemoveSubtree(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
