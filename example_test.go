package mdlog_test

// Runnable godoc examples for the façade; `go test` executes them, so
// every Output comment is CI-verified documentation.

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	mdlog "mdlog"
)

const examplePage = `<html><body><table>
<tr><td>Espresso</td><td><b>2.20</b></td></tr>
<tr><td>Water</td><td>1.00</td></tr>
</table></body></html>`

// The quickstart: parse a document, compile a query once, run it.
func Example() {
	doc := mdlog.ParseHTML(examplePage)

	q, err := mdlog.Compile("//td[b]", mdlog.LangXPath)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := q.Select(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ids)
	// Output: [7]
}

// The paper's equivalence, executable: the same query compiled from
// four formalisms selects the same nodes.
func ExampleCompile() {
	doc := mdlog.ParseHTML(examplePage)
	for _, src := range []struct {
		lang mdlog.Language
		text string
	}{
		{mdlog.LangDatalog, `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`},
		{mdlog.LangMSO, `label_td(x) & exists y (child(x,y) & label_b(y))`},
		{mdlog.LangXPath, `//td[b]`},
		{mdlog.LangCaterpillar, `child*.label_td.child.label_b.(child^-1).label_td`},
	} {
		q, err := mdlog.Compile(src.text, src.lang)
		if err != nil {
			log.Fatal(err)
		}
		ids, err := q.Select(context.Background(), doc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s %v\n", q.Language(), ids)
	}
	// Output:
	// datalog     [7]
	// mso         [7]
	// xpath       [7]
	// caterpillar [7]
}

// An Elog⁻ wrapper (Section 6): one run reads the answer out in every
// shape — here the pattern → nodes assignment that Wrap relabels into
// the output tree.
func ExampleCompiledQuery_Run() {
	q, err := mdlog.Compile(`
item(x)  :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- item(x0), subelem("td.b", x0, x).
`, mdlog.LangElog, mdlog.WithWrapOptions(mdlog.WrapOptions{KeepText: true}))
	if err != nil {
		log.Fatal(err)
	}
	doc := mdlog.ParseHTML(examplePage)
	res := q.Run(context.Background(), doc)
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	assign := res.Assignment
	patterns := make([]string, 0, len(assign))
	for pat := range assign {
		patterns = append(patterns, pat)
	}
	sort.Strings(patterns)
	for _, pat := range patterns {
		fmt.Printf("%s: %d node(s)\n", pat, len(assign[pat]))
	}
	// Output:
	// item: 2 node(s)
	// price: 1 node(s)
}

// Streaming ingestion: parse from any io.Reader — one tokenizer pass
// builds the arena representation the engines index directly.
func ExampleParseHTMLReader() {
	doc, err := mdlog.ParseHTMLReader(strings.NewReader(examplePage))
	if err != nil {
		log.Fatal(err) // only a read error; malformed HTML never fails
	}
	q, err := mdlog.Compile(`q(X) :- label_b(X). ?- q.`, mdlog.LangDatalog)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := q.Select(context.Background(), doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(ids))
	// Output: 1
}

// One wrapper, many pages: Map fans any run over a stream of inputs
// with a bounded worker pool, results in input order. Here each worker
// parses a raw page and runs the compiled query on it.
func ExampleMap() {
	q, err := mdlog.Compile("//td[b]", mdlog.LangXPath)
	if err != nil {
		log.Fatal(err)
	}
	pages := make(chan string, 2)
	pages <- examplePage
	pages <- `<html><body><table><tr><td><b>9.99</b></td></tr></table></body></html>`
	close(pages)
	selectPage := func(ctx context.Context, page string) ([]int, error) {
		return q.Select(ctx, mdlog.ParseHTML(page))
	}
	for res := range mdlog.Map(context.Background(), mdlog.Runner{Workers: 2}, pages, selectPage) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("doc %d: %d match(es)\n", res.Index, len(res.Value))
	}
	// Output:
	// doc 0: 1 match(es)
	// doc 1: 1 match(es)
}

// Many wrappers, one page: a QuerySet fuses the datalog-routed members
// (here XPath and Elog⁻) into one shared evaluation pass — the base
// relations are grounded once for the whole fleet — while the MSO
// automaton member runs alongside with identical results.
func ExampleQuerySet() {
	set, err := mdlog.CompileSet([]mdlog.SetSpec{
		{Name: "bold-cells", Source: `//td[b]`, Lang: mdlog.LangXPath},
		{Name: "prices", Source: `
item(x)  :- root(x0), subelem("html.body.table.tr", x0, x).
price(x) :- item(x0), subelem("td.b", x0, x).
`, Lang: mdlog.LangElog, Options: []mdlog.Option{mdlog.WithQueryPred("price")}},
		{Name: "mso-bold", Source: `label_td(x) & exists y (child(x,y) & label_b(y))`,
			Lang: mdlog.LangMSO},
	})
	if err != nil {
		log.Fatal(err)
	}
	doc := mdlog.ParseHTML(examplePage)
	for _, res := range set.Run(context.Background(), doc) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("%-10s %v\n", res.Name, res.IDs)
	}
	fmt.Printf("fused %d of %d wrappers\n", set.FusedLen(), set.Len())
	// Output:
	// bold-cells [7]
	// prices     [8]
	// mso-bold   [7]
	// fused 2 of 3 wrappers
}
