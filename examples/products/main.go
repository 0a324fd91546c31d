// A Lixto-style wrapping session (Sections 1 and 6 of the paper): a
// synthetic product-listing page is wrapped twice — once with a
// hand-written Elog⁻ program, once by simulating the visual
// specification process of Section 6.2 (clicking example nodes and
// letting the system infer and generalize the subelem paths). The
// compiled wrappers then fan out over a batch of fresh pages from the
// same generator through the Runner, demonstrating both the paper's
// robustness argument (wrappers describe the objects of interest, not
// the whole document) and the compile-once/run-many serving shape.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"

	mdlog "mdlog"
	"mdlog/internal/elog"
	"mdlog/internal/html"
	"mdlog/internal/wrap"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	doc := mdlog.ParseHTML(html.ProductListing(rng, 4))
	ctx := context.Background()

	// --- Route 1: hand-written Elog⁻, compiled once -------------------
	src := `
item(x)   :- root(x0), subelem("html.body.table.tr", x0, x).
name(x)   :- item(x0), subelem("td.#text", x0, x), firstsibling(x).
price(x)  :- item(x0), subelem("td.b.#text", x0, x).
status(x) :- item(x0), subelem("td.em.#text", x0, x).
`
	q, err := mdlog.Compile(src, mdlog.LangElog,
		mdlog.WithWrapOptions(mdlog.WrapOptions{KeepText: true}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Hand-written wrapper:")
	fmt.Print(src)
	fmt.Println("\nExtraction from the example page:")
	out, err := q.Wrap(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	mustXML(out)

	// --- Route 2: visual specification (Section 6.2) ------------------
	// The "user" clicks the first product row, then a price inside it.
	b := mdlog.NewElogBuilder(doc)
	rowNode, priceNode := -1, -1
	for _, n := range doc.Nodes {
		if n.Label == "tr" && n.Attrs["class"] == "item" && rowNode == -1 {
			rowNode = n.ID
		}
		if n.Label == "b" && priceNode == -1 {
			priceNode = n.ID
		}
	}
	pb := b.DefinePattern("row", elog.RootPattern)
	if err := pb.Click(doc.Nodes[rowNode]); err != nil {
		log.Fatal(err)
	}
	if _, err := pb.Commit(); err != nil {
		log.Fatal(err)
	}
	pb2 := b.DefinePattern("price", "row")
	if err := pb2.Click(doc.Nodes[priceNode]); err != nil {
		log.Fatal(err)
	}
	if _, err := pb2.Commit(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nVisually specified wrapper (inferred paths):")
	fmt.Print(b.Program().String())

	// Compile the inferred program once...
	vq, err := mdlog.CompileElog(b.Program(),
		mdlog.WithWrapOptions(mdlog.WrapOptions{KeepText: true}))
	if err != nil {
		log.Fatal(err)
	}
	// ... and fan it out over a batch of new, larger pages.
	docs := make([]*mdlog.Tree, 3)
	for i := range docs {
		docs[i] = mdlog.ParseHTML(html.ProductListing(rng, 6+2*i))
	}
	fmt.Println("\nVisual wrapper fanned out over new pages:")
	for _, res := range mdlog.MapAll(ctx, mdlog.Runner{Workers: 3}, docs, vq.Wrap) {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		rows := 0
		for _, n := range res.Value.Nodes {
			if n.Label == "row" {
				rows++
			}
		}
		fmt.Printf("<!-- page %d: %d rows extracted -->\n", res.Index, rows)
		mustXML(res.Value)
	}
	s := vq.Stats()
	fmt.Printf("compiled once (%v), %d runs, cumulative eval %v\n", s.Compile, s.Runs, s.Eval)
}

func mustXML(t *mdlog.Tree) {
	if err := wrap.WriteXML(os.Stdout, t); err != nil {
		log.Fatal(err)
	}
}
