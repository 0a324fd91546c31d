// Quickstart: parse an HTML page, compile a three-rule Elog⁻ wrapper
// once, and run it — the minimal end-to-end path through the unified
// API (HTML front end → Compile → Elog⁻ → monadic datalog → TMNF →
// linear-time evaluation → output tree).
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	mdlog "mdlog"
	"mdlog/internal/wrap"
)

const page = `
<html><body>
  <h1>Spring reading list</h1>
  <ul class="books">
    <li><b>The Art of Trees</b> <span>12.50</span></li>
    <li><b>Monadic Tales</b> <span>8.99</span></li>
    <li><b>Datalog at Dawn</b> <span>15.00</span></li>
  </ul>
</body></html>`

const wrapper = `
book(x)  :- root(x0), subelem("html.body.ul.li", x0, x).
title(x) :- book(x0), subelem("b.#text", x0, x).
price(x) :- book(x0), subelem("span.#text", x0, x).
`

func main() {
	doc := mdlog.ParseHTML(page)
	fmt.Println("Document tree:")
	fmt.Print(doc.Pretty())

	// Compile once: Elog⁻ → monadic datalog → TMNF → prepared plan.
	q, err := mdlog.Compile(wrapper, mdlog.LangElog,
		mdlog.WithWrapOptions(mdlog.WrapOptions{KeepText: true}))
	if err != nil {
		log.Fatal(err)
	}

	// Run many (here: once; see examples/products for the fan-out).
	ctx := context.Background()
	res := q.Run(ctx, doc)
	if res.Err != nil {
		log.Fatal(res.Err)
	}
	fmt.Println("Pattern assignment:")
	for _, pat := range q.ExtractPreds() {
		fmt.Printf("  %-6s -> nodes %v\n", pat, res.Assignment[pat])
	}
	// Wrap builds the output tree from the same assignment (a repeat
	// run on the same tree is served from the result memo).
	out, err := q.Wrap(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nExtracted tree:")
	if err := wrap.WriteXML(os.Stdout, out); err != nil {
		log.Fatal(err)
	}

	s := q.Stats()
	fmt.Printf("\ncompiled in %v, evaluated in %v\n", s.Compile, s.Eval)
}
