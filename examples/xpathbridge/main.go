// The Section 7 remark made concrete: Core XPath queries compile
// through the unified API into monadic datalog, are normalized to
// TMNF, and evaluate with the linear-time engine of Theorem 4.2 — so
// XPath inherits the O(|P|·|dom|) bound. Queries using not(·) fall
// back to the direct evaluator inside the same CompiledQuery
// abstraction; the reference evaluator cross-checks every result.
package main

import (
	"context"
	"fmt"
	"log"

	mdlog "mdlog"
	"mdlog/internal/xpath"
)

const page = `
<html><body>
<table>
  <tr><td>Espresso</td><td><b>2.20</b></td></tr>
  <tr><td>Cappuccino</td><td><b>3.10</b></td></tr>
  <tr><td>Water</td><td>1.00</td></tr>
</table>
</body></html>`

func main() {
	doc := mdlog.ParseHTML(page)
	queries := []string{
		"//tr/td",
		"//tr[td/b]",                  // rows with a bold price
		"//td[following-sibling::td]", // first column
		"//b/ancestor::tr",            // rows again, bottom-up
		"//tr[not(td/b)]",             // negation: direct-evaluator plan
	}
	ctx := context.Background()
	for _, src := range queries {
		q, err := mdlog.Compile(src, mdlog.LangXPath)
		if err != nil {
			log.Fatal(err)
		}
		got, err := q.Select(ctx, doc)
		if err != nil {
			log.Fatal(err)
		}
		// Cross-check against the reference evaluator proper, which
		// shares nothing with the compiled plan.
		xp, err := mdlog.ParseXPath(src)
		if err != nil {
			log.Fatal(err)
		}
		ref := xpath.Select(xp, doc)
		status := "ok"
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			status = fmt.Sprintf("MISMATCH vs reference %v", ref)
		}
		fmt.Printf("%-32s -> %v  (%s, eval %v)\n", src, got, status, q.Stats().Eval)
	}
}
