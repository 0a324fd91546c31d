package mdlog

import (
	"context"
	"fmt"
	"testing"

	"mdlog/internal/caterpillar"
	"mdlog/internal/tree"
)

// helpers shared with bench_test.go.
func mustCat(src string) CaterpillarExpr { return caterpillar.MustParse(src) }

func selectRoot(e CaterpillarExpr, t *tree.Tree) []int {
	return caterpillar.SelectFromRoot(e, t)
}

// TestFacadeEndToEnd exercises the public API surface.
func TestFacadeEndToEnd(t *testing.T) {
	doc := ParseHTML(`<html><body><ul><li>one</li><li>two</li></ul></body></html>`)
	if doc.Root.Label != "#document" {
		t.Fatal("html parse wrong")
	}

	// Datalog route.
	p, err := ParseProgram(`
li(X) :- label_li(X).
first(X) :- li(X), firstchild(Y,X).
?- first.
`)
	if err != nil {
		t.Fatal(err)
	}
	cq, err := CompileProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cq.Select(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Errorf("first li = %v", ids)
	}

	// Engine dispatch.
	sq, err := CompileProgram(p, WithEngine(EngineLinear))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sq.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UnarySet("li")) != 2 {
		t.Errorf("li = %v", res.UnarySet("li"))
	}

	// MSO route.
	f, err := ParseMSO("exists y (child(x,y) & label_li(y))")
	if err != nil {
		t.Fatal(err)
	}
	q, err := CompileMSOQuery(f)
	if err != nil {
		t.Fatal(err)
	}
	sel := q.Select(doc)
	if len(sel) != 1 { // only the ul has li children
		t.Errorf("MSO select = %v", sel)
	}

	// TMNF route.
	cp, err := ParseProgram(`q(X) :- child(X,Y), label_li(Y).`)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ToTMNF(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := IsTMNF(tp); err != nil {
		t.Fatal(err)
	}
	lq, err := CompileProgram(tp, WithEngine(EngineLinear))
	if err != nil {
		t.Fatal(err)
	}
	got, err := lq.Eval(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.UnarySet("q")) != fmt.Sprint(sel) {
		t.Errorf("TMNF %v vs MSO %v", got.UnarySet("q"), sel)
	}

	// Caterpillar route.
	e, err := ParseCaterpillar("child.child")
	if err != nil {
		t.Fatal(err)
	}
	cat, err := CompileCaterpillar(e)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := cat.Select(context.Background(), doc); err != nil || len(ids) == 0 {
		t.Errorf("caterpillar select empty (%v)", err)
	}

	// Elog route with the visual builder.
	b := NewElogBuilder(doc)
	pb := b.DefinePattern("item", "root")
	var li *Node
	for _, n := range doc.Nodes {
		if n.Label == "li" {
			li = n
			break
		}
	}
	if err := pb.Click(li); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Commit(); err != nil {
		t.Fatal(err)
	}
	items, err := b.Instances("item")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Errorf("items = %v", items)
	}

	// Wrapper route.
	out, err := cq.Wrap(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() < 2 {
		t.Errorf("output tree too small: %s", out)
	}
}

func TestFacadeTreeHelpers(t *testing.T) {
	tr, err := ParseTree("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 3 {
		t.Error("parse tree wrong")
	}
	n := NewNode("x", NewNode("y"))
	tr2 := NewTree(n)
	if tr2.Size() != 2 || tr2.Nodes[1].Label != "y" {
		t.Error("NewTree wrong")
	}
	ra := RankedAlphabet{"a": 2, "b": 0}
	if ra.MaxRank() != 2 {
		t.Error("ranked alphabet wrong")
	}
	db := TreeDB(tr)
	if len(db.UnarySet("leaf")) != 2 {
		t.Error("TreeDB wrong")
	}
}
