package xpath

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mdlog/internal/eval"
	"mdlog/internal/html"
	"mdlog/internal/tmnf"
	"mdlog/internal/tree"
)

// printCases are queries that must parse and reparse; they also seed
// FuzzXPathSelect.
var printCases = []string{
	"/html/body//div",
	"//table/tr[td/b]/td",
	"//li[following-sibling::li]",
	"/a/b[c and d or e]",
	"//p[not(b)]",
	"//a/..",
	"//a/.",
	"/descendant-or-self::p/ancestor::div",
	"//td/text()",
	"/",
}

func TestParseAndPrint(t *testing.T) {
	for _, src := range printCases {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Parse(p.String()); err != nil {
			t.Errorf("reparse of %q (-> %q): %v", src, p.String(), err)
		}
	}
	for _, bad := range []string{"", "//[", "//a[", "//a[b", "//unknown::a", "//a[not(b]", "//name()"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func docUnderTest() *tree.Tree {
	return html.Parse(`
<html><body>
<table><tr><td>a</td><td><b>x</b></td></tr><tr><td>c</td></tr></table>
<div><p>one</p><p><b>two</b></p></div>
</body></html>`)
}

func TestSelectBasics(t *testing.T) {
	doc := docUnderTest()
	byLabel := func(label string) []int {
		var out []int
		for _, n := range doc.Nodes {
			if n.Label == label {
				out = append(out, n.ID)
			}
		}
		return out
	}
	cases := []struct {
		src  string
		want []int
	}{
		{"//td", byLabel("td")},
		{"//tr", byLabel("tr")},
		{"/", []int{0}},
		{"//td[b]", nil}, // filled below
		{"//tr[td/b]", nil},
		{"//p[not(b)]", nil},
		{"//td/..", byLabel("tr")},
		{"//b/ancestor::table", byLabel("table")},
		{"//td[following-sibling::td]", nil},
	}
	// td containing b: the second td of row 1.
	var tdWithB, trWithTdB, pWithoutB, tdWithFS []int
	for _, n := range doc.Nodes {
		if n.Label == "td" {
			for _, c := range n.Children {
				if c.Label == "b" {
					tdWithB = append(tdWithB, n.ID)
				}
			}
			if n.NextSibling() != nil && n.NextSibling().Label == "td" {
				tdWithFS = append(tdWithFS, n.ID)
			}
		}
		if n.Label == "tr" {
			for _, c := range n.Children {
				for _, cc := range c.Children {
					if cc.Label == "b" {
						trWithTdB = append(trWithTdB, n.ID)
					}
				}
			}
		}
		if n.Label == "p" {
			hasB := false
			for _, c := range n.Children {
				hasB = hasB || c.Label == "b"
			}
			if !hasB {
				pWithoutB = append(pWithoutB, n.ID)
			}
		}
	}
	cases[3].want = tdWithB
	cases[4].want = trWithTdB
	cases[5].want = pWithoutB
	cases[8].want = tdWithFS
	for _, c := range cases {
		got := Select(MustParse(c.src), doc)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%q: got %v, want %v", c.src, got, c.want)
		}
	}
}

func TestFollowingPreceding(t *testing.T) {
	doc := tree.MustParse("r(a(b,c),d(e),f)")
	// following of b (id 2): all nodes strictly after in document order
	// that are not its ancestors/descendants: c, d, e, f.
	got := Select(MustParse("//b/following::*"), doc)
	if fmt.Sprint(got) != "[3 4 5 6]" {
		t.Errorf("following = %v", got)
	}
	got = Select(MustParse("//e/preceding::*"), doc)
	// preceding of e (id 5): nodes before it excluding ancestors: a,b,c.
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("preceding = %v", got)
	}
}

// TestDatalogAgreesWithSelect is the Section 7 mapping check: the
// generated monadic datalog program selects the same nodes, whether
// evaluated generically or through TMNF + the linear engine.
func TestDatalogAgreesWithSelect(t *testing.T) {
	queries := []string{
		"//td",
		"//tr[td/b]",
		"//tr[td/b]/td",
		"/html/body//p[b]",
		"//td[following-sibling::td]",
		"//b/ancestor::tr",
		"//p/preceding-sibling::p",
		"//div/p[b or preceding-sibling::p]",
		"//td/text()",
		"//table/descendant::b",
		"//b/../..",
		"//td[. and ..]",
	}
	doc := docUnderTest()
	for _, src := range queries {
		p := MustParse(src)
		want := Select(p, doc)
		prog, err := ToDatalog(p, "q")
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		res, err := eval.EvalOnTree(prog, doc, eval.EngineSemiNaive)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := res.UnarySet("q"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q: datalog %v, direct %v", src, got, want)
		}
		// Through the full TMNF pipeline and the linear-time engine.
		tp, err := tmnf.Transform(prog)
		if err != nil {
			t.Fatalf("%q: tmnf: %v", src, err)
		}
		res2, err := eval.LinearTree(tp, doc)
		if err != nil {
			t.Fatalf("%q: linear: %v", src, err)
		}
		if got := res2.UnarySet("q"); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%q (TMNF): datalog %v, direct %v", src, got, want)
		}
	}
}

func TestDatalogAgreesQuick(t *testing.T) {
	queries := []string{"//a[b]", "//b/ancestor::a", "//a/following-sibling::b", "//a[descendant::b]/c"}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		doc := tree.Random(rng, tree.RandomOptions{
			Labels: []string{"a", "b", "c"}, Size: 1 + rng.Intn(25), MaxChildren: 4})
		for _, src := range queries {
			q := MustParse(src)
			want := Select(q, doc)
			prog, err := ToDatalog(q, "q")
			if err != nil {
				return false
			}
			res, err := eval.EvalOnTree(prog, doc, eval.EngineSemiNaive)
			if err != nil {
				return false
			}
			if fmt.Sprint(res.UnarySet("q")) != fmt.Sprint(want) {
				t.Logf("%q on %s: datalog %v, direct %v", src, doc, res.UnarySet("q"), want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestToDatalogRejectsNegation(t *testing.T) {
	if _, err := ToDatalog(MustParse("//p[not(b)]"), "q"); err == nil {
		t.Error("not(·) accepted by the positive translation")
	}
}

func TestSelectSorted(t *testing.T) {
	doc := docUnderTest()
	got := Select(MustParse("//td"), doc)
	if !sort.IntsAreSorted(got) {
		t.Errorf("results not in document order: %v", got)
	}
}
