package html

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"mdlog/internal/tree"
)

func TestParseBasic(t *testing.T) {
	doc := Parse(`<html><body><p>Hello <b>world</b></p></body></html>`)
	if doc.Root.Label != "#document" {
		t.Fatalf("root = %q", doc.Root.Label)
	}
	if doc.Root.Children[0].Label != "html" {
		t.Fatalf("first = %q", doc.Root.Children[0].Label)
	}
	s := doc.String()
	want := "#document(html(body(p(#text,b(#text)))))"
	if s != want {
		t.Errorf("tree = %s, want %s", s, want)
	}
	// Text content: the boundary space before <b> survives.
	var texts []string
	for _, n := range doc.Nodes {
		if n.Label == "#text" {
			texts = append(texts, n.Text)
		}
	}
	if len(texts) != 2 || texts[0] != "Hello " || texts[1] != "world" {
		t.Errorf("texts = %q", texts)
	}
}

func TestVoidAndSelfClosing(t *testing.T) {
	doc := Parse(`<div><br><img src="x.png"><hr/><span/>text</div>`)
	div := doc.Root.Children[0]
	labels := []string{}
	for _, c := range div.Children {
		labels = append(labels, c.Label)
	}
	if strings.Join(labels, ",") != "br,img,hr,span,#text" {
		t.Errorf("children = %v", labels)
	}
	if img := div.Children[1]; img.Attrs["src"] != "x.png" {
		t.Errorf("img attrs = %v", img.Attrs)
	}
}

func TestImpliedEndTags(t *testing.T) {
	doc := Parse(`<table><tr><td>a<td>b<tr><td>c</table>`)
	table := doc.Root.Children[0]
	if table.Label != "table" || len(table.Children) != 2 {
		t.Fatalf("table children = %d (%s)", len(table.Children), doc)
	}
	tr1 := table.Children[0]
	if len(tr1.Children) != 2 || tr1.Children[0].Label != "td" {
		t.Errorf("tr1 = %s", doc)
	}
	doc2 := Parse(`<ul><li>one<li>two<li>three</ul>`)
	ul := doc2.Root.Children[0]
	if len(ul.Children) != 3 {
		t.Errorf("ul children = %d (%s)", len(ul.Children), doc2)
	}
}

func TestNestedTables(t *testing.T) {
	// A <table> inside a <td> must not trigger the td/tr implied-end
	// rules of the outer table.
	doc := Parse(`<table><tr><td><table><tr><td>inner</td></tr></table></td><td>x</td></tr></table>`)
	want := "#document(table(tr(td(table(tr(td(#text)))),td(#text))))"
	if got := doc.String(); got != want {
		t.Errorf("tree = %s, want %s", got, want)
	}
	// Nested lists: an inner <ul> keeps its <li>s; a following sibling
	// <li> still implicitly closes the open one.
	doc2 := Parse(`<ul><li>a<ul><li>a1<li>a2</ul></li><li>b</ul>`)
	want2 := "#document(ul(li(#text,ul(li(#text),li(#text))),li(#text)))"
	if got := doc2.String(); got != want2 {
		t.Errorf("tree = %s, want %s", got, want2)
	}
}

func TestCommentsDoctypeEntities(t *testing.T) {
	doc := Parse(`<!DOCTYPE html><!-- a comment --><p>x &amp; y &lt;z&gt; &#65;&euro;</p>`)
	p := doc.Root.Children[0]
	if p.Label != "p" || len(p.Children) != 1 {
		t.Fatalf("doc = %s", doc)
	}
	if got := p.Children[0].Text; got != "x & y <z> A€" {
		t.Errorf("text = %q", got)
	}
	// Unknown and invalid references survive verbatim.
	doc2 := Parse(`<p>&unknown; &#xZZ; &#; &#x; &#xD800;</p>`)
	if got := doc2.Root.Children[0].Children[0].Text; got != "&unknown; &#xZZ; &#; &#x; &#xD800;" {
		t.Errorf("unknown entity text = %q", got)
	}
}

func TestHexEntities(t *testing.T) {
	// Hexadecimal character references, both cases, decode like their
	// decimal equivalents.
	doc := Parse(`<p>&#x27;&#X2019;&#x41;&#65;</p>`)
	if got := doc.Root.Children[0].Children[0].Text; got != "'’AA" {
		t.Errorf("text = %q", got)
	}
	// In attribute values too.
	doc2 := Parse(`<a title="it&#x27;s">x</a>`)
	if got := doc2.Root.Children[0].Attrs["title"]; got != "it's" {
		t.Errorf("attr = %q", got)
	}
}

func TestRawTextElements(t *testing.T) {
	doc := Parse(`<div><script>if (a < b) { x(); }</script><p>after</p></div>`)
	div := doc.Root.Children[0]
	if len(div.Children) != 2 {
		t.Fatalf("div = %s", doc)
	}
	script := div.Children[0]
	if script.Label != "script" || len(script.Children) != 1 {
		t.Fatalf("script = %s", doc)
	}
	if !strings.Contains(script.Children[0].Text, "a < b") {
		t.Errorf("script text = %q", script.Children[0].Text)
	}
	// Entities stay opaque in raw text; the end tag match is
	// case-insensitive.
	doc2 := Parse(`<style>td &gt; b { color: red }</STYLE><p>x</p>`)
	style := doc2.Root.Children[0]
	if style.Label != "style" || !strings.Contains(style.Children[0].Text, "&gt;") {
		t.Fatalf("style = %s (%q)", doc2, style.Children[0].Text)
	}
	if doc2.Root.Children[1].Label != "p" {
		t.Errorf("after style = %s", doc2)
	}
}

func TestAttributes(t *testing.T) {
	doc := Parse(`<a href="/x" class='big' data-n=5 checked>link</a>`)
	a := doc.Root.Children[0]
	if a.Attrs["href"] != "/x" || a.Attrs["class"] != "big" ||
		a.Attrs["data-n"] != "5" || a.Attrs["checked"] != "" {
		t.Errorf("attrs = %v", a.Attrs)
	}
	if _, ok := a.Attrs["nope"]; ok {
		t.Error("phantom attribute")
	}
	// Quoted values may contain '>'.
	doc2 := Parse(`<a title="a>b">x</a>`)
	if got := doc2.Root.Children[0].Attrs["title"]; got != "a>b" {
		t.Errorf("title = %q", got)
	}
}

func TestUnmatchedAndStray(t *testing.T) {
	doc := Parse(`</div><p>a</b></p>2 < 3`)
	if doc.Size() < 3 {
		t.Errorf("doc = %s", doc)
	}
	// Stray '<' becomes text, parser must not panic or loop.
	doc2 := Parse(`a < b`)
	if got := doc2.Root.Children[0].Text; got != "a < b" {
		t.Errorf("text = %q", got)
	}
}

func TestWhitespaceCollapsing(t *testing.T) {
	doc := Parse("<p>  hello\n\t world  </p>")
	if got := doc.Root.Children[0].Children[0].Text; got != "hello world" {
		t.Errorf("text = %q", got)
	}
	// Whitespace-only text nodes are dropped.
	doc2 := Parse("<div> \n <p>x</p> \n </div>")
	div := doc2.Root.Children[0]
	if len(div.Children) != 1 {
		t.Errorf("div children = %d", len(div.Children))
	}
}

// TestBoundarySpaces pins the inline-boundary rule: a text node
// keeps one space where it abuts element siblings, so concatenating a
// row's text preserves word boundaries.
func TestBoundarySpaces(t *testing.T) {
	cases := []struct {
		src  string
		want []string
	}{
		{`<td><b>Price:</b> 9 EUR</td>`, []string{"Price:", " 9 EUR"}},
		{`<td>from <b>9</b> EUR</td>`, []string{"from ", "9", " EUR"}},
		{`<p>a <i>b</i></p>`, []string{"a ", "b"}},
		{`<p><i>a</i> b</p>`, []string{"a", " b"}},
		{`<p>no<i>gap</i></p>`, []string{"no", "gap"}},
		// Leading whitespace with no preceding sibling still trims.
		{`<p>  x</p>`, []string{"x"}},
		// Trailing whitespace before the element's end tag still trims.
		{`<p>x  </p><p>y</p>`, []string{"x", "y"}},
		// Void elements count as element boundaries too.
		{`<p>a <br>b</p>`, []string{"a ", "b"}},
		// &nbsp; acts as whitespace at a boundary.
		{`<p><b>a</b>&nbsp;b</p>`, []string{"a", " b"}},
	}
	for _, c := range cases {
		doc := Parse(c.src)
		var texts []string
		for _, n := range doc.Nodes {
			if n.Label == "#text" {
				texts = append(texts, n.Text)
			}
		}
		if fmt.Sprint(texts) != fmt.Sprint(c.want) {
			t.Errorf("%s: texts = %q, want %q", c.src, texts, c.want)
		}
	}
}

// errReader fails after a prefix, to exercise ParseReader's only error
// path.
type errReader struct {
	data string
	pos  int
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("backend exploded")
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

func TestParseReader(t *testing.T) {
	src := ProductListing(rand.New(rand.NewSource(3)), 20)
	fromString := Parse(src)
	fromReader, err := ParseReader(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !fromString.Equal(fromReader) {
		t.Error("ParseReader disagrees with Parse")
	}
	// One-byte-at-a-time reads must not change the result.
	slow, err := ParseReader(iotest{strings.NewReader(src)})
	if err != nil {
		t.Fatal(err)
	}
	if !fromString.Equal(slow) {
		t.Error("one-byte reads change the parse")
	}
	if _, err := ParseReader(&errReader{data: "<html><p>x"}); err == nil {
		t.Error("read error not reported")
	}
}

// iotest delivers one byte per Read.
type iotest struct{ r io.Reader }

func (r iotest) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return r.r.Read(p)
}

// TestStreamingMatchesNodes differential-tests the streaming arena
// parser against the independent pointer-per-node builder on crafted
// and generated documents.
// streamingCrafted is the crafted input list of the streaming/reference
// parser differential, and the seed corpus of its fuzz target.
var streamingCrafted = []string{
	"",
	"plain text only",
	`<html><body><p>Hello <b>world</b></p></body></html>`,
	`<table><tr><td>a<td>b<tr><td>c</table>`,
	`<ul><li>one<li>two<li>three</ul>`,
	`<table><tr><td><table><tr><td>x</table></table>`,
	`<!DOCTYPE html><!-- c --><p>x &amp; &#x27;y&#X2019; &#65;</p>`,
	`<div><script>if (a < b) { x(); }</script><p>after</p></div>`,
	`<style>a &gt; b</STYLE>tail`,
	`<a href="/x" class='big' data-n=5 checked>link</a>`,
	`<a title="a>b" q='c>d'>x</a>`,
	`</div><p>a</b></p>2 < 3`,
	`a < b`,
	`<p>unterminated `,
	`<p attr="unterminated`,
	`<script>never closed`,
	`</unterminated`,
	`<!-- unterminated`,
	`<td><b>Price:</b> 9 EUR</td>`,
	`<p>a <br>b<hr/>c </p><p>d</p>`,
	"<div> \n <p>x</p> \n </div>",
	`<<<>>><x/><//>`,
	// Names are lowercased ASCII-only, and a raw-text end tag is found
	// at a byte offset that invalid UTF-8 must not shift.
	"<script>" + strings.Repeat("\xff", 10) + "</script>",
	"<p \xcd=0>",
	"<p AÉ=1>",
}

// checkParsersAgree fails t unless the reference parser and the
// streaming parser build the same tree from src, with the same text and
// attributes on every node.
func checkParsersAgree(t *testing.T, src string) {
	t.Helper()
	legacy := ParseNodes(src)
	streamed, err := ParseReader(strings.NewReader(src))
	if err != nil {
		t.Fatalf("%.40q: %v", src, err)
	}
	if !legacy.Equal(streamed) {
		t.Errorf("parsers disagree on %.80q:\nnodes:  %s\nstream: %s", src, legacy, streamed)
		return
	}
	for j, n := range legacy.Nodes {
		sn := streamed.Nodes[j]
		if n.Text != sn.Text {
			t.Errorf("%.40q: node %d text %q vs %q", src, j, n.Text, sn.Text)
		}
		if len(n.Attrs) != len(sn.Attrs) {
			t.Errorf("%.40q: node %d attrs %v vs %v", src, j, n.Attrs, sn.Attrs)
			continue
		}
		for k, v := range n.Attrs {
			if w, ok := sn.Attrs[k]; !ok || w != v {
				t.Errorf("%.40q: node %d attr %q=%q vs %q", src, j, k, v, w)
			}
		}
	}
}

func TestStreamingMatchesNodes(t *testing.T) {
	crafted := append([]string(nil), streamingCrafted...)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		crafted = append(crafted,
			ProductListing(rng, 5+rng.Intn(40)),
			NewsIndex(rng, 1+rng.Intn(4), 1+rng.Intn(6)))
	}
	for _, src := range crafted {
		checkParsersAgree(t, src)
	}
}

// FuzzStreamingMatchesNodes is the streaming/reference parser
// differential over arbitrary bytes: neither parser may panic, and both
// must build the same tree with the same text and attributes.
//
//	go test -run '^$' -fuzz '^FuzzStreamingMatchesNodes$' -fuzztime 10s ./internal/html
func FuzzStreamingMatchesNodes(f *testing.F) {
	for _, src := range streamingCrafted {
		f.Add(src)
	}
	f.Fuzz(checkParsersAgree)
}

// TestParseArena checks the bare-arena entry point agrees with the
// view-building one.
func TestParseArena(t *testing.T) {
	src := ProductListing(rand.New(rand.NewSource(5)), 10)
	a, err := ParseArena(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	doc := Parse(src)
	if a.Len() != doc.Size() {
		t.Fatalf("arena %d nodes, tree %d", a.Len(), doc.Size())
	}
	for _, n := range doc.Nodes {
		if a.LabelName(int32(n.ID)) != n.Label {
			t.Fatalf("node %d label %q vs %q", n.ID, a.LabelName(int32(n.ID)), n.Label)
		}
		if a.Text(int32(n.ID)) != n.Text {
			t.Fatalf("node %d text %q vs %q", n.ID, a.Text(int32(n.ID)), n.Text)
		}
	}
	if doc.Arena() == nil {
		t.Error("parsed tree lost its arena")
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	page := ProductListing(rng, 10)
	doc := Parse(page)
	// 1 header row + 10 item rows.
	trs := 0
	for _, n := range doc.Nodes {
		if n.Label == "tr" {
			trs++
		}
	}
	if trs != 11 {
		t.Errorf("tr count = %d", trs)
	}
	idx := Parse(NewsIndex(rng, 3, 4))
	lis := 0
	for _, n := range idx.Nodes {
		if n.Label == "li" {
			lis++
		}
	}
	if lis != 12 {
		t.Errorf("li count = %d", lis)
	}
	// Deterministic for a fixed seed.
	if ProductListing(rand.New(rand.NewSource(7)), 5) != ProductListing(rand.New(rand.NewSource(7)), 5) {
		t.Error("generator not deterministic")
	}
}

// TestWideDocument smoke-tests a wide, flat page (the product-listing
// shape at scale) through the streaming parser.
func TestWideDocument(t *testing.T) {
	var b strings.Builder
	b.WriteString("<html><body><table>")
	const rows = 3000
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "<tr><td>item %d</td><td><b>$%d</b></td></tr>", i, i)
	}
	b.WriteString("</table></body></html>")
	doc := Parse(b.String())
	trs := 0
	for _, n := range doc.Nodes {
		if n.Label == "tr" {
			trs++
		}
	}
	if trs != rows {
		t.Fatalf("tr count = %d", trs)
	}
	a := doc.Arena()
	if a.Len() != doc.Size() {
		t.Fatalf("arena size %d vs %d", a.Len(), doc.Size())
	}
	_ = tree.NoNode
}

// TestAttrsIndependentMaps: nodes with byte-identical attribute
// sections must not share one Attrs map — mutating one node cannot
// leak into another.
func TestAttrsIndependentMaps(t *testing.T) {
	doc := Parse(`<table><tr class="item"><td>a</td></tr><tr class="item"><td>b</td></tr></table>`)
	var trs []*tree.Node
	for _, n := range doc.Nodes {
		if n.Label == "tr" {
			trs = append(trs, n)
		}
	}
	if len(trs) != 2 {
		t.Fatalf("tr count = %d", len(trs))
	}
	trs[0].Attrs["visited"] = "1"
	if _, leaked := trs[1].Attrs["visited"]; leaked {
		t.Error("attribute mutation leaked into a sibling node")
	}
	if trs[1].Attrs["class"] != "item" {
		t.Errorf("attrs = %v", trs[1].Attrs)
	}
}

// noProgressReader returns (0, nil) forever — a misbehaving but
// io.Reader-legal implementation that must not hang the parser.
type noProgressReader struct{ sent bool }

func (r *noProgressReader) Read(p []byte) (int, error) {
	if !r.sent && len(p) > 0 {
		r.sent = true
		return copy(p, "<p>x"), nil
	}
	return 0, nil
}

func TestParseReaderNoProgress(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := ParseReader(&noProgressReader{})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("expected io.ErrNoProgress-style error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ParseReader hung on a (0, nil) reader")
	}
}

// TestArenaColumnsTrimmed: the streaming parser sizes its arena from
// the input length, which overshoots on markup-heavy pages; a parsed
// arena must keep no slack in its columns, since cached documents live
// long.
func TestArenaColumnsTrimmed(t *testing.T) {
	src := NewsIndex(rand.New(rand.NewSource(21)), 6, 1000/30)
	a, err := ParseArena(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if guess := len(src)/10 + 64; guess <= a.Len() {
		t.Fatalf("%d rows against a size guess of %d: the page no longer exercises the trim", a.Len(), guess)
	}
	for name, col := range map[string][]int32{
		"Label": a.Label, "Parent": a.Parent, "FirstChild": a.FirstChild,
		"NextSibling": a.NextSibling, "PrevSibling": a.PrevSibling,
		"LastChild": a.LastChild, "TextStart": a.TextStart, "TextEnd": a.TextEnd,
	} {
		if len(col) != a.Len() || cap(col) != len(col) {
			t.Errorf("%s: len %d, cap %d, want both %d", name, len(col), cap(col), a.Len())
		}
	}
}
