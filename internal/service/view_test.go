package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"testing"

	mdlog "mdlog"
	"mdlog/internal/html"
	"mdlog/internal/tree"
	"mdlog/internal/wrap"
)

const viewPage = `<html><body><table>
<tr><td>Espresso</td><td><b>$2.20</b></td></tr>
<tr><td>Water</td><td>$1.00</td></tr>
</table></body></html>`

// cachedTree returns the doc cache's tree for body, failing if absent.
func cachedTree(t *testing.T, s *Server, body string) *mdlog.Tree {
	t.Helper()
	s.docs.mu.Lock()
	defer s.docs.mu.Unlock()
	e, ok := s.docs.m[HashDoc([]byte(body))]
	if !ok {
		t.Fatal("document is not in the doc cache")
	}
	return e.tree
}

// TestCachedTreesStayPointerFree pins the arena-only serving path: a
// cached page served to /extractall (nodes, assign, spans) and /extract
// (nodes, spans) over wrappers in every language never builds its
// *Node view — the engines, the MSO automaton, the direct XPath and
// Elog⁻Δ evaluators and span extraction all read the arena. output=xml is the one reply that needs the view; it
// builds it and still answers like Wrap on an eagerly parsed tree.
func TestCachedTreesStayPointerFree(t *testing.T) {
	p, err := mdlog.ParseProgram(`q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := mdlog.ToTMNF(p)
	if err != nil {
		t.Fatal(err)
	}
	wrappers := []struct{ name, lang, src string }{
		{"dl", "datalog", `q(X) :- label_td(X), child(X,Y), label_b(Y). ?- q.`},
		{"tm", "tmnf", tp.String() + "?- q."},
		{"xp", "xpath", `//td[b]`},
		{"xn", "xpath", `//td[not(i)]`},
		{"ms", "mso", `label_td(x) & exists y (child(x,y) & label_b(y))`},
		{"ca", "caterpillar", `child*.label_td.child.label_b.(child^-1).label_td`},
		{"el", "elog", `q(x) :- root(x0), subelem("html.body.table.tr.td", x0, x), contains("b", x, y).`},
		{"sp", "spanner", spannerSrc},
		{"ed", "elog", `q(x) :- root(x0), subelem("html.body.table.tr", x0, x), notafter("html.body.table.tr", x0, x).`},
	}
	s, ts := newTestServer(t, nil)
	for _, w := range wrappers {
		putWrapper(t, ts.URL, w.name, w.lang, w.src)
	}
	post := func(path string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/html", strings.NewReader(viewPage))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	paths := []string{"/extractall?output=nodes", "/extractall?output=assign", "/extractall?output=spans"}
	for _, w := range wrappers {
		paths = append(paths, "/extract/"+w.name+"?output=nodes")
	}
	paths = append(paths, "/extract/sp?output=spans")
	for _, path := range paths {
		body := post(path)
		if path == "/extractall?output=nodes" {
			for _, want := range []string{`{"nodes":[7],"wrapper":"ms"}`, `{"nodes":[5,7,11,13],"wrapper":"xn"}`, `{"nodes":[4],"wrapper":"ed"}`} {
				if !bytes.Contains(body, []byte(want)) {
					t.Fatalf("%s: want %s in %s", path, want, body)
				}
			}
		}
		if tree.HasView(cachedTree(t, s, viewPage)) {
			t.Fatalf("%s built the cached tree's *Node view", path)
		}
	}

	got := post("/extract/el?output=xml")
	if !tree.HasView(cachedTree(t, s, viewPage)) {
		t.Fatal("output=xml answered without building the *Node view")
	}
	q, err := mdlog.Compile(wrappers[6].src, mdlog.LangElog)
	if err != nil {
		t.Fatal(err)
	}
	out, err := q.Wrap(context.Background(), mdlog.ParseHTML(viewPage))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := wrap.WriteXML(&want, out); err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() || !strings.Contains(want.String(), "<q") {
		t.Fatalf("output=xml on the cached tree:\n%s\nwant:\n%s", got, want.String())
	}
}

// TestSessionDirectPlansStayPointerFree: on an edited session, the
// plans DRed does not maintain — the MSO automaton, negated XPath and
// Elog⁻Δ — run on the session tree's arena and answer in arena ids,
// without building its *Node view.
func TestSessionDirectPlansStayPointerFree(t *testing.T) {
	s, url := sessionServer(t, &Config{Wrappers: []ConfigWrapper{
		{Name: "ms", WrapperSpec: WrapperSpec{Lang: mdlog.LangMSO, Source: `label_li(x) & exists y (child(x,y) & label_b(y))`}},
		{Name: "xn", WrapperSpec: WrapperSpec{Lang: mdlog.LangXPath, Source: `//li[not(b)]`}},
		{Name: "ed", WrapperSpec: WrapperSpec{Lang: mdlog.LangElog, Source: `q(x) :- root(x0), subelem("html.body.ul.li", x0, x), notafter("html.body.ul.li", x0, x).`}},
	}})
	// li(b) becomes the list's first item as arena rows 8 and 9.
	if code, v := doJSON(t, "PATCH", url+"/documents/page", `{"ops":[{"op":"insert","parent":3,"pos":0,"term":"li(b)"}]}`); code != http.StatusOK {
		t.Fatalf("PATCH: %d %v", code, v)
	}
	got := extractAllSession(t, url, "page")
	for name, want := range map[string]string{"ms": "[8]", "xn": "[4 6]", "ed": "[8]"} {
		if fmt.Sprint(got[name]) != want {
			t.Errorf("%s selects %v, want %s", name, got[name], want)
		}
	}
	ss, ok := s.sessions.get("page")
	if !ok {
		t.Fatal("no session")
	}
	if tree.HasView(ss.doc.Tree()) {
		t.Fatal("session extractall built the *Node view")
	}
}

// TestSessionTreeViewAfterEdit pins a session's tree: PUT parses it
// arena-only, and after a PATCH its Size and *Node view are the
// canonical live tree of the new generation — equal to the document's
// Snapshot, densely renumbered — even though the view was first built
// before the edit.
func TestSessionTreeViewAfterEdit(t *testing.T) {
	s, url := sessionServer(t, nil)
	ss, ok := s.sessions.get("page")
	if !ok {
		t.Fatal("no session")
	}
	tr := ss.doc.Tree()
	if tree.HasView(tr) {
		t.Fatal("PUT /documents built the *Node view")
	}
	if before := tr.View(); tr.Size() != 8 || len(before) != 8 || tr.String() != "#document(html(body(ul(li(#text),li(#text)))))" {
		t.Fatalf("before the edit: Size %d, view %s", tr.Size(), tr)
	}
	code, v := doJSON(t, "PATCH", url+"/documents/page",
		`{"ops":[{"op":"insert","parent":3,"pos":0,"term":"li(b)"},{"op":"remove","node":6}]}`)
	if code != http.StatusOK {
		t.Fatalf("PATCH: %d %v", code, v)
	}
	snap := ss.doc.Snapshot()
	want := "#document(html(body(ul(li(b),li(#text)))))"
	if tr.Size() != 8 || snap.Size() != 8 || tr.String() != want || snap.String() != want {
		t.Fatalf("after the edit: Size %d view %s, snapshot %d %s; want 8 %s",
			tr.Size(), tr, snap.Size(), snap, want)
	}
	for i, n := range tr.View() {
		if n.ID != i || n.Label != snap.Nodes[i].Label {
			t.Fatalf("view node %d: id %d label %q, snapshot %q", i, n.ID, n.Label, snap.Nodes[i].Label)
		}
	}
	if _, info := doJSON(t, "GET", url+"/documents/page", ""); int(info["live"].(float64)) != tr.Size() {
		t.Fatalf("GET reports %v live nodes, tree Size %d", info["live"], tr.Size())
	}
}

// retainedPerNode parses docs with parse, keeps every tree, and
// returns the live heap they hold per node after a full collection.
func retainedPerNode(docs []string, parse func(string) *mdlog.Tree) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	trees := make([]*mdlog.Tree, len(docs))
	nodes := 0
	for i, d := range docs {
		trees[i] = parse(d)
		nodes += trees[i].Size()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(trees)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(nodes)
}

// TestServedParseRetainedBytes is a fixed-bound gate on what a page in
// the doc cache costs: a served parse (arena-only, as resolveDoc
// builds it) must retain at most maxServedBytesPerNode per node. The
// eager *Node view alone costs more than that again.
func TestServedParseRetainedBytes(t *testing.T) {
	const maxServedBytesPerNode = 64
	rng := rand.New(rand.NewSource(31))
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = html.ProductListing(rng, 1000/9)
	}
	served := retainedPerNode(docs, func(d string) *mdlog.Tree { return parseDoc([]byte(d)) })
	eager := retainedPerNode(docs, mdlog.ParseHTML)
	t.Logf("retained per node: served %.1f B, eager %.1f B", served, eager)
	if served > maxServedBytesPerNode {
		t.Fatalf("a served parse retains %.1f B/node, bound %d (eager parse: %.1f)", served, maxServedBytesPerNode, eager)
	}
}
