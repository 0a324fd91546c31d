package tree

import (
	"math/rand"
	"testing"
)

func TestSymbols(t *testing.T) {
	s := NewSymbols()
	a := s.Intern("a")
	b := s.Intern("b")
	if a == b {
		t.Fatal("distinct labels share an id")
	}
	if s.Intern("a") != a {
		t.Error("re-intern changed id")
	}
	if s.ID("a") != a || s.ID("zzz") != -1 {
		t.Error("ID lookup wrong")
	}
	if s.Name(a) != "a" || s.Name(b) != "b" {
		t.Error("Name lookup wrong")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

// checkArenaMatches verifies every arena column against the pointer view.
func checkArenaMatches(t *testing.T, tr *Tree, a *Arena) {
	t.Helper()
	if a.Len() != tr.Size() {
		t.Fatalf("arena len %d, tree size %d", a.Len(), tr.Size())
	}
	id := func(n *Node) int32 {
		if n == nil {
			return NoNode
		}
		return int32(n.ID)
	}
	for _, n := range tr.Nodes {
		v := int32(n.ID)
		if a.LabelName(v) != n.Label {
			t.Errorf("node %d: label %q vs %q", v, a.LabelName(v), n.Label)
		}
		if a.Text(v) != n.Text {
			t.Errorf("node %d: text %q vs %q", v, a.Text(v), n.Text)
		}
		if a.Parent[v] != id(n.Parent) {
			t.Errorf("node %d: parent %d vs %d", v, a.Parent[v], id(n.Parent))
		}
		if a.FirstChild[v] != id(n.FirstChild()) {
			t.Errorf("node %d: firstchild %d vs %d", v, a.FirstChild[v], id(n.FirstChild()))
		}
		if a.LastChild[v] != id(n.LastChild()) {
			t.Errorf("node %d: lastchild %d vs %d", v, a.LastChild[v], id(n.LastChild()))
		}
		if a.NextSibling[v] != id(n.NextSibling()) {
			t.Errorf("node %d: nextsibling %d vs %d", v, a.NextSibling[v], id(n.NextSibling()))
		}
		if a.PrevSibling[v] != id(n.PrevSibling()) {
			t.Errorf("node %d: prevsibling %d vs %d", v, a.PrevSibling[v], id(n.PrevSibling()))
		}
		// Positions are not stored: ChildK must name the k-th child for
		// every k, and nothing past the last one.
		for k := 1; k <= len(n.Children)+1; k++ {
			want := NoNode
			if k <= len(n.Children) {
				want = int32(n.Children[k-1].ID)
				if n.Children[k-1].pos != k-1 {
					t.Errorf("node %d: child %d has cached position %d", v, k-1, n.Children[k-1].pos)
				}
			}
			if got := a.ChildK(v, k); got != want {
				t.Errorf("node %d: childK(%d) = %d, want %d", v, k, got, want)
			}
		}
	}
}

func TestArenaFromNodes(t *testing.T) {
	tr := MustParse("a(b,c(d,e),f)")
	a := tr.Arena()
	checkArenaMatches(t, tr, a)
	if tr.Arena() != a {
		t.Error("arena not memoized")
	}
	// Reindex drops the memoized arena.
	tr.Root.Add(&Node{Label: "g"})
	tr.Reindex()
	b := tr.Arena()
	if b == a {
		t.Error("stale arena after Reindex")
	}
	checkArenaMatches(t, tr, b)
}

func TestArenaBuilderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{1, 2, 17, 300} {
		tr := Random(rng, RandomOptions{Labels: []string{"a", "b", "c"}, Size: size, MaxChildren: 6})
		// Rebuild via the streaming builder in preorder.
		b := NewArenaBuilder()
		b.Grow(size)
		var walk func(n *Node)
		walk = func(n *Node) {
			b.Open(n.Label)
			for _, c := range n.Children {
				walk(c)
			}
			b.Close()
		}
		walk(tr.Root)
		a := b.Finish()
		checkArenaMatches(t, tr, a)

		// The pointer view materialized from the arena is the same tree.
		view := FromArena(a)
		if !tr.Equal(view) {
			t.Fatalf("size %d: view differs from source", size)
		}
		checkArenaMatches(t, view, view.Arena())
		// View navigation is consistent without Reindex.
		for _, n := range view.Nodes {
			if ns := n.NextSibling(); ns != nil && ns.PrevSibling() != n {
				t.Fatalf("sibling links broken at %d", n.ID)
			}
		}
	}
}

func TestArenaBuilderTextAttrs(t *testing.T) {
	b := NewArenaBuilder()
	b.Open("#document")
	p := b.Open("p")
	b.SetAttrs(p, map[string]string{"class": "x"})
	txt := b.TextNode("hello")
	b.AppendText(txt, " world")
	b.Close()
	a := b.Finish()
	tr := FromArena(a)
	pn := tr.Root.Children[0]
	if pn.Label != "p" || pn.Attrs["class"] != "x" {
		t.Errorf("p = %v %v", pn.Label, pn.Attrs)
	}
	if tn := pn.Children[0]; tn.Label != "#text" || tn.Text != "hello world" {
		t.Errorf("text = %q", tn.Text)
	}
	if b2 := NewArenaBuilder(); b2.Depth() != 0 {
		t.Error("fresh builder depth")
	}
}

func TestArenaBuilderOpenLabel(t *testing.T) {
	b := NewArenaBuilder()
	b.Open("html")
	b.Open("body")
	b.Open("p")
	if b.Depth() != 3 {
		t.Fatalf("depth = %d", b.Depth())
	}
	if b.a.Syms.Name(b.OpenLabel(0)) != "p" || b.a.Syms.Name(b.OpenLabel(2)) != "html" {
		t.Error("OpenLabel wrong")
	}
}

func TestChildIndexWideTree(t *testing.T) {
	// Wide node: sibling navigation must not scan (smoke: correctness;
	// the benchmark suite measures the asymptotics).
	tr := Flat(5000, "a")
	for i, c := range tr.Root.Children {
		if got := c.childIndex(); got != i {
			t.Fatalf("childIndex(%d) = %d", i, got)
		}
	}
	last := tr.Root.Children[len(tr.Root.Children)-1]
	if !last.IsLastSibling() || last.NextSibling() != nil {
		t.Error("last sibling wrong")
	}
}
