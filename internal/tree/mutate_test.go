package tree

import (
	"fmt"
	"math/rand"
	"testing"
)

// checkLive walks the live structure and verifies every invariant the
// mutation layer promises: link symmetry, the live-never-references-dead
// rule, positional agreement of ChildK with the canonical LiveTree view
// (the i-th live child is ChildK(v, i)), and agreement with want (term
// syntax) via that view.
func checkLive(t *testing.T, a *Arena, want string) {
	t.Helper()
	alive := 0
	for v := int32(0); int(v) < a.Len(); v++ {
		if !a.Alive(v) {
			continue
		}
		alive++
		for _, ref := range []int32{a.Parent[v], a.FirstChild[v], a.NextSibling[v], a.PrevSibling[v], a.LastChild[v]} {
			if ref != NoNode && !a.Alive(ref) {
				t.Fatalf("live node %d references dead node %d", v, ref)
			}
		}
		if fc := a.FirstChild[v]; fc != NoNode {
			if a.Parent[fc] != v || a.PrevSibling[fc] != NoNode {
				t.Fatalf("first child %d of %d mislinked", fc, v)
			}
		}
		if lc := a.LastChild[v]; lc != NoNode && (a.Parent[lc] != v || a.NextSibling[lc] != NoNode) {
			t.Fatalf("last child %d of %d mislinked", lc, v)
		}
		if ns := a.NextSibling[v]; ns != NoNode {
			if a.PrevSibling[ns] != v || a.Parent[ns] != a.Parent[v] {
				t.Fatalf("sibling link %d -> %d broken", v, ns)
			}
		}
	}
	if alive != a.NumAlive() {
		t.Fatalf("NumAlive = %d, counted %d", a.NumAlive(), alive)
	}
	pre := a.LivePreorder() // preorder position -> arena id
	if len(pre) != alive {
		t.Fatalf("LivePreorder length %d, want %d", len(pre), alive)
	}
	lt := a.LiveTree()
	for i, n := range lt.Nodes {
		for k := 1; k <= len(n.Children)+1; k++ {
			want := NoNode
			if k <= len(n.Children) {
				want = pre[n.Children[k-1].ID]
			}
			if got := a.ChildK(pre[i], k); got != want {
				t.Fatalf("ChildK(%d, %d) = %d, want live child %d", pre[i], k, got, want)
			}
		}
	}
	if got := lt.String(); got != want {
		t.Fatalf("live tree = %s, want %s", got, want)
	}
}

func TestArenaMutation(t *testing.T) {
	tr := MustParse("a(b(c,d),e)")
	a := tr.Arena()
	if a.Gen() != 0 || a.Mutated() {
		t.Fatalf("fresh arena has gen %d", a.Gen())
	}

	// Insert f as the middle child of a (between b and e).
	d := a.NewDelta()
	f, err := a.InsertSubtree(d, 0, 1, New("f", New("g")))
	if err != nil {
		t.Fatal(err)
	}
	if int(f) != 5 {
		t.Fatalf("inserted root id = %d, want 5 (appended)", f)
	}
	checkLive(t, a, "a(b(c,d),f(g),e)")
	if len(d.Added) != 2 || d.OldLen != 5 || d.NewLen != 7 {
		t.Fatalf("delta after insert: %+v", d)
	}
	// b (nextsibling rewired), e (prevsibling) and a (parent) must
	// carry old values; first-write-wins means b's old nextsibling is e.
	if old, ok := d.OldOf(1); !ok || old.OldNextSibling != 4 {
		t.Fatalf("old of b: %+v ok=%v", old, ok)
	}

	// Remove b's subtree.
	if err := a.RemoveSubtree(d, 1); err != nil {
		t.Fatal(err)
	}
	checkLive(t, a, "a(f(g),e)")
	if len(d.Removed) != 3 {
		t.Fatalf("removed %v, want b,c,d", d.Removed)
	}
	if !a.Alive(f) || a.Alive(1) || a.Alive(2) || a.Alive(3) {
		t.Fatal("tombstones wrong")
	}
	// Dead rows keep their pre-removal columns.
	if a.FirstChild[1] != 2 || a.Parent[1] != 0 {
		t.Fatal("dead node columns were cleared")
	}

	// Retext and attrs.
	if err := a.SetText(d, f, "hello"); err != nil {
		t.Fatal(err)
	}
	if a.Text(f) != "hello" {
		t.Fatalf("text = %q", a.Text(f))
	}
	if err := a.SetAttr(d, f, "k", "v"); err != nil {
		t.Fatal(err)
	}
	if a.Attrs[f]["k"] != "v" {
		t.Fatal("attr not set")
	}
	if a.Gen() != 4 || d.Gen != 4 {
		t.Fatalf("gen = %d, delta gen = %d, want 4", a.Gen(), d.Gen)
	}

	// Errors: root removal, dead targets, bad ids.
	if err := a.RemoveSubtree(d, 0); err == nil {
		t.Fatal("removed the root")
	}
	if err := a.RemoveSubtree(d, 1); err == nil {
		t.Fatal("removed a dead node")
	}
	if _, err := a.InsertSubtree(d, 99, 0, New("x")); err == nil {
		t.Fatal("inserted under a nonexistent node")
	}
	if err := a.SetText(d, 2, "x"); err == nil {
		t.Fatal("retexted a dead node")
	}
}

func TestArenaInsertPositions(t *testing.T) {
	for pos, want := range map[int]string{
		0:  "a(x,b,c)",
		1:  "a(b,x,c)",
		2:  "a(b,c,x)",
		9:  "a(b,c,x)", // clamped
		-1: "a(x,b,c)", // clamped
	} {
		a := MustParse("a(b,c)").Arena()
		if _, err := a.InsertSubtree(a.NewDelta(), 0, pos, New("x")); err != nil {
			t.Fatal(err)
		}
		checkLive(t, a, want)
	}
	// Insert under a leaf.
	a := MustParse("a(b)").Arena()
	if _, err := a.InsertSubtree(a.NewDelta(), 1, 0, New("x")); err != nil {
		t.Fatal(err)
	}
	checkLive(t, a, "a(b(x))")
}

func TestTreeGeneration(t *testing.T) {
	tr := MustParse("a(b,c)")
	g0 := tr.Generation()
	a := tr.Arena()
	if tr.Generation() != g0 {
		t.Fatal("building the arena moved the generation")
	}
	if _, err := a.InsertSubtree(a.NewDelta(), 0, 0, New("x")); err != nil {
		t.Fatal(err)
	}
	g1 := tr.Generation()
	if g1 <= g0 {
		t.Fatalf("arena mutation did not advance generation: %d -> %d", g0, g1)
	}
	// Reindex after pointer-level mutation must advance past anything
	// the dropped arena reached.
	tr.Root.Add(New("y"))
	tr.Reindex()
	if g2 := tr.Generation(); g2 <= g1 {
		t.Fatalf("Reindex did not advance generation: %d -> %d", g1, g2)
	}
}

func TestComposeDeltas(t *testing.T) {
	a := MustParse("a(b,c)").Arena()
	d1 := a.NewDelta()
	x, err := a.InsertSubtree(d1, 0, 2, New("x"))
	if err != nil {
		t.Fatal(err)
	}
	d2 := a.NewDelta()
	if err := a.RemoveSubtree(d2, 1); err != nil {
		t.Fatal(err)
	}
	d3 := a.NewDelta()
	if err := a.RemoveSubtree(d3, x); err != nil {
		t.Fatal(err)
	}
	d := ComposeDeltas([]*ArenaDelta{d1, d2, d3})
	if d.OldLen != 3 || d.NewLen != 4 || d.Gen != a.Gen() {
		t.Fatalf("composed bounds: %+v", d)
	}
	if len(d.Added) != 1 || len(d.Removed) != 2 {
		t.Fatalf("composed sets: added %v removed %v", d.Added, d.Removed)
	}
	// b was touched by the insert (nextsibling b -> x spliced after c?
	// no: c was; but b is c's neighbor only via c). c's first recorded
	// old value must predate both edits: OldNextSibling == NoNode.
	if old, ok := d.OldOf(2); !ok || old.OldNextSibling != NoNode {
		t.Fatalf("old of c: %+v ok=%v", old, ok)
	}
	// x was added inside the window, so its touched entries are elided.
	if _, ok := d.OldOf(x); ok {
		t.Fatal("added node has a touched entry in the composed delta")
	}
	if ComposeDeltas(nil) != nil {
		t.Fatal("composing nothing")
	}
}

// TestArenaMutationRandom runs random edit scripts and checks the
// invariants plus agreement with a mirrored pointer-tree replay.
func TestArenaMutationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		tr := Random(rng, RandomOptions{Labels: []string{"a", "b", "c"}, Size: 20 + rng.Intn(40), MaxChildren: 4})
		a := tr.Clone().Arena()
		mirror := tr.Clone() // pointer-level replay of the same edits
		for step := 0; step < 15; step++ {
			live := a.LivePreorder()
			d := a.NewDelta()
			switch op := rng.Intn(3); {
			case op == 0 && len(live) > 1:
				v := live[1+rng.Intn(len(live)-1)]
				pre := a.LivePreorder()
				idx := -1
				for i, u := range pre {
					if u == v {
						idx = i
					}
				}
				if err := a.RemoveSubtree(d, v); err != nil {
					t.Fatal(err)
				}
				m := mirror.Nodes[idx]
				mc := m.Parent.Children
				for i, c := range mc {
					if c == m {
						m.Parent.Children = append(mc[:i:i], mc[i+1:]...)
						break
					}
				}
				mirror.Reindex()
			case op == 1:
				v := live[rng.Intn(len(live))]
				pre := a.LivePreorder()
				idx := -1
				for i, u := range pre {
					if u == v {
						idx = i
					}
				}
				sub := New(fmt.Sprintf("s%d", step), New("t"))
				pos := rng.Intn(3)
				if _, err := a.InsertSubtree(d, v, pos, sub); err != nil {
					t.Fatal(err)
				}
				m := mirror.Nodes[idx]
				p := pos
				if p > len(m.Children) {
					p = len(m.Children)
				}
				msub := New(fmt.Sprintf("s%d", step), New("t"))
				m.Children = append(m.Children[:p:p], append([]*Node{msub}, m.Children[p:]...)...)
				mirror.Reindex()
			default:
				v := live[rng.Intn(len(live))]
				if err := a.SetText(d, v, fmt.Sprintf("txt%d", step)); err != nil {
					t.Fatal(err)
				}
				pre := a.LivePreorder()
				for i, u := range pre {
					if u == v {
						mirror.Nodes[i].Text = fmt.Sprintf("txt%d", step)
					}
				}
			}
			checkLive(t, a, mirror.String())
		}
		lt := a.LiveTree()
		if !lt.Equal(mirror) {
			t.Fatalf("trial %d: live tree diverged from mirror:\n%s\n%s", trial, lt, mirror)
		}
	}
}

// TestSpliceDeltaWidth pins the delta of one splice to its immediate
// neighbors: inserting into or removing from the middle of a sibling
// list records at most the parent and the previous and next sibling,
// whether the list has ten children or ten thousand.
func TestSpliceDeltaWidth(t *testing.T) {
	for _, n := range []int{10, 10000} {
		a := Flat(n+1, "a").Arena() // root plus n children
		mid := a.ChildK(0, n/2+1)
		prev, next := a.PrevSibling[mid], mid
		allowed := map[int32]bool{0: true, prev: true, next: true}
		checkWidth := func(op string, d *ArenaDelta) {
			t.Helper()
			if len(d.Touched) > 3 {
				t.Fatalf("n=%d %s: %d touched rows, want at most 3", n, op, len(d.Touched))
			}
			for _, tn := range d.Touched {
				if !allowed[tn.ID] {
					t.Fatalf("n=%d %s: touched %d, outside {parent %d, prev %d, next %d}", n, op, tn.ID, 0, prev, next)
				}
			}
		}

		d := a.NewDelta()
		x, err := a.InsertSubtree(d, 0, n/2, New("x", New("y")))
		if err != nil {
			t.Fatal(err)
		}
		checkWidth("insert", d)
		if got := a.ChildK(0, n/2+1); got != x {
			t.Fatalf("n=%d: ChildK after insert = %d, want %d", n, got, x)
		}
		if got := a.ChildK(0, n/2+2); got != mid {
			t.Fatalf("n=%d: displaced child at %d, want %d", n, got, mid)
		}

		// Removing the inserted row touches the same neighbors.
		d = a.NewDelta()
		if err := a.RemoveSubtree(d, x); err != nil {
			t.Fatal(err)
		}
		checkWidth("remove", d)
		if got := a.ChildK(0, n/2+1); got != mid {
			t.Fatalf("n=%d: ChildK after remove = %d, want %d", n, got, mid)
		}
		if n <= 10 {
			checkLive(t, a, Flat(n+1, "a").String())
		}
	}
}
