package tree

import (
	"math/rand"
	"sync"
	"testing"
)

// arenaOf rebuilds tr through the streaming builder, with text and
// attributes, so the arena owns nothing of tr's nodes.
func arenaOf(tr *Tree) *Arena {
	b := NewArenaBuilder()
	var walk func(n *Node)
	walk = func(n *Node) {
		id := b.Open(n.Label)
		b.AppendText(id, n.Text)
		b.SetAttrs(id, n.Attrs)
		for _, c := range n.Children {
			walk(c)
		}
		b.Close()
	}
	walk(tr.Root)
	return b.Finish()
}

func randomTextTree(rng *rand.Rand, size int) *Tree {
	tr := Random(rng, RandomOptions{Labels: []string{"a", "b", "c"}, Size: size, MaxChildren: 4})
	for _, n := range tr.Nodes {
		if rng.Intn(3) == 0 {
			n.Text = string(rune('p' + rng.Intn(5)))
		}
		if rng.Intn(4) == 0 {
			n.Attrs = map[string]string{"k": n.Label}
		}
	}
	return tr
}

// TestOfArenaLazyView: an arena-only tree answers Size, Labels and
// MaxRank from the arena without a view, then builds a view equal to
// the eager FromArena one, with private attribute maps.
func TestOfArenaLazyView(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []int{1, 2, 40, 300} {
		src := randomTextTree(rng, size)
		a := arenaOf(src)
		lazy := OfArena(a)
		if lazy.Root != nil || lazy.Nodes != nil {
			t.Fatal("OfArena filled in Root/Nodes")
		}
		if lazy.Size() != size || lazy.MaxRank() != src.MaxRank() ||
			len(lazy.Labels()) != len(src.Labels()) {
			t.Fatalf("size %d: Size/MaxRank/Labels %d/%d/%v, want %d/%d/%v", size,
				lazy.Size(), lazy.MaxRank(), lazy.Labels(), size, src.MaxRank(), src.Labels())
		}
		if HasView(lazy) {
			t.Fatal("arena reads built the view")
		}
		nodes := lazy.View()
		if !HasView(lazy) || len(nodes) != size || lazy.Root != nil {
			t.Fatalf("size %d: View gave %d nodes, HasView %v", size, len(nodes), HasView(lazy))
		}
		eager := FromArena(a)
		if !eager.Equal(lazy) || lazy.String() != src.String() {
			t.Fatalf("size %d: lazy view %s, eager %s", size, lazy, eager)
		}
		for i, n := range nodes {
			e := eager.Nodes[i]
			if n.ID != i || n.Text != e.Text || len(n.Attrs) != len(e.Attrs) {
				t.Fatalf("size %d node %d: %+v vs %+v", size, i, n, e)
			}
			if n.Attrs != nil {
				n.Attrs["k"] = "changed"
				if a.Attrs[int32(i)]["k"] == "changed" {
					t.Fatal("view shares its attribute map with the arena")
				}
			}
		}
		if &lazy.View()[0] != &nodes[0] {
			t.Fatal("second View call rebuilt the view")
		}
	}
}

// TestViewConcurrentFirstCall has many goroutines make the first View
// call on one arena-only tree at once (run under -race): every caller
// must get the same, fully built view.
func TestViewConcurrentFirstCall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randomTextTree(rng, 2000)
	for round := 0; round < 5; round++ {
		lazy := OfArena(arenaOf(src))
		const n = 16
		views := make([][]*Node, n)
		var start, done sync.WaitGroup
		start.Add(1)
		for i := 0; i < n; i++ {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				views[i] = lazy.View()
				_ = lazy.Size()
				_ = views[i][len(views[i])-1].Parent.Label
			}(i)
		}
		start.Done()
		done.Wait()
		for i := range views {
			if len(views[i]) != 2000 || &views[i][0] != &views[0][0] {
				t.Fatalf("round %d: caller %d got a different view", round, i)
			}
		}
		if !lazy.Equal(src) {
			t.Fatal("concurrently built view differs from the source tree")
		}
	}
}

// TestViewFollowsArenaEdits: once the arena is edited in place, Size
// and View are the canonical live tree of the current generation —
// never the pre-edit view, never arena-numbered.
func TestViewFollowsArenaEdits(t *testing.T) {
	a := arenaOf(MustParse("r(a(x),b,c)"))
	lazy := OfArena(a)
	if lazy.String() != "r(a(x),b,c)" {
		t.Fatalf("view before edits: %s", lazy)
	}
	d := a.NewDelta()
	if err := a.RemoveSubtree(d, 1); err != nil { // a(x)
		t.Fatal(err)
	}
	if _, err := a.InsertSubtree(d, 0, 1, New("n", New("m"))); err != nil {
		t.Fatal(err)
	}
	if err := a.SetText(d, 3, "B"); err != nil { // b
		t.Fatal(err)
	}
	want := "r(b,n(m),c)"
	if lazy.Size() != 5 || lazy.String() != want {
		t.Fatalf("after edits: Size %d view %s, want 5 %s", lazy.Size(), lazy, want)
	}
	for i, n := range lazy.View() {
		if n.ID != i {
			t.Fatalf("view node %d carries id %d", i, n.ID)
		}
	}
	if got := lazy.View()[1].Text; got != "B" {
		t.Fatalf("retexted node reads %q", got)
	}
	if lazy.Generation() != a.Gen() || lazy.Labels()[0] != "b" {
		t.Fatalf("generation %d (arena %d), labels %v", lazy.Generation(), a.Gen(), lazy.Labels())
	}
}
