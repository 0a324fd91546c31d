package tree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// roundTripTerms are terms in the canonical form String prints.
var roundTripTerms = []string{
	"a",
	"a(b)",
	"a(b,c)",
	"a(b,c(d,e),f)",
	"html(head(title),body(div(p,p),div))",
}

// badTerms are texts Parse must reject.
var badTerms = []string{"", "(", "a(", "a(b", "a(b,)", "a)b", "a b"}

func TestParseRoundTrip(t *testing.T) {
	for _, src := range roundTripTerms {
		tr, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := tr.String(); got != src {
			t.Errorf("round trip %q -> %q", src, got)
		}
	}
}

func TestParseWhitespaceAndErrors(t *testing.T) {
	tr, err := Parse(" a ( b , c ) ")
	if err != nil {
		t.Fatalf("Parse with spaces: %v", err)
	}
	if tr.String() != "a(b,c)" {
		t.Errorf("got %q", tr.String())
	}
	for _, bad := range badTerms {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q): expected error", bad)
		}
	}
}

func TestDocumentOrderIDs(t *testing.T) {
	// The tree of Example 2.5 / Figure 1: six nodes all labeled a.
	tr := MustParse("a(a,a(a,a),a)")
	if tr.Size() != 6 {
		t.Fatalf("size = %d", tr.Size())
	}
	// Preorder: n1=root, n2, n3, n4, n5, n6 per the paper's Figure 1.
	for i, n := range tr.Nodes {
		if n.ID != i {
			t.Errorf("node %d has ID %d", i, n.ID)
		}
	}
	n := tr.Nodes
	if n[0].Parent != nil || n[1].Parent != n[0] || n[2].Parent != n[0] ||
		n[3].Parent != n[2] || n[4].Parent != n[2] || n[5].Parent != n[0] {
		t.Error("parent pointers wrong")
	}
}

func TestNavigation(t *testing.T) {
	tr := MustParse("a(b,c(d,e),f)")
	root := tr.Root
	b, c, f := root.Children[0], root.Children[1], root.Children[2]
	d, e := c.Children[0], c.Children[1]

	if root.FirstChild() != b || c.FirstChild() != d {
		t.Error("FirstChild wrong")
	}
	if root.LastChild() != f || c.LastChild() != e {
		t.Error("LastChild wrong")
	}
	if b.NextSibling() != c || c.NextSibling() != f || f.NextSibling() != nil {
		t.Error("NextSibling wrong")
	}
	if c.PrevSibling() != b || b.PrevSibling() != nil {
		t.Error("PrevSibling wrong")
	}
	if !root.IsRoot() || b.IsRoot() {
		t.Error("IsRoot wrong")
	}
	if !b.IsLeaf() || c.IsLeaf() {
		t.Error("IsLeaf wrong")
	}
	if !f.IsLastSibling() || c.IsLastSibling() || root.IsLastSibling() {
		t.Error("IsLastSibling wrong (root must not be a last sibling)")
	}
	if !b.IsFirstSibling() || c.IsFirstSibling() || root.IsFirstSibling() {
		t.Error("IsFirstSibling wrong")
	}
	if root.Children[1].childIndex() != 1 || root.childIndex() != -1 {
		t.Error("childIndex wrong")
	}
}

func TestTreeStats(t *testing.T) {
	tr := MustParse("a(b,c(d,e),f)")
	if tr.MaxRank() != 3 {
		t.Errorf("MaxRank = %d", tr.MaxRank())
	}
	if tr.Depth() != 2 {
		t.Errorf("Depth = %d", tr.Depth())
	}
	labels := tr.Labels()
	want := []string{"a", "b", "c", "d", "e", "f"}
	if len(labels) != len(want) {
		t.Fatalf("Labels = %v", labels)
	}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("Labels = %v", labels)
		}
	}
}

func TestCloneEqual(t *testing.T) {
	tr := MustParse("a(b,c(d,e),f)")
	cp := tr.Clone()
	if !tr.Equal(cp) {
		t.Error("clone not equal")
	}
	cp.Root.Children[0].Label = "x"
	if tr.Equal(cp) {
		t.Error("mutation should break equality")
	}
	if tr.Root.Children[0].Label != "b" {
		t.Error("clone shares nodes with original")
	}
}

// TestFigure1Encoding reproduces Figure 1: the binary encoding of the
// unranked tree via firstchild (child_1) and nextsibling (child_2),
// and its inverse.
func TestFigure1Encoding(t *testing.T) {
	tr := MustParse("a(a,a(a,a),a)") // the 6-node tree n1..n6 of Fig. 1
	enc := BinaryEncoding(tr)
	// Every original node becomes a rank-2 node; padding leaves are #bot.
	internal, bot := 0, 0
	for _, n := range enc.Nodes {
		if n.Label == BottomLabel {
			bot++
			if len(n.Children) != 0 {
				t.Fatal("bottom node with children")
			}
		} else {
			internal++
			if len(n.Children) != 2 {
				t.Fatal("encoded node without 2 children")
			}
		}
	}
	if internal != 6 || bot != 7 {
		t.Fatalf("internal=%d bot=%d", internal, bot)
	}
	// Figure 1(b): firstchild(n1,n2), nextsibling(n2,n3), etc.
	// Root (n1): child1 = n2's encoding, child2 = #bot.
	if enc.Root.Children[1].Label != BottomLabel {
		t.Error("root has a nextsibling in encoding")
	}
	dec, err := DecodeBinary(enc)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if !dec.Equal(tr) {
		t.Errorf("decode(encode(t)) = %s, want %s", dec, tr)
	}
}

func TestBinaryEncodingRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := Random(r, RandomOptions{Labels: []string{"a", "b", "c"}, Size: 1 + r.Intn(60), MaxChildren: 5})
		dec, err := DecodeBinary(BinaryEncoding(tr))
		return err == nil && dec.Equal(tr)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeBinaryErrors(t *testing.T) {
	bad := []string{
		"#bot",                 // root is bottom
		"a",                    // no children
		"a(#bot,a(#bot,#bot))", // root has a nextsibling
		"a(#bot(#bot),#bot)",   // bottom with children
		"a(b,#bot)",            // child without 2 children
	}
	for _, src := range bad {
		if _, err := DecodeBinary(MustParse(src)); err == nil {
			t.Errorf("DecodeBinary(%q): expected error", src)
		}
	}
}

func TestRankedAlphabet(t *testing.T) {
	ra := RankedAlphabet{"f": 2, "g": 1, "a": 0}
	ok := MustParse("f(g(a),a)")
	if err := ra.Validate(ok); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := ra.Validate(MustParse("f(a)")); err == nil {
		t.Error("expected arity error")
	}
	if err := ra.Validate(MustParse("h")); err == nil {
		t.Error("expected unknown-label error")
	}
	if ra.MaxRank() != 2 {
		t.Errorf("MaxRank = %d", ra.MaxRank())
	}
	if ChildK(ok.Root, 1).Label != "g" || ChildK(ok.Root, 2).Label != "a" || ChildK(ok.Root, 3) != nil || ChildK(ok.Root, 0) != nil {
		t.Error("ChildK wrong")
	}
}

func TestGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, size := range []int{1, 2, 17, 100} {
		tr := Random(rng, RandomOptions{Labels: []string{"a", "b"}, Size: size, MaxChildren: 3})
		if tr.Size() != size {
			t.Errorf("Random size %d got %d", size, tr.Size())
		}
		for _, n := range tr.Nodes {
			if len(n.Children) > 3 {
				t.Error("MaxChildren violated")
			}
		}
	}
	cb := CompleteBinary(3, "a")
	if cb.Size() != 15 || cb.Depth() != 3 {
		t.Errorf("CompleteBinary: size=%d depth=%d", cb.Size(), cb.Depth())
	}
	ch := Chain(5, "x")
	if ch.Size() != 5 || ch.Depth() != 4 {
		t.Errorf("Chain: size=%d depth=%d", ch.Size(), ch.Depth())
	}
	fl := Flat(6, "x")
	if fl.Size() != 6 || fl.Depth() != 1 || len(fl.Root.Children) != 5 {
		t.Errorf("Flat wrong")
	}
	rb := RandomBinary(rng, 21, []string{"f"}, []string{"a"})
	ra := RankedAlphabet{"f": 2, "a": 0}
	if err := ra.Validate(rb); err != nil {
		t.Errorf("RandomBinary not full binary: %v", err)
	}
}

func TestPretty(t *testing.T) {
	got := MustParse("a(b)").Pretty()
	want := "a [0]\n  b [1]\n"
	if got != want {
		t.Errorf("Pretty = %q, want %q", got, want)
	}
}
