package tree

import "testing"

// FuzzParseTree: a term that parses prints as text that parses again
// and reprints identically, so String is a faithful concrete syntax
// for every tree Parse accepts — including the subtrees a live
// document's insert edits carry in from outside.
func FuzzParseTree(f *testing.F) {
	for _, src := range roundTripTerms {
		f.Add(src)
	}
	for _, src := range badTerms {
		f.Add(src)
	}
	f.Add(" a ( b , c ) ")
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := Parse(src)
		if err != nil {
			return
		}
		printed := tr.String()
		tr2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := tr2.String(); again != printed {
			t.Fatalf("%q prints as %q, which reprints as %q", src, printed, again)
		}
		if tr2.Size() != tr.Size() {
			t.Fatalf("%q has %d nodes, its printed form %q has %d", src, tr.Size(), printed, tr2.Size())
		}
	})
}
