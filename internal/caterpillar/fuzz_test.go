package caterpillar

import "testing"

// FuzzParseCaterpillar: an expression that parses prints as text that
// parses again and reprints identically, so String is a faithful
// concrete syntax for everything Parse accepts — the text mdlogd
// receives untrusted through PUT /wrappers.
func FuzzParseCaterpillar(f *testing.F) {
	for _, src := range printedExprs {
		f.Add(src)
	}
	for _, src := range badExprs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return
		}
		printed := e.String()
		e2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := e2.String(); again != printed {
			t.Fatalf("%q prints as %q, which reprints as %q", src, printed, again)
		}
	})
}
