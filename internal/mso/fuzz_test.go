package mso

import "testing"

// FuzzParseMSO: a formula that parses prints as text that parses again
// and reprints identically, so String is a faithful concrete syntax for
// everything Parse accepts — the text mdlogd receives untrusted through
// PUT /wrappers.
func FuzzParseMSO(f *testing.F) {
	for _, src := range printedFormulas {
		f.Add(src)
	}
	for _, src := range badFormulas {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		phi, err := Parse(src)
		if err != nil {
			return
		}
		printed := phi.String()
		phi2, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := phi2.String(); again != printed {
			t.Fatalf("%q prints as %q, which reprints as %q", src, printed, again)
		}
	})
}
