package datalog

import "testing"

// FuzzParseProgram: a program that parses prints as text that parses
// again and reprints identically, so String is a faithful concrete
// syntax for everything ParseProgram accepts.
func FuzzParseProgram(f *testing.F) {
	f.Add(exampleProgram)
	for _, src := range badPrograms {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseProgram(src)
		if err != nil {
			return
		}
		printed := p.String()
		p2, err := ParseProgram(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if again := p2.String(); again != printed {
			t.Fatalf("%q prints as %q, which reprints as %q", src, printed, again)
		}
	})
}
