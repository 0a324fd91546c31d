package bitset

import (
	"math/rand"
	"testing"
)

// boundarySizes are the domain sizes every property test sweeps: the
// empty arena, a single node, and the word boundaries where tail
// masking bugs live.
var boundarySizes = []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 1000}

// randomSet draws a set with independent P(bit)=p alongside its
// map[int]bool reference model.
func randomSet(rng *rand.Rand, n int, p float64) (*Set, map[int]bool) {
	s := New(n)
	ref := map[int]bool{}
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			s.Add(i)
			ref[i] = true
		}
	}
	return s, ref
}

// checkAgainst verifies s against the reference model bit by bit plus
// through Count, Any, ForEach and AppendBits.
func checkAgainst(t *testing.T, s *Set, ref map[int]bool, what string) {
	t.Helper()
	for i := 0; i < s.Len(); i++ {
		if s.Has(i) != ref[i] {
			t.Fatalf("%s: bit %d = %v, reference %v", what, i, s.Has(i), ref[i])
		}
	}
	if s.Count() != len(ref) {
		t.Fatalf("%s: Count = %d, reference %d", what, s.Count(), len(ref))
	}
	if s.Any() != (len(ref) > 0) {
		t.Fatalf("%s: Any = %v, reference %v", what, s.Any(), len(ref) > 0)
	}
	prev := -1
	seen := 0
	s.ForEach(func(i int) {
		if i <= prev {
			t.Fatalf("%s: ForEach out of order: %d after %d", what, i, prev)
		}
		if !ref[i] {
			t.Fatalf("%s: ForEach visited %d, not in reference", what, i)
		}
		prev = i
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("%s: ForEach visited %d bits, reference %d", what, seen, len(ref))
	}
	ids := s.AppendBits(nil)
	if len(ids) != len(ref) {
		t.Fatalf("%s: AppendBits returned %d ids, reference %d", what, len(ids), len(ref))
	}
	for _, id := range ids {
		if !ref[id] {
			t.Fatalf("%s: AppendBits returned %d, not in reference", what, id)
		}
	}
}

func TestBinaryOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range boundarySizes {
		for trial := 0; trial < 20; trial++ {
			a, ra := randomSet(rng, n, 0.3)
			b, rb := randomSet(rng, n, 0.3)

			and := a.Clone()
			and.And(b)
			refAnd := map[int]bool{}
			for i := range ra {
				if rb[i] {
					refAnd[i] = true
				}
			}
			checkAgainst(t, and, refAnd, "And")

			andNot := a.Clone()
			andNot.AndNot(b)
			refAndNot := map[int]bool{}
			for i := range ra {
				if !rb[i] {
					refAndNot[i] = true
				}
			}
			checkAgainst(t, andNot, refAndNot, "AndNot")

			or := a.Clone()
			changed := or.Or(b)
			refOr := map[int]bool{}
			for i := range ra {
				refOr[i] = true
			}
			newBits := false
			for i := range rb {
				if !refOr[i] {
					newBits = true
				}
				refOr[i] = true
			}
			checkAgainst(t, or, refOr, "Or")
			if changed != newBits {
				t.Fatalf("Or reported changed=%v, reference %v (n=%d)", changed, newBits, n)
			}

			dst := a.Clone()
			ids := dst.OrAppend(b, []int32{-1})
			checkAgainst(t, dst, refOr, "OrAppend union")
			if ids[0] != -1 {
				t.Fatalf("OrAppend overwrote the prefix of ids (n=%d)", n)
			}
			ids = ids[1:]
			diff := New(n)
			for i, id := range ids {
				if i > 0 && ids[i-1] >= id {
					t.Fatalf("OrAppend ids not strictly increasing: %v (n=%d)", ids, n)
				}
				diff.Add(int(id))
			}
			refDiff := map[int]bool{}
			for i := range rb {
				if !ra[i] {
					refDiff[i] = true
				}
			}
			checkAgainst(t, diff, refDiff, "OrAppend delta")

			if !a.Equal(a.Clone()) {
				t.Fatalf("Equal(clone) = false (n=%d)", n)
			}
			if a.Equal(b) != mapsEqual(ra, rb) {
				t.Fatalf("Equal = %v, reference %v (n=%d)", a.Equal(b), mapsEqual(ra, rb), n)
			}
		}
	}
}

func mapsEqual(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !b[i] {
			return false
		}
	}
	return true
}

func TestFillAndTailMasking(t *testing.T) {
	for _, n := range boundarySizes {
		s := New(n)
		s.Fill()
		if s.Count() != n {
			t.Fatalf("Fill(n=%d).Count = %d", n, s.Count())
		}
		ref := map[int]bool{}
		for i := 0; i < n; i++ {
			ref[i] = true
		}
		checkAgainst(t, s, ref, "Fill")
		s.Clear()
		if s.Any() || s.Count() != 0 {
			t.Fatalf("Clear(n=%d) left bits", n)
		}
	}
}

func TestAddRemoveRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range boundarySizes {
		if n == 0 {
			continue
		}
		s := New(n)
		ref := map[int]bool{}
		for step := 0; step < 500; step++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				s.Add(i)
				ref[i] = true
			} else {
				s.Remove(i)
				delete(ref, i)
			}
		}
		checkAgainst(t, s, ref, "Add/Remove walk")
	}
}

func TestAndGatherAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range boundarySizes {
		for trial := 0; trial < 20; trial++ {
			s, rs := randomSet(rng, n, 0.5)
			src, rsrc := randomSet(rng, n, 0.4)
			// A column mapping each node to another node or the -1
			// sentinel, like an arena navigation column.
			col := make([]int32, n)
			for i := range col {
				if rng.Float64() < 0.3 {
					col[i] = -1
				} else {
					col[i] = int32(rng.Intn(n))
				}
			}
			s.AndGather(col, src)
			ref := map[int]bool{}
			for i := range rs {
				if c := col[i]; c >= 0 && rsrc[int(c)] {
					ref[i] = true
				}
			}
			checkAgainst(t, s, ref, "AndGather")
		}
	}
}

func TestAddMatches32AgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range boundarySizes {
		for trial := 0; trial < 20; trial++ {
			// Pre-existing bits must survive the OR-in.
			s, ref := randomSet(rng, n, 0.1)
			// A label-like column over a small symbol alphabet, sometimes
			// shorter than the domain.
			cn := n
			if rng.Float64() < 0.3 && n > 0 {
				cn = rng.Intn(n)
			}
			col := make([]int32, cn)
			for i := range col {
				col[i] = int32(rng.Intn(4))
			}
			want := int32(rng.Intn(4))
			s.AddMatches32(col, want)
			for i, v := range col {
				if v == want {
					ref[i] = true
				}
			}
			checkAgainst(t, s, ref, "AddMatches32")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("column longer than the domain must panic")
		}
	}()
	New(10).AddMatches32(make([]int32, 11), 0)
}

func TestUpdateWordsFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range boundarySizes {
		s, ref := randomSet(rng, n, 0.5)
		// Drop odd elements through the word kernel.
		s.UpdateWords(func(base int, w uint64) uint64 {
			var even uint64 = 0x5555555555555555
			if base%2 != 0 {
				panic("word base must be a multiple of 64")
			}
			return w & even
		})
		want := map[int]bool{}
		for i := range ref {
			if i%2 == 0 {
				want[i] = true
			}
		}
		checkAgainst(t, s, want, "UpdateWords")
	}
}

func TestDomainMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("And over mismatched domains did not panic")
		}
	}()
	New(64).And(New(65))
}

func TestCopyFromAndClear(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, n := range boundarySizes {
		a, ra := randomSet(rng, n, 0.5)
		b := New(n)
		b.CopyFrom(a)
		checkAgainst(t, b, ra, "CopyFrom")
		a.Clear()
		checkAgainst(t, b, ra, "CopyFrom independence")
	}
}
