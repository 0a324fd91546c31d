// Package bitset implements dense bitmaps over a fixed node domain —
// the data representation behind the bitmap evaluation engine. A
// monadic predicate over the arena of n nodes is exactly a subset of
// {0, ..., n-1}, so a Set stores it in ⌈n/64⌉ machine words and the
// per-fact operations of a datalog fixpoint become word-parallel
// AND/OR/AND-NOT sweeps plus popcounts.
//
// All binary operations require both operands to share the same
// domain size; they panic otherwise (mixing domains is a programming
// error, never a data condition). The tail word beyond bit n-1 is kept
// zero by every operation, so Count and iteration never see ghost
// bits.
package bitset

import "math/bits"

const wordBits = 64

// Set is a dense bitmap over the domain {0, ..., n-1}. The zero value
// is an empty set over an empty domain; use New for a real domain.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set over the domain {0, ..., n-1}.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the domain size n (not the number of set bits; see
// Count).
func (s *Set) Len() int { return s.n }

// Grow widens the domain to {0, ..., n-1}, preserving the set bits.
// Shrinking is not supported (n below the current domain is a no-op):
// live-document domains only ever append. It is the resize step of
// incremental maintenance — after a subtree insertion the maintained
// predicate bitmaps grow to the new |dom| with the new bits clear.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	words := (n + wordBits - 1) / wordBits
	if words > cap(s.words) {
		w := make([]uint64, words)
		copy(w, s.words)
		s.words = w
	} else {
		for len(s.words) < words {
			s.words = append(s.words, 0)
		}
	}
	s.n = n
}

// Add sets bit i. Out-of-domain indices panic via the slice bound.
func (s *Set) Add(i int) { s.words[i>>6] |= 1 << uint(i&63) }

// Remove clears bit i.
func (s *Set) Remove(i int) { s.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool { return s.words[i>>6]&(1<<uint(i&63)) != 0 }

// Clear removes every bit.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit of the domain (masking the tail word so bits
// beyond n-1 stay zero).
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.maskTail()
}

// maskTail zeroes the bits of the last word beyond the domain.
func (s *Set) maskTail() {
	if tail := uint(s.n & 63); tail != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << tail) - 1
	}
}

// Count returns the number of set bits (the cardinality of the set).
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with the contents of o (same domain required).
func (s *Set) CopyFrom(o *Set) {
	s.check(o)
	copy(s.words, o.words)
}

// check panics when o's domain differs from s's.
func (s *Set) check(o *Set) {
	if s.n != o.n {
		panic("bitset: domain size mismatch")
	}
}

// And intersects: s &= o.
func (s *Set) And(o *Set) {
	s.check(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// AndNot subtracts: s &^= o.
func (s *Set) AndNot(o *Set) {
	s.check(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Or unions o into s and reports whether s changed — the word-level
// fixpoint test: a semi-naive round that ORs every derived set without
// change has converged.
func (s *Set) Or(o *Set) bool {
	s.check(o)
	changed := false
	for i, w := range o.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// OrAppend unions o into s and appends the genuinely new bits (o
// minus the old s) to ids in increasing order, returning the extended
// slice. It is the head union of semi-naive evaluation: head |=
// derived, with the delta's node ids produced by the same word sweep,
// so consumers of the delta never scan the domain to find it.
func (s *Set) OrAppend(o *Set, ids []int32) []int32 {
	s.check(o)
	for i, w := range o.words {
		old := s.words[i]
		if nw := w &^ old; nw != 0 {
			s.words[i] = old | nw
			base := int32(i << 6)
			for ; nw != 0; nw &= nw - 1 {
				ids = append(ids, base+int32(bits.TrailingZeros64(nw)))
			}
		}
	}
	return ids
}

// Equal reports whether s and o hold exactly the same bits over the
// same domain.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range o.words {
		if s.words[i] != w {
			return false
		}
	}
	return true
}

// ForEach calls f for every set bit in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			f(base + bits.TrailingZeros64(w))
		}
	}
}

// AppendBits appends the set bits in increasing order to ids and
// returns the extended slice — the bulk form of ForEach for result
// extraction.
func (s *Set) AppendBits(ids []int) []int {
	for wi, w := range s.words {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			ids = append(ids, base+bits.TrailingZeros64(w))
		}
	}
	return ids
}

// UpdateWords visits every nonzero word, replacing it with f's return
// value. base is the domain index of the word's bit 0. It is the
// word-at-a-time filter kernel the evaluation engine builds its
// column-gather operations on: f may clear bits of the word it is
// given (dropping elements) but must not set new ones.
func (s *Set) UpdateWords(f func(base int, w uint64) uint64) {
	for wi, w := range s.words {
		if w != 0 {
			s.words[wi] = f(wi<<6, w)
		}
	}
}

// AddMatches32 sets bit i for every index of col holding want:
// s |= { i : col[i] == want }. It is the bulk builder for per-symbol
// label bitmaps and node-class bitmaps — one pass over an arena
// column, accumulating each word locally so set bits cost no
// read-modify-write of the backing array. len(col) must not exceed
// the domain size.
func (s *Set) AddMatches32(col []int32, want int32) {
	if len(col) > s.n {
		panic("bitset: column longer than domain")
	}
	for base := 0; base < len(col); base += wordBits {
		end := base + wordBits
		if end > len(col) {
			end = len(col)
		}
		var w uint64
		for i, v := range col[base:end] {
			if v == want {
				w |= 1 << uint(i)
			}
		}
		s.words[base>>6] |= w
	}
}

// AndGather intersects s with the preimage of src under the column:
// s &= { v ∈ s : col[v] ≥ 0 and src.Has(col[v]) }. col maps each
// domain element to a target element or a negative sentinel (no
// target). It is the bulk membership test for a condition on a
// non-anchor variable: v survives iff the node it was mapped to
// satisfies the condition.
func (s *Set) AndGather(col []int32, src *Set) {
	s.UpdateWords(func(base int, w uint64) uint64 {
		for m := w; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			if c := col[base+b]; c < 0 || !src.Has(int(c)) {
				w &^= 1 << uint(b)
			}
		}
		return w
	})
}
