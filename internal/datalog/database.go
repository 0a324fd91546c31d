package datalog

import (
	"encoding/binary"
	"sort"
	"sync"
)

// Database is a finite relational structure: a domain {0,...,Dom-1}
// plus named relations. It serves both as the extensional database
// (input structure) and as the container for computed intensional
// relations after evaluation.
type Database struct {
	Dom  int
	rels map[string]*Relation
}

// NewDatabase returns an empty database over a domain of the given size.
func NewDatabase(dom int) *Database {
	return &Database{Dom: dom, rels: map[string]*Relation{}}
}

// Relation is a set of tuples of fixed arity over the domain.
type Relation struct {
	Arity  int
	tuples [][]int
	set    map[string]bool
	// setOnce guards the lazy construction of set: materialized
	// databases are shared read-only between concurrent queries, so
	// the first Has must not race with another.
	setOnce sync.Once
	// index[i] maps a value to the tuple indices having that value in
	// position i; built lazily.
	index []map[int][]int
}

func newRelation(arity int) *Relation {
	return &Relation{Arity: arity}
}

// ensureSet builds the membership set on first use; it is lazy so
// bulk loads through AddUnchecked/AddUnarySet never pay per-tuple
// hashing unless some later caller actually tests membership, and
// once-guarded so concurrent readers of a shared database can call
// Has safely. (Mutating a shared relation remains illegal, as
// before: writers must own the relation or Clone first.)
func (r *Relation) ensureSet() {
	r.setOnce.Do(func() {
		set := make(map[string]bool, len(r.tuples))
		for _, t := range r.tuples {
			set[tupleKey(t)] = true
		}
		r.set = set
	})
}

func tupleKey(t []int) string {
	buf := make([]byte, 0, len(t)*5)
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range t {
		n := binary.PutUvarint(tmp[:], uint64(v))
		buf = append(buf, tmp[:n]...)
	}
	return string(buf)
}

// Has reports membership of the tuple.
func (r *Relation) Has(t []int) bool {
	r.ensureSet()
	return r.set[tupleKey(t)]
}

// Add inserts a tuple, reporting whether it was new. The tuple is
// copied, so callers may reuse the slice.
func (r *Relation) Add(t []int) bool {
	r.ensureSet()
	k := tupleKey(t)
	if r.set[k] {
		return false
	}
	r.set[k] = true
	tc := append([]int(nil), t...)
	r.tuples = append(r.tuples, tc)
	if r.index != nil {
		for i, v := range tc {
			r.index[i][v] = append(r.index[i][v], len(r.tuples)-1)
		}
	}
	return true
}

// AddUnchecked appends a tuple known to be absent, taking ownership
// of the slice. Bulk loaders with by-construction-unique facts (e.g.
// TreeDB) use it to skip per-tuple key hashing; the membership set is
// rebuilt lazily if someone later calls Has or Add.
func (r *Relation) AddUnchecked(t []int) {
	if r.set != nil {
		r.set[tupleKey(t)] = true
	}
	r.tuples = append(r.tuples, t)
	if r.index != nil {
		for i, v := range t {
			r.index[i][v] = append(r.index[i][v], len(r.tuples)-1)
		}
	}
}

// AddUnarySet bulk-appends distinct unary tuples that are known not
// to be present yet (e.g. values collected from a characteristic
// vector). It allocates two slabs instead of per-tuple copies and
// defers membership hashing until someone calls Has/Add.
func (r *Relation) AddUnarySet(vals []int) {
	if len(vals) == 0 {
		return
	}
	back := make([]int, len(vals))
	copy(back, vals)
	tuples := r.tuples
	if tuples == nil {
		tuples = make([][]int, 0, len(vals))
	}
	for i := range back {
		t := back[i : i+1 : i+1]
		tuples = append(tuples, t)
		if r.set != nil {
			r.set[tupleKey(t)] = true
		}
		if r.index != nil {
			r.index[0][back[i]] = append(r.index[0][back[i]], len(tuples)-1)
		}
	}
	r.tuples = tuples
}

// Tuples returns the underlying tuple list (do not modify).
func (r *Relation) Tuples() [][]int { return r.tuples }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// lookup returns the indices of tuples with value v at position pos.
func (r *Relation) lookup(pos, v int) []int {
	if r.index == nil {
		r.index = make([]map[int][]int, r.Arity)
		for i := range r.index {
			r.index[i] = map[int][]int{}
		}
		for ti, t := range r.tuples {
			for i, val := range t {
				r.index[i][val] = append(r.index[i][val], ti)
			}
		}
	}
	return r.index[pos][v]
}

// Rel returns the named relation, creating it with the given arity if
// absent.
func (db *Database) Rel(name string, arity int) *Relation {
	r, ok := db.rels[name]
	if !ok {
		r = newRelation(arity)
		db.rels[name] = r
	}
	return r
}

// RelOrNil returns the named relation or nil if it does not exist.
func (db *Database) RelOrNil(name string) *Relation { return db.rels[name] }

// Share installs r under name without copying it, so db and every
// other database holding r see the same tuples: all of them must treat
// r as read-only from then on.
func (db *Database) Share(name string, r *Relation) { db.rels[name] = r }

// Add inserts the fact pred(args...).
func (db *Database) Add(pred string, args ...int) bool {
	return db.Rel(pred, len(args)).Add(args)
}

// Has reports whether the fact pred(args...) holds.
func (db *Database) Has(pred string, args ...int) bool {
	r := db.rels[pred]
	return r != nil && r.Has(args)
}

// Unary returns the extension of a unary predicate as a dense bitmap
// over the domain (nil-safe: unknown predicates yield all-false). It
// panics on a tuple outside the domain.
func (db *Database) Unary(pred string) []bool {
	out := make([]bool, db.Dom)
	if r := db.rels[pred]; r != nil && r.Arity == 1 {
		for _, t := range r.tuples {
			out[t[0]] = true
		}
	}
	return out
}

// UnarySet returns the sorted extension of a unary predicate.
func (db *Database) UnarySet(pred string) []int {
	r := db.rels[pred]
	if r == nil || r.Arity != 1 || len(r.tuples) == 0 {
		return nil
	}
	out := make([]int, len(r.tuples))
	for i, t := range r.tuples {
		out[i] = t[0]
	}
	// Engines emit unary extensions in id order; sort only what is not.
	if !sort.IntsAreSorted(out) {
		sort.Ints(out)
	}
	return out
}

// Preds returns the sorted names of all relations present.
func (db *Database) Preds() []string {
	out := make([]string, 0, len(db.rels))
	for n := range db.rels {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// clone returns an independent copy of r with its tuples in one slab.
// r is duplicate-free, so the copy needs no per-tuple hashing: its
// membership set is rebuilt lazily, like a bulk-loaded relation's.
func (r *Relation) clone() *Relation {
	nr := newRelation(r.Arity)
	if len(r.tuples) == 0 {
		return nr
	}
	slab := make([]int, 0, len(r.tuples)*r.Arity)
	nr.tuples = make([][]int, len(r.tuples))
	for i, t := range r.tuples {
		lo := len(slab)
		slab = append(slab, t...)
		nr.tuples[i] = slab[lo:len(slab):len(slab)]
	}
	return nr
}

// Clone returns a deep copy of the database.
func (db *Database) Clone() *Database {
	c := NewDatabase(db.Dom)
	for name, r := range db.rels {
		c.rels[name] = r.clone()
	}
	return c
}

// Project returns a new database over the same domain containing
// copies of only the named relations (those that exist).
func (db *Database) Project(preds []string) *Database {
	c := NewDatabase(db.Dom)
	for _, name := range preds {
		if r, ok := db.rels[name]; ok {
			c.rels[name] = r.clone()
		}
	}
	return c
}

// Size returns the total number of tuples across all relations,
// the |σ| of the paper's complexity statements.
func (db *Database) Size() int {
	n := 0
	for _, r := range db.rels {
		n += len(r.tuples)
	}
	return n
}

func (db *Database) String() string {
	var out string
	for _, name := range db.Preds() {
		r := db.rels[name]
		for _, t := range r.tuples {
			out += Atom{Pred: name, Args: termsOf(t)}.String() + ".\n"
		}
	}
	return out
}

func termsOf(t []int) []Term {
	out := make([]Term, len(t))
	for i, v := range t {
		out[i] = C(v)
	}
	return out
}
