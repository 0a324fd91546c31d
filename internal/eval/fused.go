package eval

// The fused-plan path: one prepared Grounding evaluates the union of
// many wrappers' programs (apex-renamed and deduplicated by opt.Fuse),
// and FusedPlan splits the single result database back into per-member
// visible relations. This is the evaluation side of QuerySet — the
// grounding, the Horn solve, and the result construction all happen
// once per document for the whole wrapper set.

import (
	"time"

	"mdlog/internal/datalog"
)

// FusedMember is one wrapper's slice of a fused plan: its display name
// and the mapping from the caller-facing predicate names to the
// apex-renamed predicates the fused program actually derives.
type FusedMember struct {
	// Name labels the member in results and diagnostics.
	Name string
	// Project maps each visible (caller-facing) predicate to its
	// predicate in the fused program.
	Project map[string]string
}

// FusedPlan is a grounding plan for a fused program plus the
// per-member projections that recover each wrapper's visible relations
// from the shared result: Run evaluates the union once, Split slices
// the result per member. Immutable after NewFusedPlan; safe for
// concurrent use.
type FusedPlan struct {
	Grounding
	members []FusedMember
}

// NewFusedPlan prepares the fused program for the grounding engine of
// the shared pass (see NewGrounding) and attaches the member
// projections.
func NewFusedPlan(p *datalog.Program, members []FusedMember, engine Engine) (*FusedPlan, error) {
	g, err := NewGrounding(p, engine)
	if err != nil {
		return nil, err
	}
	return &FusedPlan{Grounding: g, members: members}, nil
}

// Members returns the number of fused members.
func (f *FusedPlan) Members() int { return len(f.members) }

// Split projects an already-computed fused result database into the
// per-member visible databases (same order as the members given to
// NewFusedPlan). It lets a memo store the fused database once: every
// later run re-slices it without re-evaluating. A member database
// shares its relations with full (and with every member projecting the
// same fused predicate) instead of copying them, so a split costs
// O(members × visible predicates) however large the answer; full and
// the member databases are all read-only.
func (f *FusedPlan) Split(full *datalog.Database) []*datalog.Database {
	out := make([]*datalog.Database, len(f.members))
	for i, m := range f.members {
		db := datalog.NewDatabase(full.Dom)
		for vis, fusedPred := range m.Project {
			r := full.RelOrNil(fusedPred)
			if r != nil && (r.Arity == 1 || r.Arity == 0 && r.Len() > 0) {
				db.Share(vis, r)
			}
		}
		out[i] = db
	}
	return out
}

// AttributeShared converts the cost of one shared fused pass into one
// member's attributed per-run stats: the timing fields are divided
// evenly across the n members (the pass is a joint product; an even
// split keeps per-wrapper rollups summing to the actual wall time),
// cache hits are carried through (a memoized shared pass served every
// member from cache), and the count fields (Runs, Facts, FusedRuns)
// are left for the caller to fill per member.
func AttributeShared(shared Stats, n int) Stats {
	if n <= 0 {
		n = 1
	}
	return Stats{
		Materialize: time.Duration(int64(shared.Materialize) / int64(n)),
		Eval:        time.Duration(int64(shared.Eval) / int64(n)),
		CacheHits:   shared.CacheHits,
		Engine:      shared.Engine,
	}
}
