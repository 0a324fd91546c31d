package mdlog

// QuerySet fuses many compiled wrappers into one shared evaluation
// pass per document. The paper's central result — all six formalisms
// compile into monadic datalog over τ_ur — means N wrappers over the
// same page ground the identical base facts N times when run in
// isolation. A QuerySet apex-renames the members' post-optimization
// programs into one fused program (opt.Fuse), deduplicates the
// auxiliary tm_*/conn_* chains the translations share, prepares ONE
// grounding plan for the union, and per document runs that plan once,
// projecting each member's visible relations back out. Members that
// do not route through a grounding datalog engine (the MSO
// automaton, the direct XPath/Elog⁻Δ evaluators) are evaluated
// individually inside the same Run call with identical results —
// fusion is an optimization, never a semantics change. See DESIGN.md
// §QuerySet for the soundness argument.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"mdlog/internal/eval"
	"mdlog/internal/opt"
	"mdlog/internal/span"
)

// FuseReport describes what fusing a QuerySet did: total member rules
// in, fused rules out, and how many shared auxiliary predicates/rules
// were merged across members. The zero value means no members fused.
type FuseReport = opt.FuseReport

// NamedQuery pairs a compiled query with the name its results carry in
// SetResult.
type NamedQuery struct {
	// Name labels the member's results; it need not be unique (results
	// also carry the member index).
	Name string
	// Query is the member, compiled with any Compile* entry point.
	Query *CompiledQuery
}

// SetSpec is one member of CompileSet: a source in any of the six
// languages plus its per-member compile options.
type SetSpec struct {
	// Name labels the member's results ("q<i>" if empty).
	Name string
	// Source is the query text.
	Source string
	// Lang is the source language.
	Lang Language
	// Options are per-member compile options (engine, query predicate,
	// extraction list, optimization level, ...).
	Options []Option
}

// SetResult is one run's answer for one document: a QuerySet
// member's, or a CompiledQuery's (a one-member set). Every language's
// answer is a set of unary relations, read out here in all three
// shapes at once.
type SetResult struct {
	// Name and Index identify the member (Index is its position in the
	// set); empty and 0 for CompiledQuery.Run.
	Name  string
	Index int
	// IDs are the sorted node ids of the member's query predicate
	// (Select semantics); nil when the member has no distinguished
	// query predicate.
	IDs []int
	// Assignment maps each of the member's extraction predicates with
	// a non-empty extension to its sorted node ids (the pattern → nodes
	// assignment Wrap builds its output tree from).
	Assignment Assignment
	// Spans holds a spanner member's span relations (Spans semantics);
	// nil for members of every other language.
	Spans SpanResult
	// Stats are the member's attributed per-run measurements; for
	// fused members the shared pass's timing is divided evenly and
	// FusedRuns is 1.
	Stats Stats
	// Err is the member's failure, if any; other members are
	// unaffected (per-member error isolation).
	Err error
}

// QuerySet is a fused evaluation unit over N compiled queries. Build
// one with NewQuerySet / NewNamedQuerySet / CompileSet; Run evaluates
// every member against one document with the base TreeDB grounded
// once. All methods are safe for concurrent use.
type QuerySet struct {
	members []NamedQuery
	cache   *TreeCache

	// fused covers the members at the positions in fusedIdx — every
	// member whose plan routes through a grounding datalog engine; nil
	// when fewer than two members are fusable. fusedPlan runs it
	// projected onto the union of the members' apex-renamed visible
	// predicates — the only relations the fused pass materializes, so
	// the memo never retains merged auxiliary relations.
	fused     *eval.FusedPlan
	fusedPlan *groundingPlan
	fusedIdx  []int
	fusedKey  planKey
	// fusedCache memoizes the fused pass: the set's cache, or nil when
	// any fused member was compiled WithoutCache, because memoizing the
	// shared result would silently reinstate the per-document caching
	// that member's compile options opted out of.
	fusedCache *TreeCache
	report     FuseReport
	// plans is the per-member compile outcome (fused / subsumed /
	// equivalence class), computed once at build time.
	plans []MemberPlan

	agg aggStats
}

// MemberPlan describes how the compile pipeline decided to serve one
// QuerySet member: evaluated inside the fused pass, evaluated
// individually, or — when the containment checker proved it equivalent
// to another member — answered purely by projection with zero rules of
// its own.
type MemberPlan struct {
	// Name and Index identify the member (Index is its set position).
	Name  string
	Index int
	// Fused reports whether the member is covered by the shared fused
	// pass.
	Fused bool
	// Subsumed reports that none of the member's own rules survive in
	// the fused program: its results are projected from an equivalent
	// member's relations and SetResult.Stats.SubsumedRuns is 1 per run.
	Subsumed bool
	// Rules is the number of fused-program rules the member owns
	// (0 when subsumed); for unfused members, its own plan's rule
	// count.
	Rules int
	// Class is the member's equivalence class among fused members:
	// members whose visible relations resolve to the same fused
	// predicates share a class (and therefore answers). -1 for unfused
	// members; singleton classes are normal.
	Class int
	// SharedWith names the representative member whose rules carry
	// this member's answers; empty unless Subsumed.
	SharedWith string
}

// Plans returns the per-member compile decisions in set order. The
// slice is freshly allocated; the decisions themselves are fixed at
// construction.
func (s *QuerySet) Plans() []MemberPlan {
	return append([]MemberPlan(nil), s.plans...)
}

// NewQuerySet fuses already-compiled queries into a set; members are
// named "q0", "q1", ... in argument order.
func NewQuerySet(queries ...*CompiledQuery) (*QuerySet, error) {
	named := make([]NamedQuery, len(queries))
	for i, q := range queries {
		named[i] = NamedQuery{Name: fmt.Sprintf("q%d", i), Query: q}
	}
	return NewNamedQuerySet(named...)
}

// NewNamedQuerySet is NewQuerySet with caller-chosen member names.
func NewNamedQuerySet(members ...NamedQuery) (*QuerySet, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("mdlog: a QuerySet needs at least one query")
	}
	s := &QuerySet{
		members: append([]NamedQuery(nil), members...),
		cache:   NewTreeCache(DefaultCacheTrees),
	}
	s.plans = make([]MemberPlan, len(s.members))
	for i, m := range s.members {
		s.plans[i] = MemberPlan{Name: m.Name, Index: i, Class: -1}
	}
	var fuseMembers []opt.FuseMember
	linearMembers := 0
	s.fusedCache = s.cache
	for i, m := range s.members {
		if m.Query == nil {
			return nil, fmt.Errorf("mdlog: QuerySet member %d (%s) is nil", i, m.Name)
		}
		// Every grounding plan fuses, whichever engine it was compiled
		// for — both execute the same prepared Theorem 4.2 plans. A
		// spanner member's node part is one too; the span rules run per
		// member on the split-out candidate relations (see fill).
		g := groundingOf(m.Query.plan)
		if g == nil {
			continue
		}
		if g.Engine() == EngineLinear {
			linearMembers++
		}
		fm := fuseMember(i, g)
		fuseMembers = append(fuseMembers, fm)
		s.plans[i].Rules = len(fm.Program.Rules)
		s.fusedIdx = append(s.fusedIdx, i)
		if m.Query.cache == nil {
			s.fusedCache = nil
		}
	}
	if len(fuseMembers) >= 2 {
		fusedProg, aliases, rep := opt.Fuse(fuseMembers)
		// Per-member projections: a visible predicate normally lives at
		// its apex-renamed name; when fusion merged it into an
		// equivalent predicate, the alias map points at the relation
		// that carries the shared extension.
		evalMembers := make([]eval.FusedMember, len(fuseMembers))
		seen := map[string]bool{}
		var project []string
		for j, fm := range fuseMembers {
			rename := make(map[string]string, len(fm.Visible))
			for _, v := range fm.Visible {
				fused := fm.Prefix + v
				if target, ok := aliases[fused]; ok {
					fused = target
				}
				rename[v] = fused
				if !seen[fused] {
					seen[fused] = true
					project = append(project, fused)
				}
			}
			evalMembers[j] = eval.FusedMember{Name: s.members[s.fusedIdx[j]].Name, Project: rename}
		}
		// A member is subsumed when no fused rule carries its apex
		// prefix: whether the containment checker proved it equivalent
		// to another member or plain dedup merged an exact twin, its
		// results come purely from projecting surviving relations, so
		// it costs zero evaluation per document.
		ownedRules := map[string]int{}
		for _, r := range fusedProg.Rules {
			for _, fm := range fuseMembers {
				if strings.HasPrefix(r.Head.Pred, fm.Prefix) {
					ownedRules[fm.Prefix]++
					break
				}
			}
		}
		// Equivalence classes: members whose visible relations resolve
		// to the same fused predicates share every answer. Class ids are
		// assigned in member order; a subsumed member's SharedWith names
		// its class's surviving representative.
		classOf := map[string]int{}
		classRep := map[int]string{}
		for j, fm := range fuseMembers {
			idx := s.fusedIdx[j]
			mp := &s.plans[idx]
			mp.Fused = true
			mp.Rules = ownedRules[fm.Prefix]
			carriers := make([]string, 0, len(evalMembers[j].Project))
			for _, fusedPred := range evalMembers[j].Project {
				carriers = append(carriers, fusedPred)
			}
			sort.Strings(carriers)
			key := strings.Join(carriers, "\x00")
			cls, ok := classOf[key]
			if !ok {
				cls = len(classOf)
				classOf[key] = cls
			}
			mp.Class = cls
			if mp.Rules > 0 {
				if _, ok := classRep[cls]; !ok {
					classRep[cls] = s.members[idx].Name
				}
			}
			mp.Subsumed = mp.Rules == 0
		}
		for j := range fuseMembers {
			mp := &s.plans[s.fusedIdx[j]]
			if mp.Subsumed {
				mp.SharedWith = classRep[mp.Class]
			}
		}
		// The shared pass runs on the linear engine only when EVERY
		// fusable member asked for it — a mixed set runs on the default,
		// which is an optimization choice, not a semantics change (the
		// two engines are differentially tested to agree).
		fusedEngine := eval.DefaultEngine
		if linearMembers == len(fuseMembers) {
			fusedEngine = EngineLinear
		}
		fp, err := eval.NewFusedPlan(fusedProg, evalMembers, fusedEngine)
		if err != nil {
			// Every member plan compiled individually, so the union
			// must too; failing loudly beats silently degrading.
			return nil, fmt.Errorf("mdlog: fusing %d queries: %w", len(fuseMembers), err)
		}
		s.fused = fp
		s.fusedPlan = &groundingPlan{Grounding: fp, project: project}
		s.report = rep
		s.fusedKey = newPlanKey(fusedProg, fusedEngine, project)
	} else {
		s.fusedIdx = nil
	}
	return s, nil
}

// fuseMember is set member i's input to opt.Fuse: its grounding plan's
// program under the apex tag s<i>__, with the plan's signature memo.
func fuseMember(i int, g *groundingPlan) opt.FuseMember {
	return opt.FuseMember{
		Prefix:     fmt.Sprintf("s%d__", i),
		Program:    g.Program(),
		Visible:    append([]string(nil), g.project...),
		Signatures: &g.sigs,
	}
}

// CompileSet compiles each spec and fuses the results into a QuerySet
// — the one-call form of Compile × N + NewNamedQuerySet.
func CompileSet(specs []SetSpec) (*QuerySet, error) {
	members := make([]NamedQuery, len(specs))
	for i, sp := range specs {
		name := sp.Name
		if name == "" {
			name = fmt.Sprintf("q%d", i)
		}
		q, err := Compile(sp.Source, sp.Lang, sp.Options...)
		if err != nil {
			return nil, fmt.Errorf("mdlog: compiling set member %d (%s): %w", i, name, err)
		}
		members[i] = NamedQuery{Name: name, Query: q}
	}
	return NewNamedQuerySet(members...)
}

// Len returns the number of member queries.
func (s *QuerySet) Len() int { return len(s.members) }

// Names returns the member names in set order.
func (s *QuerySet) Names() []string {
	out := make([]string, len(s.members))
	for i, m := range s.members {
		out[i] = m.Name
	}
	return out
}

// Queries returns the member queries in set order.
func (s *QuerySet) Queries() []*CompiledQuery {
	out := make([]*CompiledQuery, len(s.members))
	for i, m := range s.members {
		out[i] = m.Query
	}
	return out
}

// FusedLen reports how many members the shared fused pass covers (0:
// every member runs individually).
func (s *QuerySet) FusedLen() int {
	if s.fused == nil {
		return 0
	}
	return s.fused.Members()
}

// FuseStats reports what program fusion did: member rules in, fused
// rules out, shared auxiliaries merged. The zero value means no fused
// pass exists.
func (s *QuerySet) FuseStats() FuseReport { return s.report }

// Cache returns the set's TreeCache, which holds ALL of the set's
// per-document results — the fused pass's memo plus the unfused
// members' memos — so Forget on a mutated document invalidates every
// member's results at once.
func (s *QuerySet) Cache() *TreeCache { return s.cache }

// Stats returns the set's lifetime aggregate: one entry of Runs per
// Run call, with the full (unattributed) shared-pass timing.
func (s *QuerySet) Stats() Stats { return s.agg.snapshot() }

// Run evaluates every member against one document and returns one
// SetResult per member, in set order. Members covered by the fused
// plan share a single evaluation pass (grounded once, memoized once in
// the set's TreeCache); the rest run their own plans. A member's
// failure is isolated to its own result; a canceled context fails
// every member still pending.
func (s *QuerySet) Run(ctx context.Context, t *Tree) []SetResult {
	return s.runMembers(arenaSource{a: t.Arena()},
		func() (*Database, Stats, error) {
			return runCached(ctx, t, s.fusedCache, s.fusedPlan, s.fusedKey)
		},
		func(q *CompiledQuery, cache *TreeCache) (*Database, Stats, error) {
			return runCached(ctx, t, cache, q.plan, q.memoKey)
		})
}

// runMembers is the one member loop behind Run and RunIncremental:
// fused computes the shared pass's database, which is split per fused
// member, and member computes one unfused member's visible database
// against cache. src supplies character data for spanner members in
// the databases' id space. Stats are attributed per member and the
// set-level total is recorded once.
func (s *QuerySet) runMembers(src span.Source, fused func() (*Database, Stats, error),
	member func(q *CompiledQuery, cache *TreeCache) (*Database, Stats, error)) []SetResult {
	out := make([]SetResult, len(s.members))
	for i, m := range s.members {
		out[i] = SetResult{Name: m.Name, Index: i}
	}
	var total Stats
	if s.fused != nil {
		full, shared, err := fused()
		total.Add(shared)
		var dbs []*Database
		if err == nil {
			dbs = s.fused.Split(full)
		}
		for j, idx := range s.fusedIdx {
			if err != nil {
				out[idx].Err = err
				continue
			}
			st := eval.AttributeShared(shared, len(s.fusedIdx))
			st.Runs, st.FusedRuns = 1, 1
			if s.plans[idx].Subsumed {
				st.SubsumedRuns = 1
			}
			s.members[idx].Query.fill(&out[idx], src, dbs[j], st)
		}
	}
	for i, m := range s.members {
		if s.plans[i].Fused {
			continue
		}
		// Unfused members run against the SET's cache, not their own:
		// one Cache().Forget invalidates every member's state for a
		// mutated document, fused or not. A member compiled
		// WithoutCache keeps its no-memoization contract inside the
		// set too.
		cache := s.cache
		if m.Query.cache == nil {
			cache = nil
		}
		db, rs, err := member(m.Query, cache)
		total.Add(rs)
		if err != nil {
			out[i].Err = err
			continue
		}
		rs.Runs = 1
		m.Query.fill(&out[i], src, db, rs)
	}
	for i := range out {
		total.Facts += out[i].Stats.Facts
	}
	total.Runs = 1
	s.agg.record(total)
	return out
}
