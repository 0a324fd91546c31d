package eval

import (
	"sync"
	"sync/atomic"

	"mdlog/internal/datalog"
	"mdlog/internal/tree"
)

// TreeCache memoizes per-(query, tree) evaluation results, so a
// compiled query (or many queries sharing one cache, when their
// prepared plans coincide) evaluates each document once instead of
// once per call. Nothing else is memoized: the navigation arrays a run
// needs are O(1) views over the document's arena (NavOf).
//
// Entries are keyed by tree identity, and each records the generation
// its results were computed at: every mutation — pointer-level edits
// followed by Reindex, or the arena mutation API — advances
// tree.Tree.Generation, so a post-mutation lookup misses, and the next
// SetResult replaces the superseded results. A live document thus
// holds one entry however often it is edited. The cached result
// databases are shared: callers must treat them as read-only.
//
// A TreeCache is safe for concurrent use. The zero value is NOT ready;
// use NewTreeCache.
type TreeCache struct {
	mu      sync.Mutex
	entries map[*tree.Tree]*treeCacheEntry

	// MaxTrees bounds the number of retained entries — one per tree
	// (0 = unbounded). When full, inserting a new one evicts an
	// arbitrary old entry — the cache targets "same document queried
	// many times", not LRU-precise scan workloads.
	MaxTrees int

	// MaxResults bounds the per-tree result memo: how many distinct
	// (query, tree) results one entry retains (≤ 0 = unbounded). Many
	// compiled queries sharing one cache otherwise grow every entry
	// without bound. NewTreeCache sets DefaultMaxResults; override
	// before first use.
	MaxResults int

	hits, misses, resultEvictions atomic.Int64
}

// DefaultMaxResults is the per-tree result-memo bound NewTreeCache
// installs: ample for realistic query fleets sharing a cache, small
// enough that a tree entry cannot grow without bound.
const DefaultMaxResults = 64

// CacheStats is a point-in-time snapshot of a TreeCache's contents and
// traffic.
type CacheStats struct {
	// Trees is the number of documents with cached state.
	Trees int
	// Results is the total number of memoized (query, tree) results
	// across all entries.
	Results int
	// Hits and Misses count Result lookups that found a memoized
	// result vs found none.
	Hits, Misses int64
	// ResultEvictions counts memoized results dropped to enforce
	// MaxResults.
	ResultEvictions int64
}

type treeCacheEntry struct {
	mu sync.Mutex
	// gen is the tree generation the results were computed at.
	gen     uint64
	results map[any]*datalog.Database
}

// NewTreeCache builds an empty cache; maxTrees ≤ 0 means unbounded.
// The per-tree result memo starts bounded at DefaultMaxResults; set
// MaxResults before first use to change it.
func NewTreeCache(maxTrees int) *TreeCache {
	return &TreeCache{
		entries:    map[*tree.Tree]*treeCacheEntry{},
		MaxTrees:   maxTrees,
		MaxResults: DefaultMaxResults,
	}
}

func (c *TreeCache) entry(t *tree.Tree) *treeCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[t]
	if !ok {
		if c.MaxTrees > 0 && len(c.entries) >= c.MaxTrees {
			for k := range c.entries {
				delete(c.entries, k)
				break
			}
		}
		e = &treeCacheEntry{}
		c.entries[t] = e
	}
	return e
}

// peek returns t's entry without creating one.
func (c *TreeCache) peek(t *tree.Tree) *treeCacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[t]
}

// Result returns the memoized evaluation result for (t, key), if any.
// key identifies the computation — typically the compiled query or
// plan pointer — so distinct queries sharing one cache never collide.
// The returned database is shared and must be treated as read-only.
func (c *TreeCache) Result(t *tree.Tree, key any) (*datalog.Database, bool) {
	var db *datalog.Database
	ok := false
	if e := c.peek(t); e != nil {
		gen := t.Generation()
		e.mu.Lock()
		if e.gen == gen {
			db, ok = e.results[key]
		}
		e.mu.Unlock()
	}
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return db, ok
}

// SetResult memoizes an evaluation result for (t, key) at t's current
// generation. Results live exactly as long as the tree's cache entry:
// Forget or an eviction drops them together, and a result for a new
// generation replaces all of them. When the entry already holds
// MaxResults results for other keys, an arbitrary one is evicted first
// (same policy as MaxTrees).
func (c *TreeCache) SetResult(t *tree.Tree, key any, db *datalog.Database) {
	maxResults := c.maxResults()
	gen := t.Generation()
	e := c.entry(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.results == nil || e.gen != gen {
		e.gen, e.results = gen, map[any]*datalog.Database{}
	}
	if maxResults > 0 && len(e.results) >= maxResults {
		if _, present := e.results[key]; !present {
			for k := range e.results {
				delete(e.results, k)
				break
			}
			c.resultEvictions.Add(1)
		}
	}
	e.results[key] = db
}

func (c *TreeCache) maxResults() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.MaxResults
}

// Contains reports whether t already has cached results at its
// current generation. Purely advisory: a
// concurrent Forget or eviction can invalidate the answer immediately.
func (c *TreeCache) Contains(t *tree.Tree) bool {
	e := c.peek(t)
	if e == nil {
		return false
	}
	gen := t.Generation()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen == gen
}

// Forget drops all cached state for t — the release hook for closing
// document sessions.
func (c *TreeCache) Forget(t *tree.Tree) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, t)
}

// Len returns the number of trees with cached state.
func (c *TreeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats snapshots the cache contents and traffic, including the total
// number of memoized per-(query, tree) results — the figure MaxResults
// bounds per entry. Entries are visited outside the cache lock, so a
// concurrent writer can skew the totals slightly; the snapshot is
// advisory, like Contains.
func (c *TreeCache) Stats() CacheStats {
	c.mu.Lock()
	s := CacheStats{
		Trees:           len(c.entries),
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		ResultEvictions: c.resultEvictions.Load(),
	}
	es := make([]*treeCacheEntry, 0, len(c.entries))
	for _, e := range c.entries {
		es = append(es, e)
	}
	c.mu.Unlock()
	for _, e := range es {
		e.mu.Lock()
		s.Results += len(e.results)
		e.mu.Unlock()
	}
	return s
}
