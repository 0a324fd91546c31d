package service

// Content-hash document cache. Crawl traffic is massively duplicated:
// many tenants submit byte-identical pages. The daemon hashes the raw
// HTML of every stateless extraction request (SHA-256 over the exact
// bytes) and shares ONE parsed arena per distinct content across
// requests and tenants. Because the per-wrapper and fused QuerySet
// result memos key on tree identity, sharing the tree transparently
// shares the memoized least model too — a duplicate document costs a
// hash plus a map lookup instead of a parse plus an evaluation.
//
// A cached tree is arena-only (tree.OfArena): the engines, the MSO
// automaton and span extraction read the arena columns, so a cached
// page holds no *Node per node for the garbage collector to scan. Only
// a request that needs the pointer view (output=xml, the direct
// XPath/Elog⁻Δ evaluators) builds it, once, through Tree.View.
//
// Soundness (DESIGN.md §Fleet): content-equal bytes parse to the
// identical arena, and the paper's semantics are a function of the
// tree alone, so the least model — and therefore every wrapper's
// result — is identical. The cache never serves across generations:
// cached trees are immutable (live document sessions always parse
// their own private arena; PUT/PATCH /documents never touches the
// cache), so a cached entry's generation is forever 0 and a PATCHed
// session can never alias a shared entry.
//
// The cache is LRU-bounded. Eviction forgets the tree from every
// result memo (the fused set's and each wrapper's) before dropping the
// last reference, so an evicted arena is unreachable and collectible —
// the same discipline as closing a session, and idempotent, so a
// concurrent session close or re-eviction can never double-free.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	mdlog "mdlog"
	"mdlog/internal/html"
	"mdlog/internal/tree"
)

// DocHash is the content hash of a document's raw bytes — the dedup
// cache key and the consistent-hash routing key of shard mode.
type DocHash [sha256.Size]byte

// HashDoc hashes raw document bytes.
func HashDoc(b []byte) DocHash { return sha256.Sum256(b) }

// ringKey folds a content hash into the 64-bit key space the
// consistent-hash ring places workers in.
func (h DocHash) ringKey() uint64 {
	var k uint64
	for i := 0; i < 8; i++ {
		k = k<<8 | uint64(h[i])
	}
	return k
}

// docEntry is one cached document with its LRU links.
type docEntry struct {
	hash       DocHash
	tree       *mdlog.Tree
	bytes      int64
	prev, next *docEntry // LRU list: next = more recent
}

// docCache is the content-hash → parsed-tree LRU. All methods are
// safe for concurrent use.
type docCache struct {
	mu   sync.Mutex
	m    map[DocHash]*docEntry
	max  int       // entry bound; > 0 (a disabled cache is a nil *docCache)
	head *docEntry // least recent
	tail *docEntry // most recent

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newDocCache(max int) *docCache {
	return &docCache{m: map[DocHash]*docEntry{}, max: max}
}

// unlink removes e from the LRU list (caller holds mu).
func (c *docCache) unlink(e *docEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushTail appends e as most recent (caller holds mu).
func (c *docCache) pushTail(e *docEntry) {
	e.prev = c.tail
	if c.tail != nil {
		c.tail.next = e
	}
	c.tail = e
	if c.head == nil {
		c.head = e
	}
}

// get resolves a content hash, marking the entry most-recently-used.
func (c *docCache) get(h DocHash) (*mdlog.Tree, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[h]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.unlink(e)
	c.pushTail(e)
	return e.tree, true
}

// add installs a freshly parsed tree under h and returns any evicted
// trees (the caller forgets them from the result memos). A concurrent
// add of the same hash keeps the first tree — both are parses of the
// same bytes, so either is correct; keeping the installed one
// preserves memo hits already keyed on it. The losing lookup is
// recounted as a hit: it is served the shared tree, so hits and misses
// stay "lookups served a shared tree" and "distinct trees installed"
// however concurrent duplicates interleave (two copies of a page in
// one /batch count one hit whatever the worker count).
func (c *docCache) add(h DocHash, t *mdlog.Tree, size int64) (shared *mdlog.Tree, evicted []*mdlog.Tree) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[h]; ok {
		c.misses.Add(-1)
		c.hits.Add(1)
		c.unlink(e)
		c.pushTail(e)
		return e.tree, nil
	}
	e := &docEntry{hash: h, tree: t, bytes: size}
	c.m[h] = e
	c.pushTail(e)
	for len(c.m) > c.max {
		old := c.head
		c.unlink(old)
		delete(c.m, old.hash)
		c.evictions.Add(1)
		evicted = append(evicted, old.tree)
	}
	return t, evicted
}

// len reports the current entry count.
func (c *docCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// docCacheStats is the /stats //metrics snapshot.
type docCacheStats struct {
	entries                 int
	max                     int
	hits, misses, evictions int64
}

func (c *docCache) stats() docCacheStats {
	if c == nil {
		return docCacheStats{}
	}
	return docCacheStats{
		entries:   c.len(),
		max:       c.max,
		hits:      c.hits.Load(),
		misses:    c.misses.Load(),
		evictions: c.evictions.Load(),
	}
}

// DocCacheStats is the exported dedup-cache snapshot (the "doc_cache"
// section of /stats), for embedders and benchmarks.
type DocCacheStats struct {
	// Entries / Max are the current and bounding distinct-document
	// counts (all zero when the cache is disabled).
	Entries int
	Max     int
	// Hits / Misses / Evictions are lifetime counters.
	Hits, Misses, Evictions int64
}

// DocCacheStats reports the server's dedup-cache state; the zero value
// means the cache is disabled.
func (s *Server) DocCacheStats() DocCacheStats {
	cs := s.docs.stats()
	return DocCacheStats{
		Entries:   cs.entries,
		Max:       cs.max,
		Hits:      cs.hits,
		Misses:    cs.misses,
		Evictions: cs.evictions,
	}
}

// forgetTree drops every result-memo entry keyed by t — the fused
// set's and each wrapper's — so nothing in the daemon pins the arena.
// Shared by doc-cache eviction and session release; TreeCache.Forget
// is idempotent, so overlapping calls are safe.
func (s *Server) forgetTree(t *mdlog.Tree) {
	s.setMu.Lock()
	set := s.set
	s.setMu.Unlock()
	if set != nil {
		set.Cache().Forget(t)
	}
	for _, wr := range s.reg.Snapshot() {
		if c := wr.Query.Cache(); c != nil {
			c.Forget(t)
		}
	}
}

// misrouteError reports a document whose content hash belongs to a
// different shard — the -shard-of ownership guard tripping on a
// misconfigured front tier or a direct hit on the wrong worker.
type misrouteError struct {
	owner, self, n int
}

func (e *misrouteError) Error() string {
	return fmt.Sprintf("document content-hash maps to shard %d of %d, this worker is shard %d (front tier misrouted or ring mismatch)", e.owner, e.n, e.self)
}

// resolveDoc turns raw document bytes into a parsed tree through the
// dedup cache when it is enabled, after enforcing the shard-ownership
// guard when configured. The only possible error is a misroute, which
// resolveDoc itself counts — in shard_misrouted and document_errors —
// for every endpoint that resolves documents.
func (s *Server) resolveDoc(body []byte) (*mdlog.Tree, error) {
	var h DocHash
	if s.shardN > 0 || s.docs != nil {
		h = HashDoc(body)
	}
	if s.shardN > 0 {
		if owner := s.shardRing.Lookup(h.ringKey()); owner != s.shardIdx {
			s.shardMisrouted.Add(1)
			s.docErrors.Add(1)
			return nil, &misrouteError{owner: owner, self: s.shardIdx, n: s.shardN}
		}
	}
	if s.docs == nil {
		return parseDoc(body), nil
	}
	if t, hit := s.docs.get(h); hit {
		return t, nil
	}
	t := parseDoc(body)
	shared, evicted := s.docs.add(h, t, int64(len(body)))
	for _, old := range evicted {
		s.forgetTree(old)
	}
	return shared, nil
}

// parseDocReader parses one request document straight into an
// arena-only tree; the only possible error is a read error.
func parseDocReader(r io.Reader) (*mdlog.Tree, error) {
	a, err := html.ParseArena(r)
	if err != nil {
		return nil, err
	}
	return tree.OfArena(a), nil
}

// parseDoc is parseDocReader over bytes already read, which cannot
// fail.
func parseDoc(body []byte) *mdlog.Tree {
	t, _ := parseDocReader(bytes.NewReader(body))
	return t
}

// readDoc reads and resolves one request-body document, preserving the
// zero-copy streaming parse when neither the dedup cache nor the shard
// guard needs the raw bytes. ok=false means the error response has
// been written.
func (s *Server) readDoc(w http.ResponseWriter, r *http.Request) (*mdlog.Tree, bool) {
	if s.docs == nil && s.shardN == 0 {
		t, err := parseDocReader(s.body(w, r))
		if err != nil {
			s.docErrors.Add(1)
			writeError(w, clientErrStatus(err), "reading document: %v", err)
			return nil, false
		}
		return t, true
	}
	body, err := io.ReadAll(s.body(w, r))
	if err != nil {
		s.docErrors.Add(1)
		writeError(w, clientErrStatus(err), "reading document: %v", err)
		return nil, false
	}
	t, err := s.resolveDoc(body)
	if err != nil {
		writeError(w, http.StatusMisdirectedRequest, "%v", err)
		return nil, false
	}
	return t, true
}
