package service

// Live document sessions. A session pins one mdlog.Document server-side
// under a caller-chosen id: PUT uploads the document, PATCH applies
// structural/text edits through the arena mutation API, and
// /documents/{id}/extractall runs every registered wrapper over the
// live document through the incremental maintenance path
// (QuerySet.RunIncremental) — each edit pays for delta-rule
// maintenance instead of a reparse + re-extraction. Sessions are
// capacity-bounded: at the cap, PUT first reclaims the
// least-recently-used session that has sat idle past the configured
// threshold, and sheds the request with 503 + Retry-After when nothing
// is reclaimable.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	mdlog "mdlog"
)

// session is one live document with its usage timestamps.
type session struct {
	ID      string
	doc     *mdlog.Document
	created time.Time

	mu       sync.Mutex
	lastUsed time.Time
}

func (ss *session) touch() {
	ss.mu.Lock()
	ss.lastUsed = time.Now()
	ss.mu.Unlock()
}

func (ss *session) used() time.Time {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.lastUsed
}

// sessionStore is the id → session map with the capacity/LRU policy.
type sessionStore struct {
	mu   sync.Mutex
	m    map[string]*session
	max  int           // ≤ 0: unbounded
	idle time.Duration // LRU reclaim threshold at capacity
}

func newSessionStore(max int, idle time.Duration) *sessionStore {
	return &sessionStore{m: map[string]*session{}, max: max, idle: idle}
}

// put installs ss under its id. Replacing an existing id always
// succeeds (returning the replaced session). A new id at capacity
// reclaims the least-recently-used session iff it has been idle past
// the threshold; otherwise ok=false and the caller sheds the request.
func (st *sessionStore) put(ss *session) (evicted *session, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, exists := st.m[ss.ID]; exists {
		st.m[ss.ID] = ss
		return old, true
	}
	if st.max > 0 && len(st.m) >= st.max {
		var lru *session
		for _, cand := range st.m {
			if lru == nil || cand.used().Before(lru.used()) {
				lru = cand
			}
		}
		if lru == nil || time.Since(lru.used()) < st.idle {
			return nil, false
		}
		delete(st.m, lru.ID)
		evicted = lru
	}
	st.m[ss.ID] = ss
	return evicted, true
}

func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	ss, ok := st.m[id]
	st.mu.Unlock()
	if ok {
		ss.touch()
	}
	return ss, ok
}

func (st *sessionStore) remove(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ss, ok := st.m[id]
	if ok {
		delete(st.m, id)
	}
	return ss, ok
}

func (st *sessionStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}

// snapshot returns the sessions sorted by id.
func (st *sessionStore) snapshot() []*session {
	st.mu.Lock()
	out := make([]*session, 0, len(st.m))
	for _, ss := range st.m {
		out = append(out, ss)
	}
	st.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// releaseSession drops every cache entry keyed by the session's tree
// (the fused set's and each wrapper's), so a closed session's arena is
// unreachable and collectible — nothing in the daemon may pin it.
func (s *Server) releaseSession(ss *session) {
	s.forgetTree(ss.doc.Tree())
}

func (s *Server) sessionOf(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	ss, ok := s.sessions.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no document session %q", id)
		return nil, false
	}
	return ss, true
}

// sessionInfo is the JSON view of one session.
func sessionInfo(ss *session, withStats bool) map[string]any {
	ds := ss.doc.Stats()
	info := map[string]any{
		"id":         ss.ID,
		"generation": ds.Generation,
		"nodes":      ds.Nodes,
		"live":       ds.Live,
		"edits":      ds.Edits,
	}
	if withStats {
		info["created"] = ss.created.UTC().Format(time.RFC3339Nano)
		info["pending_windows"] = ds.PendingWindows
		info["maintained_plans"] = ds.MaintainedPlans
		info["incremental"] = map[string]any{
			"applies":     ds.Inc.Applies,
			"fallbacks":   ds.Inc.Fallbacks,
			"overdeleted": ds.Inc.Overdeleted,
			"rederived":   ds.Inc.Rederived,
		}
	}
	return info
}

// handlePutDocument uploads (or replaces) a live document session.
func (s *Server) handlePutDocument(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := ValidateName(id); err != nil {
		writeError(w, http.StatusBadRequest, "document id: %v", err)
		return
	}
	s.documents.Add(1)
	t, err := parseDocReader(s.body(w, r))
	if err != nil {
		s.docErrors.Add(1)
		writeError(w, clientErrStatus(err), "reading document: %v", err)
		return
	}
	now := time.Now()
	ss := &session{ID: id, doc: mdlog.NewDocument(t), created: now, lastUsed: now}
	old, ok := s.sessions.put(ss)
	if !ok {
		s.sessionRejected.Add(1)
		unavailable(w, 1, "session capacity (%d) reached", s.sessions.max)
		return
	}
	status := http.StatusCreated
	if old != nil {
		s.releaseSession(old)
		if old.ID == id {
			status = http.StatusOK
		}
	}
	writeJSON(w, status, sessionInfo(ss, false))
}

func (s *Server) handleListDocuments(w http.ResponseWriter, _ *http.Request) {
	sessions := s.sessions.snapshot()
	infos := make([]map[string]any, len(sessions))
	for i, ss := range sessions {
		infos[i] = sessionInfo(ss, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"documents": infos})
}

func (s *Server) handleGetDocument(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessionOf(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sessionInfo(ss, true))
}

func (s *Server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessions.remove(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no document session %q", r.PathValue("id"))
		return
	}
	s.releaseSession(ss)
	w.WriteHeader(http.StatusNoContent)
}

// patchRequest is the JSON envelope of PATCH /documents/{id}.
type patchRequest struct {
	// Ops apply in order; on a failing op the earlier ops remain
	// applied (the response reports how many).
	Ops []patchOp `json:"ops"`
}

// patchOp is one edit operation.
type patchOp struct {
	// Op is "insert", "remove", "settext" or "setattr".
	Op string `json:"op"`
	// Parent/Pos place an inserted subtree (Pos clamps to the child
	// count); Term is the subtree in term syntax, e.g. "tr(td,td)".
	Parent int    `json:"parent,omitempty"`
	Pos    int    `json:"pos,omitempty"`
	Term   string `json:"term,omitempty"`
	// Node is the target of remove/settext/setattr.
	Node int `json:"node,omitempty"`
	// Text is the new text content (settext).
	Text string `json:"text,omitempty"`
	// Key/Value set one attribute (setattr).
	Key   string `json:"key,omitempty"`
	Value string `json:"value,omitempty"`
}

// apply runs one op against the document, returning the inserted
// subtree root id (inserts only, else -1).
func (op patchOp) apply(doc *mdlog.Document) (int, error) {
	switch op.Op {
	case "insert":
		sub, err := mdlog.ParseTree(op.Term)
		if err != nil {
			return -1, fmt.Errorf("term %q: %w", op.Term, err)
		}
		return doc.InsertSubtree(op.Parent, op.Pos, sub.Root)
	case "remove":
		return -1, doc.RemoveSubtree(op.Node)
	case "settext":
		return -1, doc.SetText(op.Node, op.Text)
	case "setattr":
		return -1, doc.SetAttr(op.Node, op.Key, op.Value)
	default:
		return -1, fmt.Errorf("unknown op %q (want insert, remove, settext or setattr)", op.Op)
	}
}

// handlePatchDocument applies an edit script to a live session. Each
// op becomes one delta window for the incremental maintainers; the
// next extraction composes and applies them in one pass.
func (s *Server) handlePatchDocument(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessionOf(w, r)
	if !ok {
		return
	}
	var req patchRequest
	dec := json.NewDecoder(s.body(w, r))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, clientErrStatus(err), "invalid patch request: %v", err)
		return
	}
	inserted := []int{}
	for i, op := range req.Ops {
		id, err := op.apply(ss.doc)
		if err != nil {
			writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
				"error":   fmt.Sprintf("op %d (%s): %v", i, op.Op, err),
				"applied": i,
			})
			return
		}
		s.sessionEdits.Add(1)
		if id >= 0 {
			inserted = append(inserted, id)
		}
	}
	info := sessionInfo(ss, false)
	info["applied"] = len(req.Ops)
	info["inserted"] = inserted
	writeJSON(w, http.StatusOK, info)
}

// handleSessionExtractAll runs every registered wrapper over the live
// session document in one incrementally-maintained fused pass. Node
// ids in the response are arena ids — stable across this session's
// edits (GET /documents/{id} reports the generation they refer to).
func (s *Server) handleSessionExtractAll(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.sessionOf(w, r)
	if !ok {
		return
	}
	mode, err := setOutput(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	set, err := s.querySet()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "building wrapper set: %v", err)
		return
	}
	base := sessionInfo(ss, false)
	if set == nil {
		base["wrappers"], base["fused"], base["results"] = 0, 0, []any{}
		writeJSON(w, http.StatusOK, base)
		return
	}
	items := setItems(set.RunIncremental(r.Context(), ss.doc), mode)
	base["wrappers"], base["fused"], base["results"] = set.Len(), set.FusedLen(), items
	writeJSON(w, http.StatusOK, base)
}
