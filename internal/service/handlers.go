package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	mdlog "mdlog"
	"mdlog/internal/wrap"
)

// outputMode selects what an extraction returns.
type outputMode int

const (
	outNodes  outputMode = iota // the query predicate's node ids
	outAssign                   // pattern → node ids
	outXML                      // wrapped output tree serialized as XML
	outSpans                    // span relations (spanner wrappers only)
)

// encoder renders one output mode of a run's SetResult: the reply
// field it fills and the value that goes there. stats marks the modes
// whose single-document /extract reply also reports the run's stats.
type encoder struct {
	field string
	value func(mdlog.SetResult) any
	stats bool
}

// encoders is the one table every extraction endpoint renders answers
// through. outXML has no entry: an output tree is a per-wrapper
// rendering, served via Wrap (see wrapXML).
var encoders = map[outputMode]encoder{
	outNodes:  {"nodes", func(r mdlog.SetResult) any { return nonNil(r.IDs) }, true},
	outAssign: {"assign", func(r mdlog.SetResult) any { return assignJSON(r.Assignment) }, false},
	outSpans:  {"spans", func(r mdlog.SetResult) any { return spanResultJSON(r.Spans) }, true},
}

func parseOutput(r *http.Request) (outputMode, error) {
	switch v := r.URL.Query().Get("output"); v {
	case "", "nodes":
		return outNodes, nil
	case "assign":
		return outAssign, nil
	case "xml":
		return outXML, nil
	case "spans":
		return outSpans, nil
	default:
		return 0, fmt.Errorf("unknown output %q (want nodes, assign, xml or spans)", v)
	}
}

// spansOK rejects ?output=spans against a wrapper that cannot produce
// spans — only LangSpanner wrappers carry span rules, and a silent
// empty result would mask the mismatch. Reports false after writing
// the error response.
func spansOK(w http.ResponseWriter, wr *Wrapper, mode outputMode) bool {
	if mode == outSpans && wr.Query.Language() != mdlog.LangSpanner {
		writeError(w, http.StatusBadRequest,
			"output spans requires a spanner wrapper (%q is lang %s)", wr.Name, wr.Spec.Lang)
		return false
	}
	return true
}

// spanResultJSON keeps empty span results as [] rather than null on
// the wire (non-spanner members under ?output=spans render []).
func spanResultJSON(res mdlog.SpanResult) any {
	if res == nil {
		return []any{}
	}
	return res
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // a write error means the client went away
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]any{"error": fmt.Sprintf(format, args...)})
}

// unavailable writes a 503 whose Retry-After header is guaranteed to
// be an integer number of seconds (RFC 9110 §10.2.3 delay-seconds) —
// every load-shedding path in the daemon and the front tier goes
// through here, so no path can emit a malformed or empty value.
func unavailable(w http.ResponseWriter, seconds int, format string, args ...any) {
	if seconds < 1 {
		seconds = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
	writeError(w, http.StatusServiceUnavailable, format, args...)
}

// body caps the request body at maxBody; a negative cap means
// unbounded (http.MaxBytesReader would treat it as zero).
func (s *Server) body(w http.ResponseWriter, r *http.Request) io.Reader {
	if s.maxBody < 0 {
		return r.Body
	}
	return http.MaxBytesReader(w, r.Body, s.maxBody)
}

func (s *Server) wrapper(w http.ResponseWriter, r *http.Request) (*Wrapper, bool) {
	name := r.PathValue("name")
	wr, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no wrapper %q registered", name)
		return nil, false
	}
	return wr, true
}

// wrapperInfo is the JSON view of a registry entry; source is included
// only on single-wrapper GETs.
func wrapperInfo(wr *Wrapper, withSource bool) map[string]any {
	info := map[string]any{
		"name":       wr.Name,
		"lang":       wr.Spec.Lang.String(),
		"pred":       wr.Query.QueryPred(),
		"extract":    wr.Query.ExtractPreds(),
		"version":    wr.Version,
		"registered": wr.Registered.UTC().Format(time.RFC3339Nano),
	}
	if withSource {
		info["source"] = wr.Spec.Source
	}
	return info
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "wrappers": s.reg.Len()})
}

// ---------------------------------------------------------------------
// Wrapper CRUD.

func (s *Server) handleListWrappers(w http.ResponseWriter, _ *http.Request) {
	ws := s.reg.Snapshot()
	plans, _, _ := s.subsumePlans()
	infos := make([]map[string]any, len(ws))
	for i, wr := range ws {
		infos[i] = wrapperInfo(wr, false)
		if p, ok := plans[wr.Name]; ok {
			infos[i]["subsume"] = memberPlanJSON(p)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"wrappers": infos})
}

func (s *Server) handlePutWrapper(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var spec WrapperSpec
	dec := json.NewDecoder(s.body(w, r))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, clientErrStatus(err), "invalid wrapper spec: %v", err)
		return
	}
	wr, replaced, err := s.reg.Register(name, s.withDefaults(spec))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.persist(); err != nil {
		// The in-memory registry already serves the new wrapper; the
		// caller learns durability failed and may retry the PUT (the
		// next successful save rewrites the whole snapshot).
		writeError(w, http.StatusInternalServerError, "wrapper registered but not persisted: %v", err)
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, wrapperInfo(wr, false))
}

func (s *Server) handleGetWrapper(w http.ResponseWriter, r *http.Request) {
	wr, ok := s.wrapper(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, wrapperInfo(wr, true))
}

func (s *Server) handleDeleteWrapper(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Remove(name) {
		writeError(w, http.StatusNotFound, "no wrapper %q registered", name)
		return
	}
	if err := s.persist(); err != nil {
		writeError(w, http.StatusInternalServerError, "wrapper removed but not persisted: %v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---------------------------------------------------------------------
// Extraction.

// handleExtract resolves the request body — one HTML document —
// through the content-hash dedup cache (or streams it through the
// arena parser when the cache is off) and runs the wrapper on it.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	wr, ok := s.wrapper(w, r)
	if !ok {
		return
	}
	mode, err := parseOutput(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !spansOK(w, wr, mode) {
		return
	}
	// Count the document on acceptance (before parsing), mirroring
	// /batch — so document_errors can never exceed documents.
	s.documents.Add(1)
	doc, ok := s.readDoc(w, r)
	if !ok {
		return
	}
	reply, stats, err := extract(r.Context(), wr, mode, doc)
	if err != nil {
		s.docErrors.Add(1)
		writeError(w, evalErrStatus(err), "%v", err)
		return
	}
	if mode == outXML {
		w.Header().Set("Content-Type", "application/xml")
		_, _ = io.WriteString(w, reply["xml"].(string))
		return
	}
	reply["wrapper"] = wr.Name
	if encoders[mode].stats {
		reply["stats"] = runStatsJSON(stats)
	}
	writeJSON(w, http.StatusOK, reply)
}

// extract runs one wrapper over one document and renders the answer
// as reply fields: through the encoder table, or — the one per-wrapper
// special case — as the Wrap output tree serialized to XML.
func extract(ctx context.Context, wr *Wrapper, mode outputMode, doc *mdlog.Tree) (map[string]any, mdlog.Stats, error) {
	if mode == outNodes && wr.Query.QueryPred() == "" {
		// Per-wrapper node output is Select's answer, and Select owns
		// the error for a wrapper with no distinguished query predicate.
		_, err := wr.Query.Select(ctx, doc)
		return nil, mdlog.Stats{}, err
	}
	if mode == outXML {
		out, err := wr.Query.Wrap(ctx, doc)
		if err != nil {
			return nil, mdlog.Stats{}, err
		}
		var buf bytes.Buffer
		_ = wrap.WriteXML(&buf, out) // a bytes.Buffer never fails
		return map[string]any{"xml": buf.String()}, mdlog.Stats{}, nil
	}
	res := wr.Query.Run(ctx, doc)
	if res.Err != nil {
		return nil, res.Stats, res.Err
	}
	enc := encoders[mode]
	return map[string]any{enc.field: enc.value(res)}, res.Stats, nil
}

// batchRequest is the JSON envelope of POST /batch/{name}.
type batchRequest struct {
	// Docs are processed in order; results carry each doc's index and
	// (if set) id.
	Docs []batchDoc `json:"docs"`
}

// batchDoc is one document of a batch request.
type batchDoc struct {
	// ID is an optional caller-chosen correlation key echoed in the
	// result.
	ID string `json:"id,omitempty"`
	// HTML is the document source.
	HTML string `json:"html"`
}

// decodeBatch parses the shared /batch* request shape: the JSON docs
// envelope plus the NDJSON format selection (?format=ndjson or
// Accept: application/x-ndjson). Reports ok=false after writing the
// error response.
func (s *Server) decodeBatch(w http.ResponseWriter, r *http.Request) (req batchRequest, ndjson, ok bool) {
	ndjson = r.URL.Query().Get("format") == "ndjson" ||
		strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
	dec := json.NewDecoder(s.body(w, r))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, clientErrStatus(err), "invalid batch request: %v", err)
		return req, ndjson, false
	}
	s.documents.Add(int64(len(req.Docs)))
	return req, ndjson, true
}

// runBatch is the one batch lane of /batch and /batchall: the
// documents are fed through the worker pool, f runs on each inside the
// pool, and the results come back in input order. The producer guards
// its sends with ctx, so a client that goes away stops the feed.
func (s *Server) runBatch(ctx context.Context, docs []batchDoc, f func(context.Context, batchDoc) (map[string]any, error)) <-chan mdlog.Result[map[string]any] {
	in := make(chan batchDoc)
	go func() {
		defer close(in)
		for _, d := range docs {
			select {
			case in <- d:
			case <-ctx.Done():
				return
			}
		}
	}()
	return mdlog.Map(ctx, s.runner, in, f)
}

// emitBatch writes the lane's results to the wire: NDJSON lines
// flushed as each document completes, or one JSON document (envelope
// wraps the collected items). Each item carries its document's index
// and id; a failed document marks only its own item's "error" — the
// batch continues. If the client goes away mid-NDJSON, the results are
// drained so the workers can finish.
func (s *Server) emitBatch(w http.ResponseWriter, ndjson bool, docs []batchDoc, results <-chan mdlog.Result[map[string]any], envelope func([]map[string]any) map[string]any) {
	item := func(res mdlog.Result[map[string]any]) map[string]any {
		it := res.Value
		if res.Err != nil {
			s.docErrors.Add(1)
			it = map[string]any{"error": res.Err.Error()}
		}
		it["index"] = res.Index
		if id := docs[res.Index].ID; id != "" {
			it["id"] = id
		}
		return it
	}
	if ndjson {
		w.Header().Set("Content-Type", "application/x-ndjson")
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		for res := range results {
			if err := enc.Encode(item(res)); err != nil {
				for range results {
				}
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}
	items := make([]map[string]any, 0, len(docs))
	for res := range results {
		items = append(items, item(res))
	}
	writeJSON(w, http.StatusOK, envelope(items))
}

// onTree adapts a per-tree run to the batch lane: each document is
// resolved through resolveDoc — the dedup cache and the shard guard,
// exactly as /extract — inside the worker pool. A misrouted document
// fails only its own item (resolveDoc has already counted it).
func (s *Server) onTree(run func(context.Context, *mdlog.Tree) (map[string]any, error)) func(context.Context, batchDoc) (map[string]any, error) {
	return func(ctx context.Context, d batchDoc) (map[string]any, error) {
		t, err := s.resolveDoc([]byte(d.HTML))
		if err != nil {
			return map[string]any{"error": err.Error()}, nil
		}
		return run(ctx, t)
	}
}

// handleBatch fans the request's documents across the worker pool
// (resolve + evaluate both inside the pool) and emits per-document
// results in input order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	wr, ok := s.wrapper(w, r)
	if !ok {
		return
	}
	mode, err := parseOutput(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !spansOK(w, wr, mode) {
		return
	}
	req, ndjson, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	results := s.runBatch(r.Context(), req.Docs, s.onTree(extractItem(wr, mode)))
	s.emitBatch(w, ndjson, req.Docs, results, func(items []map[string]any) map[string]any {
		return map[string]any{"wrapper": wr.Name, "results": items}
	})
}

// extractItem is /batch's per-document run: extract without the
// stats, which only the single-document reply reports.
func extractItem(wr *Wrapper, mode outputMode) func(context.Context, *mdlog.Tree) (map[string]any, error) {
	return func(ctx context.Context, t *mdlog.Tree) (map[string]any, error) {
		item, _, err := extract(ctx, wr, mode, t)
		return item, err
	}
}

// ---------------------------------------------------------------------
// Fused all-wrapper extraction.

// setOutput is parseOutput restricted to the modes /extractall and
// /batchall support: per-wrapper XML trees are a per-wrapper concern
// (use /extract/{name}?output=xml), not a fleet one. output=spans is
// allowed — spanner members report their span relations, other members
// report empty ones.
func setOutput(r *http.Request) (outputMode, error) {
	mode, err := parseOutput(r)
	if err != nil {
		return 0, err
	}
	if mode == outXML {
		return 0, fmt.Errorf("output xml is not supported here (use /extract/{name}?output=xml)")
	}
	return mode, nil
}

// setResultItem renders one wrapper's SetResult through the encoder
// table. Wrapper failures are isolated: an "error" field on the
// failing wrapper's entry, never an HTTP error for the whole document.
func setResultItem(res mdlog.SetResult, mode outputMode) map[string]any {
	item := map[string]any{"wrapper": res.Name}
	if res.Err != nil {
		item["error"] = res.Err.Error()
		return item
	}
	enc := encoders[mode]
	item[enc.field] = enc.value(res)
	return item
}

// setItems renders every wrapper's SetResult for one document.
func setItems(results []mdlog.SetResult, mode outputMode) []map[string]any {
	items := make([]map[string]any, len(results))
	for i, res := range results {
		items[i] = setResultItem(res, mode)
	}
	return items
}

// handleExtractAll parses the request body once and runs EVERY
// registered wrapper over it in one fused QuerySet pass — the
// many-wrappers-one-page shape: the base relations are grounded once
// and auxiliary chains shared between wrappers are evaluated once.
func (s *Server) handleExtractAll(w http.ResponseWriter, r *http.Request) {
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
	if set == nil {
		writeJSON(w, http.StatusOK, map[string]any{"wrappers": 0, "fused": 0, "results": []any{}})
		return
	}
	s.documents.Add(1)
	doc, ok := s.readDoc(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"wrappers": set.Len(),
		"fused":    set.FusedLen(),
		"results":  setItems(set.Run(r.Context(), doc), mode),
	})
}

// handleBatchAll is /batchall: the batch envelope of /batch, every
// registered wrapper per document, one fused pass per document, fanned
// across the worker pool through the same lane as /batch. Each
// document's item carries a "results" array of per-wrapper entries;
// wrapper-level failures surface inside it. An empty registry still
// yields one entry per document (with empty results, no parse), so
// the response always has the one-entry-per-document shape of /batch.
func (s *Server) handleBatchAll(w http.ResponseWriter, r *http.Request) {
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
	req, ndjson, ok := s.decodeBatch(w, r)
	if !ok {
		return
	}
	f := func(context.Context, batchDoc) (map[string]any, error) {
		return map[string]any{"results": []any{}}, nil
	}
	if set != nil {
		f = s.onTree(func(ctx context.Context, t *mdlog.Tree) (map[string]any, error) {
			return map[string]any{"results": setItems(set.Run(ctx, t), mode)}, nil
		})
	}
	s.emitBatch(w, ndjson, req.Docs, s.runBatch(r.Context(), req.Docs, f), func(items []map[string]any) map[string]any {
		return map[string]any{"results": items}
	})
}

// ---------------------------------------------------------------------
// Small helpers.

// nonNil keeps empty selections as [] rather than null on the wire.
func nonNil(ids []int) []int {
	if ids == nil {
		return []int{}
	}
	return ids
}

func assignJSON(a mdlog.Assignment) map[string][]int {
	m := make(map[string][]int, len(a))
	for pat, ids := range a {
		m[pat] = nonNil(ids)
	}
	return m
}

// clientErrStatus maps a document-read failure: the client's body was
// unreadable or over the size cap.
func clientErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// evalErrStatus maps an evaluation failure: cancellation came from the
// client; anything else is the wrapper's (i.e. our) problem.
func evalErrStatus(err error) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return 499 // client closed request (nginx convention)
	}
	return http.StatusUnprocessableEntity
}
