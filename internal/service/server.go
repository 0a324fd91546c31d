// Package service is the wrapper-serving layer of mdlog: a long-running
// HTTP daemon (cmd/mdlogd) that holds a concurrent registry of named
// compiled wrappers — any of the seven query languages, span-extracting
// spanners included — and serves extraction over them.
//
// Endpoints (all request/response bodies JSON unless noted):
//
//	PUT    /wrappers/{name}   compile and (re)register a wrapper
//	GET    /wrappers          list registered wrappers
//	GET    /wrappers/{name}   one wrapper, including its source
//	DELETE /wrappers/{name}   unregister
//	POST   /extract/{name}    body = raw HTML;
//	                          ?output=nodes|assign|xml|spans
//	POST   /batch/{name}      body = {"docs":[{"id","html"},...]};
//	                          ?output=nodes|assign|xml|spans
//	                          &format=json|ndjson
//	POST   /extractall        body = raw HTML; every registered wrapper
//	                          in one fused pass;
//	                          ?output=nodes|assign|spans
//	POST   /batchall          batch form of /extractall (one parse per
//	                          document, all wrappers, fused);
//	                          ?output=nodes|assign|spans
//	                          &format=json|ndjson
//	PUT    /documents/{id}    body = raw HTML; open (or replace) a live
//	                          document session
//	GET    /documents         list live document sessions
//	GET    /documents/{id}    session state + incremental counters
//	PATCH  /documents/{id}    body = {"ops":[...]}; edit the live
//	                          document (insert/remove/settext/setattr)
//	DELETE /documents/{id}    close the session, releasing its state
//	POST   /documents/{id}/extractall
//	                          every registered wrapper over the live
//	                          document, incrementally maintained;
//	                          ?output=nodes|assign
//	GET    /stats             per-wrapper query + cache stats, totals
//	GET    /metrics           the same as Prometheus text format
//	GET    /healthz           liveness
//
// A document POSTed to /extract streams through mdlog.ParseHTMLReader
// directly into the arena pipeline; /batch fans its documents across
// the mdlog.Runner worker pool with per-document error isolation.
// Admission is bounded (Config.MaxInFlight) and every handler honors
// request-context cancellation; Serve shuts down gracefully when its
// context is canceled.
package service

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	mdlog "mdlog"
)

// Server is the wrapper-serving daemon: a registry plus HTTP handlers,
// a bounded-admission gate, and service-level counters. Create with
// New; all methods are safe for concurrent use.
type Server struct {
	reg     *Registry
	runner  mdlog.Runner
	maxBody int64
	grace   time.Duration
	sem     chan struct{}
	maxIn   int
	mux     *http.ServeMux
	started time.Time
	// defaultOpt is the daemon-wide optimization level applied to
	// wrapper specs that leave theirs empty ("" means library default,
	// i.e. full optimization).
	defaultOpt string
	// defaultEngine is the daemon-wide evaluation engine applied to
	// wrapper specs that leave theirs empty ("" means library default,
	// i.e. the bitmap engine).
	defaultEngine string

	// Persistence (nil without a data dir): the registry snapshot on
	// disk, rewritten after every successful wrapper mutation and
	// re-read by Reload on SIGHUP.
	store       *Store
	storeSaves  atomic.Int64
	storeErrors atomic.Int64
	reloads     atomic.Int64

	// Content-hash document dedup cache (nil when disabled).
	docs *docCache

	// Shard-ownership guard (-shard-of i/n): shardN == 0 means off.
	shardRing      *Ring
	shardIdx       int
	shardN         int
	shardMisrouted atomic.Int64

	inFlight  atomic.Int64
	rejected  atomic.Int64
	requests  [endpoints]atomic.Int64
	documents atomic.Int64
	docErrors atomic.Int64

	// Live document sessions (PUT/PATCH/DELETE /documents/{id}).
	sessions        *sessionStore
	sessionRejected atomic.Int64
	sessionEdits    atomic.Int64

	// The fused QuerySet over every registered wrapper, serving
	// /extractall and /batchall. Rebuilt lazily whenever the registry
	// generation moves — registrations are rare, extractions are not.
	setMu  sync.Mutex
	setGen int64
	set    *mdlog.QuerySet
}

// endpoint indexes the per-endpoint request counters.
type endpoint int

const (
	epExtract endpoint = iota
	epBatch
	epExtractAll
	epBatchAll
	epWrappers
	epDocuments
	epStats
	epMetrics
	endpoints
)

func (e endpoint) String() string {
	switch e {
	case epExtract:
		return "extract"
	case epBatch:
		return "batch"
	case epExtractAll:
		return "extractall"
	case epBatchAll:
		return "batchall"
	case epWrappers:
		return "wrappers"
	case epDocuments:
		return "documents"
	case epStats:
		return "stats"
	case epMetrics:
		return "metrics"
	}
	return "other"
}

// Connection-level timeouts for Serve (see the http.Server fields in
// Serve for why each exists). Not config knobs: they bound protocol
// abuse, not workload shape.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 60 * time.Second
	idleTimeout       = 120 * time.Second
)

// New builds a Server from cfg (nil means all defaults), compiling and
// registering the configured wrappers. A wrapper that fails to compile
// fails the boot — a daemon that silently drops wrappers would serve
// 404s where traffic expects extractions.
func New(cfg *Config) (*Server, error) {
	if cfg == nil {
		cfg = &Config{}
	}
	s := &Server{
		reg:     NewRegistry(),
		runner:  mdlog.Runner{Workers: cfg.Workers},
		maxBody: cfg.MaxBodyBytes,
		grace:   time.Duration(cfg.ShutdownGraceMS) * time.Millisecond,
		maxIn:   cfg.MaxInFlight,
		started: time.Now(),
	}
	if s.maxBody == 0 {
		s.maxBody = DefaultMaxBodyBytes
	}
	if s.grace == 0 {
		s.grace = DefaultShutdownGraceMS * time.Millisecond
	}
	if s.maxIn == 0 {
		s.maxIn = DefaultMaxInFlight
	}
	if s.maxIn > 0 {
		s.sem = make(chan struct{}, s.maxIn)
	}
	maxSessions := cfg.MaxSessions
	if maxSessions == 0 {
		maxSessions = DefaultMaxSessions
	}
	sessionIdle := time.Duration(cfg.SessionIdleMS) * time.Millisecond
	if sessionIdle == 0 {
		sessionIdle = DefaultSessionIdleMS * time.Millisecond
	}
	s.sessions = newSessionStore(maxSessions, sessionIdle)
	if cfg.Opt != "" {
		if _, err := mdlog.ParseOptLevel(cfg.Opt); err != nil {
			return nil, err
		}
		s.defaultOpt = cfg.Opt
	}
	if cfg.Engine != "" {
		if _, err := mdlog.ParseEngineFlag(cfg.Engine); err != nil {
			return nil, err
		}
		s.defaultEngine = cfg.Engine
	}
	if entries := cfg.DocCacheEntries; entries >= 0 {
		if entries == 0 {
			entries = DefaultDocCacheEntries
		}
		s.docs = newDocCache(entries)
	}
	if cfg.ShardOf != "" {
		idx, n, err := ParseShardOf(cfg.ShardOf)
		if err != nil {
			return nil, err
		}
		s.shardIdx, s.shardN = idx, n
		s.shardRing = NewRing(n, cfg.RingReplicas)
	}
	// Persistence: the store snapshot is the daemon's runtime state and
	// loads first; config wrappers only seed names the store does not
	// already hold. A corrupt snapshot fails the boot (see Store.Load).
	if cfg.DataDir != "" {
		st, err := OpenStore(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		stored, err := st.Load()
		if err != nil {
			return nil, err
		}
		for _, sw := range stored {
			q, err := s.withDefaults(sw.Spec).Compile()
			if err != nil {
				return nil, fmt.Errorf("service: stored wrapper %q: %w", sw.Name, err)
			}
			s.reg.Install(&Wrapper{Name: sw.Name, Spec: sw.Spec, Query: q, Version: sw.Version, Registered: sw.Registered})
		}
		s.store = st
	}
	for _, cw := range cfg.Wrappers {
		// LoadConfig inlines File into Source; a File surviving to here
		// means the caller skipped that resolution, and an entry with
		// neither would "compile" an empty program and serve 422s.
		if cw.File != "" {
			return nil, fmt.Errorf("service: wrapper %q has an unresolved file reference %q (use LoadConfig)", cw.Name, cw.File)
		}
		if cw.Source == "" {
			return nil, fmt.Errorf("service: wrapper %q has neither source nor file", cw.Name)
		}
		if _, ok := s.reg.Get(cw.Name); ok && s.store != nil {
			continue // the persisted runtime entry wins over the boot seed
		}
		if _, _, err := s.reg.Register(cw.Name, s.withDefaults(cw.WrapperSpec)); err != nil {
			return nil, err
		}
	}
	if s.store != nil {
		// Write the merged boot state back, so the snapshot exists from
		// the first boot on and restart round-trips even before the
		// first HTTP mutation.
		if err := s.persist(); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// withDefaults fills spec fields the daemon configures globally (the
// optimization level and the evaluation engine) when the spec leaves
// them empty.
func (s *Server) withDefaults(spec WrapperSpec) WrapperSpec {
	if spec.Opt == "" {
		spec.Opt = s.defaultOpt
	}
	if spec.Engine == "" {
		spec.Engine = s.defaultEngine
	}
	return spec
}

// Registry exposes the server's wrapper registry (e.g. for boot-time
// checks or tests).
func (s *Server) Registry() *Registry { return s.reg }

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.counted(epStats, s.handleStats))
	s.mux.HandleFunc("GET /metrics", s.counted(epMetrics, s.handleMetrics))
	s.mux.HandleFunc("GET /wrappers", s.counted(epWrappers, s.handleListWrappers))
	s.mux.HandleFunc("PUT /wrappers/{name}", s.counted(epWrappers, s.handlePutWrapper))
	s.mux.HandleFunc("GET /wrappers/{name}", s.counted(epWrappers, s.handleGetWrapper))
	s.mux.HandleFunc("DELETE /wrappers/{name}", s.counted(epWrappers, s.handleDeleteWrapper))
	s.mux.HandleFunc("POST /extract/{name}", s.admitted(epExtract, s.handleExtract))
	s.mux.HandleFunc("POST /batch/{name}", s.admitted(epBatch, s.handleBatch))
	s.mux.HandleFunc("POST /extractall", s.admitted(epExtractAll, s.handleExtractAll))
	s.mux.HandleFunc("POST /batchall", s.admitted(epBatchAll, s.handleBatchAll))
	s.mux.HandleFunc("PUT /documents/{id}", s.admitted(epDocuments, s.handlePutDocument))
	s.mux.HandleFunc("GET /documents", s.counted(epDocuments, s.handleListDocuments))
	s.mux.HandleFunc("GET /documents/{id}", s.counted(epDocuments, s.handleGetDocument))
	s.mux.HandleFunc("PATCH /documents/{id}", s.admitted(epDocuments, s.handlePatchDocument))
	s.mux.HandleFunc("DELETE /documents/{id}", s.counted(epDocuments, s.handleDeleteDocument))
	s.mux.HandleFunc("POST /documents/{id}/extractall", s.admitted(epExtractAll, s.handleSessionExtractAll))
}

// querySet returns the fused QuerySet over the current registry
// contents, rebuilding it only when the registry has changed since the
// last call. Returns a nil set when no wrappers are registered.
func (s *Server) querySet() (*mdlog.QuerySet, error) {
	gen := s.reg.Gen()
	s.setMu.Lock()
	defer s.setMu.Unlock()
	if s.set != nil && s.setGen == gen {
		return s.set, nil
	}
	ws := s.reg.Snapshot()
	if len(ws) == 0 {
		s.set, s.setGen = nil, gen
		return nil, nil
	}
	members := make([]mdlog.NamedQuery, len(ws))
	for i, w := range ws {
		members[i] = mdlog.NamedQuery{Name: w.Name, Query: w.Query}
	}
	set, err := mdlog.NewNamedQuerySet(members...)
	if err != nil {
		return nil, err
	}
	s.set, s.setGen = set, gen
	return set, nil
}

// Handler returns the daemon's HTTP handler (e.g. for httptest or an
// embedding server).
func (s *Server) Handler() http.Handler { return s.mux }

// counted wraps a handler with its endpoint request counter.
func (s *Server) counted(ep endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests[ep].Add(1)
		h(w, r)
	}
}

// admitted is counted plus the bounded-admission gate: when MaxInFlight
// extraction requests are already running, the request is rejected
// immediately with 503 + Retry-After rather than queued — under
// overload the daemon sheds load instead of accumulating latency.
func (s *Server) admitted(ep endpoint, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests[ep].Add(1)
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.rejected.Add(1)
				unavailable(w, 1, "server at capacity")
				return
			}
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		h(w, r)
	}
}

// Serve accepts connections on ln until ctx is canceled, then shuts
// down gracefully: in-flight requests get the configured grace window
// to finish, after which their request contexts are canceled so
// lingering fan-outs stop promptly. It returns nil on a clean
// shutdown.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return serveHandler(ctx, ln, s.Handler(), s.grace)
}

// serveHandler is the shared serve loop of the worker daemon and the
// shard-mode front tier: accept until ctx cancels, then drain within
// grace before canceling lingering request contexts.
func serveHandler(ctx context.Context, ln net.Listener, h http.Handler, grace time.Duration) error {
	reqCtx, cancelReqs := context.WithCancel(context.Background())
	defer cancelReqs()
	hs := &http.Server{
		Handler:     h,
		BaseContext: func(net.Listener) context.Context { return reqCtx },
		// Slow-client bounds: admission slots are held while a request
		// body streams in, so a client must present headers and finish
		// its body within fixed windows or its slot is reclaimed —
		// otherwise a trickle of half-open POSTs would pin MaxInFlight
		// and defeat the load shedding. No WriteTimeout: NDJSON batch
		// responses legitimately stream for a long time.
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err // listener failure; never ErrServerClosed here
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := hs.Shutdown(sctx)
	cancelReqs()
	if serr := <-serveErr; serr != http.ErrServerClosed {
		return serr
	}
	return err
}

// ListenAndServe is Serve on a fresh TCP listener bound to addr
// (DefaultAddr if empty).
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	if addr == "" {
		addr = DefaultAddr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}
