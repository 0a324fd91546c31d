package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	mdlog "mdlog"
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	// DefaultAddr is the listen address mdlogd binds without -addr or
	// an "addr" config entry.
	DefaultAddr = ":8090"
	// DefaultMaxInFlight bounds concurrently admitted extraction
	// requests (extract + batch); excess requests are rejected with
	// 503 instead of queuing without bound.
	DefaultMaxInFlight = 64
	// DefaultMaxBodyBytes bounds one request body (a document, or a
	// whole batch envelope).
	DefaultMaxBodyBytes = 32 << 20
	// DefaultShutdownGraceMS is how long Serve waits for in-flight
	// requests after its context is canceled.
	DefaultShutdownGraceMS = 5000
	// DefaultMaxSessions bounds live document sessions; at capacity a
	// PUT /documents/{id} reclaims the least-recently-used idle session
	// or is shed with 503.
	DefaultMaxSessions = 64
	// DefaultSessionIdleMS is how long a session must sit unused before
	// the capacity policy may reclaim it.
	DefaultSessionIdleMS = 60_000
	// DefaultDocCacheEntries bounds the content-hash document dedup
	// cache (distinct parsed documents kept live).
	DefaultDocCacheEntries = 256
)

// Config is mdlogd's boot configuration (JSON on disk; see
// LoadConfig). The zero value is usable: every field has a default.
type Config struct {
	// Addr is the host:port to listen on (DefaultAddr if empty).
	Addr string `json:"addr,omitempty"`
	// Workers bounds the batch fan-out worker pool (≤ 0: GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// MaxInFlight bounds concurrently admitted extraction requests
	// (0: DefaultMaxInFlight; < 0: unbounded).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// MaxBodyBytes bounds one request body (0: DefaultMaxBodyBytes;
	// < 0: unbounded).
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty"`
	// ShutdownGraceMS is the graceful-shutdown window in milliseconds
	// (0: DefaultShutdownGraceMS).
	ShutdownGraceMS int `json:"shutdown_grace_ms,omitempty"`
	// Opt is the daemon-wide default optimization level ("0", "1",
	// "O0", "O1") applied to wrapper specs that do not set their own;
	// empty means full optimization.
	Opt string `json:"opt,omitempty"`
	// Engine is the daemon-wide default evaluation engine ("linear",
	// "bitmap", "seminaive", "naive", "lit") applied to wrapper specs
	// that do not set their own; empty means the library default,
	// bitmap. An unknown name fails the boot with an error listing the
	// valid engines.
	Engine string `json:"engine,omitempty"`
	// MaxSessions bounds live document sessions (0:
	// DefaultMaxSessions; < 0: unbounded). At capacity, PUT
	// /documents/{id} for a new id reclaims the least-recently-used
	// session idle past SessionIdleMS, or is rejected with 503.
	MaxSessions int `json:"max_sessions,omitempty"`
	// SessionIdleMS is the idle threshold for capacity reclaim in
	// milliseconds (0: DefaultSessionIdleMS).
	SessionIdleMS int `json:"session_idle_ms,omitempty"`
	// DataDir enables the persistent wrapper store: the registry
	// snapshot lives at DataDir/wrappers.json, rewritten atomically
	// after every successful wrapper mutation and re-read on SIGHUP
	// (Server.Reload). Empty means no persistence.
	DataDir string `json:"data_dir,omitempty"`
	// DocCacheEntries bounds the content-hash document dedup cache
	// (0: DefaultDocCacheEntries; < 0: cache disabled — every request
	// parses privately).
	DocCacheEntries int `json:"doc_cache_entries,omitempty"`
	// ShardOf runs the daemon as one worker of a shard fleet ("i/n",
	// 0 ≤ i < n): documents whose content hash the consistent-hash
	// ring assigns to a different worker are rejected with 421 rather
	// than silently polluting this worker's dedup cache. Empty means
	// standalone.
	ShardOf string `json:"shard_of,omitempty"`
	// RingReplicas is the consistent-hash ring's virtual-node count
	// per worker (0: DefaultRingReplicas). Front tier and workers
	// must agree on it.
	RingReplicas int `json:"ring_replicas,omitempty"`
	// Wrappers are compiled and registered at boot.
	Wrappers []ConfigWrapper `json:"wrappers,omitempty"`
}

// ConfigWrapper is one boot-time registry entry: a WrapperSpec plus
// its name and an optional source file reference.
type ConfigWrapper struct {
	// Name is the registry key ({name} in the endpoint paths).
	Name string `json:"name"`
	WrapperSpec
	// File names a file to read Source from (relative paths resolve
	// against the config file's directory). Exactly one of File and
	// Source must be set.
	File string `json:"file,omitempty"`
}

// WrapperSpec is the compilable description of a wrapper — the JSON
// body of PUT /wrappers/{name} and the inline part of a boot entry.
type WrapperSpec struct {
	// Lang is the source language ("datalog", "tmnf", "mso", "xpath",
	// "caterpillar", "elog").
	Lang mdlog.Language `json:"lang"`
	// Source is the query text in that language.
	Source string `json:"source"`
	// Pred overrides the distinguished query predicate Select reads.
	Pred string `json:"pred,omitempty"`
	// Extract restricts the predicates / patterns Wrap extracts.
	Extract []string `json:"extract,omitempty"`
	// KeepText copies #text content into wrapped output trees.
	KeepText bool `json:"keep_text,omitempty"`
	// Engine selects the evaluation engine ("linear", "bitmap",
	// "seminaive", "naive", "lit"; empty: the daemon default, which
	// itself defaults to bitmap). Only datalog-routed plans honor it;
	// an unknown name is rejected at compile time with an error
	// listing the valid engines.
	Engine string `json:"engine,omitempty"`
	// Opt sets the optimization level ("0", "1", "O0", "O1"; empty:
	// the daemon default, which itself defaults to full).
	Opt string `json:"opt,omitempty"`
}

// Compile turns the spec into a CompiledQuery (the registry's unit of
// serving).
func (ws WrapperSpec) Compile() (*mdlog.CompiledQuery, error) {
	opts := []mdlog.Option{mdlog.WithWrapOptions(mdlog.WrapOptions{KeepText: ws.KeepText})}
	if ws.Pred != "" {
		opts = append(opts, mdlog.WithQueryPred(ws.Pred))
	}
	if len(ws.Extract) > 0 {
		opts = append(opts, mdlog.WithExtract(ws.Extract...))
	}
	if ws.Engine != "" {
		e, err := mdlog.ParseEngineFlag(ws.Engine)
		if err != nil {
			return nil, err
		}
		opts = append(opts, mdlog.WithEngine(e))
	}
	if ws.Opt != "" {
		l, err := mdlog.ParseOptLevel(ws.Opt)
		if err != nil {
			return nil, err
		}
		opts = append(opts, mdlog.WithOptLevel(l))
	}
	return mdlog.Compile(ws.Source, ws.Lang, opts...)
}

// LoadConfig reads a JSON config file, rejecting unknown fields, and
// inlines every wrapper's File into its Source (relative to the
// config file's directory), so the result is self-contained.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg, err := ParseConfig(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dir := filepath.Dir(path)
	for i := range cfg.Wrappers {
		cw := &cfg.Wrappers[i]
		if cw.File == "" {
			continue
		}
		if cw.Source != "" {
			return nil, fmt.Errorf("%s: wrapper %q sets both file and source", path, cw.Name)
		}
		f := cw.File
		if !filepath.IsAbs(f) {
			f = filepath.Join(dir, f)
		}
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("wrapper %q: %w", cw.Name, err)
		}
		cw.Source = string(src)
		cw.File = ""
	}
	return cfg, nil
}

// ParseConfig decodes a JSON config document, rejecting unknown
// fields. File references are not resolved — see LoadConfig.
func ParseConfig(b []byte) (*Config, error) {
	var cfg Config
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return &cfg, nil
}
