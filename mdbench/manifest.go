package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// manifest describes a run's generated inputs; its hash identifies them.
type manifest struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Pages    []pageClass `json:"pages"`
	// Requests shares over the first manifestOps operations of the
	// seeded stream (crawl).
	Requests map[string]float64 `json:"requests,omitempty"`
	// EditBatches is the histogram of PATCH batch sizes in ops over the
	// first manifestOps steps of the edit script (live-edit).
	EditBatches map[string]int `json:"edit_batches,omitempty"`
	// Variants counts churn replacements by kind over the first
	// manifestOps iterations (registry-churn).
	Variants map[string]int `json:"variants,omitempty"`
	// Fleet is the served fleet by language; NearDuplicates counts its
	// members that are equivalent to another member.
	Fleet          map[string]int `json:"fleet"`
	NearDuplicates int            `json:"near_duplicates"`
	// Inputs is a digest of every generated byte the daemon will see
	// (page sources, stream choices, edit ops, wrapper sources).
	Inputs string `json:"inputs_sha256"`
}

// pageClass is one size class × generator of generated pages.
type pageClass struct {
	Class     string `json:"class"`
	Generator string `json:"generator"`
	Pages     int    `json:"pages"`
	Nodes     int    `json:"nodes"`
}

// manifestOps is how many stream operations the manifest summarizes.
const manifestOps = 2000

func (m manifest) hash() string {
	b, _ := json.Marshal(m) // a struct of plain fields always marshals
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// environment records where a result was measured.
type environment struct {
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				env.Dirty = s.Value == "true"
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// digest accumulates the manifest's input hash.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(parts ...string) {
	for _, p := range parts {
		d.h.Write([]byte(p))
		d.h.Write([]byte{0})
	}
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil)) }
