// Command mdbench is the repository's benchmark. It boots mdlogd
// in-process, drives one seeded workload against it over loopback HTTP
// in a closed loop, checks every response against references computed
// by an independent path, and prints every metric by name with its
// unit. The last line of standard output is the run's result as JSON.
//
//	bash mdbench/run.sh --workload crawl --seed 1 --seconds 30 --trace 0
//	bash mdbench/run.sh compare RESULTS_DIR_A RESULTS_DIR_B
//
// Workloads: crawl, live-edit, registry-churn (see README.md). With
// --trace 1 the run is followed by a traced replay of the same inputs
// that reports the per-layer metrics instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// bench is one workload after setup: a booted daemon with its fleet
// registered, inputs generated, references computed and warm-up done.
type bench interface {
	// run drives the closed loop for the given seconds and checks every
	// response.
	run(seconds float64) runStats
	// trace replays the first ops operations of the same inputs (for at
	// most seconds) with spans on, returning the per-layer metrics.
	trace(tr *tracer, ops int, seconds float64) (traceStats, error)
	daemon() *daemon
	manifestOf() manifest
	counts() (attempted, failed int)
	failures() []string
	close()
}

// runStats is what the untraced closed loop measured.
type runStats struct {
	ops      []time.Duration // one closed-loop iteration each
	extracts []time.Duration // extraction requests only
	nodes    int64           // document nodes of completed extractions
	wall     time.Duration
}

// traceStats is what a traced replay measured.
type traceStats struct {
	ops   []time.Duration // HTTP part of each replayed iteration
	layer map[string]float64
}

var workloads = map[string]func(options) (bench, error){
	"crawl":          setupCrawl,
	"live-edit":      setupLiveEdit,
	"registry-churn": setupChurn,
}

// scale sizes the generated inputs; tinyScale is for the smoke test.
type scale struct {
	nodes      [3]int // crawl size classes
	mix        [3]int // crawl pages per size class in each stratified block
	bases      [3]int // distinct base pages per class
	liveNodes  int
	churnNodes int
	churnFleet int
	setups     int // setups per run; setup_s is their median
}

var (
	fullScale = scale{nodes: [3]int{1000, 10000, 100000}, mix: [3]int{40, 10, 0}, bases: [3]int{8, 4, 0},
		liveNodes: 10000, churnNodes: 1000, churnFleet: 24, setups: 3}
	tinyScale = scale{nodes: [3]int{100, 300, 1000}, mix: [3]int{14, 5, 1}, bases: [3]int{2, 2, 2},
		liveNodes: 2000, churnNodes: 200, churnFleet: 16, setups: 1}
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	results  string
	scale    scale
}

// memoryLimit is the soft heap limit every run uses.
const memoryLimit = 1 << 30

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"extract_p50_ms", "ms"},
	{"extract_p99_ms", "ms"},
	{"op_p50_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"mnodes_per_s", "Mnodes/s"},
	{"retained_heap_mb", "MB"},
}

var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{n, unit})
		}
	}
	for _, c := range classNames {
		add("ns/node", "html.parse_ns_per_node."+c, "eval.materialize_ns_per_node."+c, "eval.engine_ns_per_node."+c)
	}
	add("ratio", "service.doccache.hit_ratio")
	add("count", "service.doccache.evictions")
	add("ms", "service.overhead_ms.p50", "service.encode_ms.p50")
	add("count", "service.rejected")
	add("ratio", "eval.treecache.hit_ratio")
	add("ns/node", "eval.treedb_ns_per_node.1k", "eval.treedb_ns_per_node.100k")
	add("ms", "eval.incremental.run_ms.small", "eval.incremental.run_ms.large")
	add("ratio", "eval.incremental.vs_full.small", "eval.incremental.vs_full.large")
	add("count", "eval.incremental.overdeleted", "eval.incremental.rederived", "eval.incremental.fallbacks")
	add("ratio", "eval.incremental.rederive_ratio")
	add("ns/op", "tree.mutate_ns_per_op")
	add("count", "mdlog.queryset.fused_members", "mdlog.queryset.subsumed_members", "mdlog.queryset.fused_rules")
	add("rows", "span.rows_per_request")
	add("ns/row", "span.enum_ns_per_row")
	for _, l := range compileLangs {
		add("ms", "opt.compile_ms."+l)
	}
	add("ms", "opt.fuse_ms", "opt.subsume.check_ms")
	add("count", "opt.cse_preds", "opt.subsumed_preds")
	add("ratio", "opt.subsume.decided_ratio")
	add("states", "mso.dta_states")
	add("B/node", "runtime.alloc_bytes_per_node")
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")
	add("ratio", "trace.overhead_frac")
	return out
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the contract line printed last.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// resultFile is the self-describing record of one run.
type resultFile struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Trace        bool               `json:"trace"`
	Seconds      float64            `json:"seconds"`
	Manifest     manifest           `json:"manifest"`
	ManifestHash string             `json:"manifest_sha256"`
	Environment  environment        `json:"environment"`
	Samples      map[string]int     `json:"samples"`
	Summary      summary            `json:"summary"`
	PeakRSSMB    float64            `json:"peak_rss_mb"`
	SelfTimeMs   map[string]float64 `json:"layer_self_ms,omitempty"`
	Failures     []string           `json:"failures,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mdbench", flag.ContinueOnError)
	o := options{scale: fullScale}
	fs.StringVar(&o.workload, "workload", "", "crawl, live-edit or registry-churn")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long the closed loop measures")
	traceFlag := fs.Int("trace", 0, "1: also replay the inputs traced and report per-layer metrics")
	fs.StringVar(&o.results, "results", filepath.Join(".bench_build", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag != 0
	// A soft limit keeps a run's footprint bounded on a shared host: a
	// fused pass over a ~100k-node probe page briefly holds several
	// hundred MB on top of crawl's doc cache.
	debug.SetMemoryLimit(memoryLimit)
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdbench:", err)
		return 1
	}
	for _, d := range metricList(o.trace) {
		fmt.Fprintf(stdout, "%-40s %14.6g %s\n", d.name, res.Summary.Metrics[d.name].Value, d.unit)
	}
	if err := writeResult(o, res); err != nil {
		fmt.Fprintln(os.Stderr, "mdbench:", err)
		return 1
	}
	line, err := json.Marshal(res.Summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func metricList(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runWorkload sets the workload up several times (setup_s is the
// median), runs the untraced closed loop, and with o.trace replays the
// inputs traced.
func runWorkload(o options) (*resultFile, error) {
	setup, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want crawl, live-edit or registry-churn)", o.workload)
	}
	var b bench
	var setups []float64
	for i := 0; i < o.scale.setups; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = setup(o); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer b.close()

	rt0 := readRuntime()
	rs := b.run(o.seconds)
	rt1 := readRuntime()
	heap := retainedHeapMB()
	if len(rs.ops) == 0 {
		return nil, fmt.Errorf("%s: no operation completed", o.workload)
	}
	opsMs, extMs := msOf(rs.ops), msOf(rs.extracts)
	e2e := map[string]float64{
		"setup_s":          median(setups),
		"extract_p50_ms":   quantile(extMs, 0.50),
		"extract_p99_ms":   quantile(extMs, 0.99),
		"op_p50_ms":        quantile(opsMs, 0.50),
		"op_p99_ms":        quantile(opsMs, 0.99),
		"ops_per_s":        float64(len(rs.ops)) / rs.wall.Seconds(),
		"mnodes_per_s":     float64(rs.nodes) / 1e6 / rs.wall.Seconds(),
		"retained_heap_mb": heap,
	}
	res := &resultFile{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
		Manifest: b.manifestOf(), Environment: currentEnvironment(),
		Samples: map[string]int{"ops": len(rs.ops), "extracts": len(rs.extracts)},
	}
	res.ManifestHash = res.Manifest.hash()
	values := e2e
	if o.trace {
		tr := newTracer()
		ts, err := b.trace(tr, len(rs.ops), o.seconds)
		if err != nil {
			return nil, fmt.Errorf("%s traced replay: %w", o.workload, err)
		}
		values = ts.layer
		if err := fillProbes(tr, o.seed, o.scale, values); err != nil {
			return nil, fmt.Errorf("%s layer probes: %w", o.workload, err)
		}
		cs := b.daemon().srv.DocCacheStats()
		if lookups := cs.Hits + cs.Misses; lookups > 0 {
			values["service.doccache.hit_ratio"] = float64(cs.Hits) / float64(lookups)
		}
		values["service.doccache.evictions"] = float64(cs.Evictions)
		rej, err := b.daemon().rejected()
		if err != nil {
			return nil, err
		}
		values["service.rejected"] = rej
		if rs.nodes > 0 {
			values["runtime.alloc_bytes_per_node"] = float64(rt1.allocBytes-rt0.allocBytes) / float64(rs.nodes)
		}
		values["runtime.gc_cycles"] = float64(rt1.gcCycles - rt0.gcCycles)
		values["runtime.gc_pause_ms"] = (rt1.pauseSec - rt0.pauseSec) * 1e3
		if len(ts.ops) > 0 {
			values["trace.overhead_frac"] = median(msOf(ts.ops)) / e2e["op_p50_ms"]
		}
		res.Samples["traced_ops"] = len(ts.ops)
		res.SelfTimeMs = map[string]float64{}
		for l, d := range tr.selfTimes() {
			res.SelfTimeMs[l] = float64(d) / 1e6
		}
		if err := os.MkdirAll(o.results, 0o755); err != nil {
			return nil, err
		}
		if err := tr.write(resultPath(o, ".spans.jsonl")); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	attempted, failed := b.counts()
	res.Failures = b.failures()
	res.Summary = summary{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range metricList(o.trace) {
		res.Summary.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}

func resultPath(o options, suffix string) string {
	return filepath.Join(o.results, fmt.Sprintf("%s-seed%d-trace%d%s", o.workload, o.seed, btoi(o.trace), suffix))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeResult(o options, res *resultFile) error {
	if err := os.MkdirAll(o.results, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(resultPath(o, ".json"), append(b, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
