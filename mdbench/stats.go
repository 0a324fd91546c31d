package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// runtimeSample is a point-in-time read of the Go runtime counters the
// benchmark reports as deltas.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauseSec   float64
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ms[i].Name = k
	}
	metrics.Read(ms)
	var rs runtimeSample
	if ms[0].Value.Kind() == metrics.KindUint64 {
		rs.allocBytes = ms[0].Value.Uint64()
	}
	if ms[1].Value.Kind() == metrics.KindUint64 {
		rs.gcCycles = ms[1].Value.Uint64()
	}
	if ms[2].Value.Kind() == metrics.KindFloat64Histogram {
		rs.pauseSec = histSum(ms[2].Value.Float64Histogram())
	}
	return rs
}

// histSum estimates the total of a runtime/metrics histogram from its
// bucket midpoints (the runtime exposes pause times only as buckets).
func histSum(h *metrics.Float64Histogram) float64 {
	sum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// retainedHeapMB forces a collection and reports the live heap: what
// the daemon keeps between requests (doc cache, memos, sessions) plus
// the benchmark's own inputs and references.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
