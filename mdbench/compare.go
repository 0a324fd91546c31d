package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain prints, for each workload × metric, both sides' median and
// quartiles and a verdict: better or worse by more than the metric's
// bound, within bound, or unresolved when either side's spread (the
// distance between quartiles as a share of the median) exceeds the
// bound. Metrics without a bound get no verdict.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("mdbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mdbench compare [--bench BENCHMARK.json] BASE_DIR HEAD_DIR")
		return 2
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdbench compare:", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "mdbench compare: decoding", *specPath+":", err)
		return 1
	}
	base, err := loadResults(fs.Arg(0))
	if err == nil && len(base) == 0 {
		err = fmt.Errorf("no result files in %s", fs.Arg(0))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdbench compare:", err)
		return 1
	}
	head, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdbench compare:", err)
		return 1
	}
	bounds := map[string]float64{}
	lowerBetter := map[string]bool{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
		lowerBetter[m.Name] = m.Better == "lower"
	}
	fmt.Fprintf(stdout, "%-16s %-36s %28s %28s %8s  %s\n", "workload", "metric", "base median [q1,q3] spread", "head median [q1,q3] spread", "change", "verdict")
	for _, key := range sortedKeys(base) {
		for _, name := range sortedKeys(base[key]) {
			a, h := base[key][name], head[key][name]
			bound, hasBound := bounds[name]
			verdict := "no bound"
			if hasBound {
				verdict = judge(a, h, bound, lowerBetter[name])
			}
			fmt.Fprintf(stdout, "%-16s %-36s %28s %28s %8s  %s\n", key, name, describe(a), describe(h), change(a, h), verdict)
		}
	}
	return 0
}

// loadResults reads every result file in dir, grouped by workload (with
// a "+trace" suffix for traced runs) and metric.
func loadResults(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		key := rf.Workload
		if rf.Trace {
			key += "+trace"
		}
		if out[key] == nil {
			out[key] = map[string][]float64{}
		}
		for name, m := range rf.Summary.Metrics {
			out[key][name] = append(out[key][name], m.Value)
		}
	}
	return out, nil
}

// quartiles computes the three quartiles the way Python's
// statistics.quantiles(xs, n=4) does (its default exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g,%.4g] %4.1f%%", q2, q1, q3, 100*spread(xs))
}

func change(a, h []float64) string {
	_, ma, _ := quartiles(a)
	_, mh, _ := quartiles(h)
	if len(a) == 0 || len(h) == 0 || ma == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(mh-ma)/ma)
}

// judge compares head against base under a relative bound.
func judge(a, h []float64, bound float64, lowerBetter bool) string {
	if len(a) == 0 || len(h) == 0 {
		return "missing"
	}
	if spread(a) > bound || spread(h) > bound {
		return "unresolved"
	}
	_, ma, _ := quartiles(a)
	_, mh, _ := quartiles(h)
	if ma == 0 {
		return "unresolved"
	}
	rel := (mh - ma) / ma
	if lowerBetter {
		rel = -rel
	}
	switch {
	case rel < -bound:
		return "worse"
	case rel > bound:
		return "better"
	}
	return "within bound"
}
