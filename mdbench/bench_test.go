package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchFile is BENCHMARK.json at the repository root.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricsMatchBenchmarkFile keeps the program's metric tables and
// BENCHMARK.json naming the same metrics with the same units.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchFile(t)
	for _, c := range []struct {
		file []metricSpec
		prog []metricDef
	}{{bf.EndToEnd, endToEnd}, {bf.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.prog))
		}
		for i := range min(len(c.file), len(c.prog)) {
			if c.file[i].Name != c.prog[i].name || c.file[i].Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
					i, c.file[i].Name, c.file[i].Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if want := sortedKeys(workloads); !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
}

// TestManifestHashFollowsSeed checks that inputs are a function of the
// seed: the same seed gives the same manifest hash, another seed a
// different one.
func TestManifestHashFollowsSeed(t *testing.T) {
	hash := func(workload string, seed int64) string {
		b, err := workloads[workload](options{workload: workload, seed: seed, scale: tinyScale})
		if err != nil {
			t.Fatal(err)
		}
		defer b.close()
		return b.manifestOf().hash()
	}
	for _, w := range sortedKeys(workloads) {
		a, again, other := hash(w, 1), hash(w, 1), hash(w, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave manifest hashes %s and %s", w, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same manifest hash", w)
		}
	}
}

// timeUnits are the units of timed metrics, which every run must
// measure rather than leave at zero.
var timeUnits = map[string]bool{"s": true, "ms": true, "ns/node": true, "ns/op": true, "ns/row": true}

// TestSmoke runs every workload at a tiny size, untraced and traced: no
// operation may fail, every metric of BENCHMARK.json must be reported,
// and the traced runs together must record a span in every layer.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchFile(t)
	layers := map[string]bool{}
	for _, w := range sortedKeys(workloads) {
		for _, trace := range []bool{false, true} {
			o := options{workload: w, seed: 7, seconds: 0.5, trace: trace, results: t.TempDir(), scale: tinyScale}
			res, err := runWorkload(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			s := res.Summary
			if s.Attempted == 0 || s.Failed != 0 || !s.Correct {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, trace, s.Failed, s.Attempted, res.Failures)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			for _, m := range want {
				got, ok := s.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s", w, trace, m.Name, m.Unit)
				}
				if !trace && got.Value <= 0 || trace && timeUnits[m.Unit] && got.Value == 0 {
					t.Errorf("%s trace=%v: metric %s = %v, want a measured value", w, trace, m.Name, got.Value)
				}
			}
			for l := range res.SelfTimeMs {
				layers[l] = true
			}
		}
	}
	for _, l := range []string{"html", "tree", "eval", "opt", "elog", "xpath", "mso", "caterpillar", "span", "datalog", "mdlog", "service"} {
		if !layers[l] {
			t.Errorf("no traced run recorded a span in layer %s", l)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
