package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesBenchmarkJSON keeps the metric and workload lists in the
// code in step with BENCHMARK.json. The code may hold workloads that
// BENCHMARK.json does not list (README.md, "Workloads").
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	check := func(kind string, got []metricSpec, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(want), len(got))
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s [%s], the code %s [%s]",
					kind, i, want[i].Name, want[i].Unit, got[i].name, got[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, s.EndToEnd)
	check("per_layer", perLayer, s.PerLayer)
}

// TestEveryWorkloadSmoke runs every workload at smoke size, untraced and
// traced: each declared metric must come out with its unit, and every
// answer check must pass.
func TestEveryWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	work := t.TempDir() // shared: the serve workloads reuse one reference
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				o := options{workload: w.name, seed: 7, seconds: 1, trace: trace,
					root: "..", work: work, smoke: true}
				res, rec, err := execute(o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("answer checks failed: %d of %d: %v", res.Failed, res.Attempted, rec["failures"])
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v, want unit %s", s.name, m, s.unit)
					}
				}
				if !trace {
					for _, s := range endToEnd {
						if res.Metrics[s.name].Value <= 0 {
							t.Errorf("end-to-end metric %s is %v; it must never be 0", s.name, res.Metrics[s.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestQuartilesMatchPython pins the summary spread to the one the bounds
// are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("got %v %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("got %v %v", q1, q3)
	}
}
