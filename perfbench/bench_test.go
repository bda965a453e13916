package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// exactMetrics are the per-layer metrics that are counts or modelled
// outcomes: the same seed must reproduce them bit for bit. A drift is
// a determinism defect (DESIGN.md §3e), never noise to bound.
var exactMetrics = map[string][]string{
	"fig7": {"oracle.configs", "experiment.runs", "experiment.reconfigs", "experiment.stall_kcyc",
		"alloc.decides", "cost_vs_opt", "viol_pct"},
	"serve-flash": {"experiment.served", "experiment.shed", "experiment.timed_out", "experiment.max_queue",
		"experiment.starved", "guard.tail_trips", "alloc.decides", "workload.arrivals",
		"lat_p99_kcyc", "slo_viol_min", "shed_pct"},
	"sweep-interval": {"oracle.configs"},
	"cashd-mixed":    {"daemon.tenants", "daemon.cells_landed"},
}

// TestExactMetricsRepeat runs every workload's traced run twice on one
// seed and requires every exact metric, and the digest of the modelled
// outputs, to repeat bit for bit.
func TestExactMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for name, exact := range exactMetrics {
		t.Run(name, func(t *testing.T) {
			var first outcome
			for i := 0; i < 2; i++ {
				out, err := workloads[name](runConfig{Seed: 5, Seconds: time.Second, Trace: true, Scratch: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if out.Check != nil {
					t.Fatalf("run %d: correctness check: %v", i, out.Check)
				}
				if out.Digest == "" {
					t.Fatalf("run %d: no digest", i)
				}
				for _, m := range exact {
					if _, ok := out.Metrics[m]; !ok {
						t.Errorf("run %d: exact metric %s missing", i, m)
					}
				}
				if i == 0 {
					first = out
					continue
				}
				if out.Digest != first.Digest {
					t.Errorf("digest %s, first run %s", out.Digest, first.Digest)
				}
				for _, m := range exact {
					if math.Float64bits(out.Metrics[m]) != math.Float64bits(first.Metrics[m]) {
						t.Errorf("%s = %v, first run %v", m, out.Metrics[m], first.Metrics[m])
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesMetricLists keeps BENCHMARK.json and the
// metric lists this program prints in step.
func TestBenchmarkJSONMatchesMetricLists(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
			continue
		}
		for i, d := range c.defs {
			if c.json[i].Name != d.Name || c.json[i].Unit != d.Unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, c.json[i].Name, c.json[i].Unit, d.Name, d.Unit)
			}
		}
	}
}

// TestSelfTimesAddUp checks the span fold on a nested, gapped trace.
func TestSelfTimesAddUp(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "oracle.query", Start: 10, End: 30},
		{ID: 4, Parent: 2, Name: "experiment.run", Start: 40, End: 85},
		{ID: 5, Parent: 4, Name: "alloc.decide", Start: 50, End: 55},
		{ID: 6, Parent: 4, Name: "alloc.decide", Start: 60, End: 70},
	}
	b, err := breakdownOf(spans)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.checkIdentity(); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"pass": 20, "cell": 15, "oracle.query": 20, "experiment.run": 30, "alloc.decide": 15}
	for name, ns := range want {
		if got := b.Self[name] * 1e9; math.Abs(got-ns) > 1e-6 {
			t.Errorf("self %s = %vns, want %vns", name, got, ns)
		}
	}
}
