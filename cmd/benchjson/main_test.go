package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cash
cpu: test-cpu
BenchmarkAblation_SimThroughput-8   	     100	  12000000 ns/op	         8.000 Minstr/s	       0 B/op	       0 allocs/op
BenchmarkAblation_SimThroughput-8   	     110	  11500000 ns/op	         8.400 Minstr/s	       0 B/op	       0 allocs/op
BenchmarkAblation_SimThroughput-8   	      90	  12500000 ns/op	         7.900 Minstr/s	       0 B/op	       0 allocs/op
BenchmarkOther-8                    	      50	  20000000 ns/op
PASS
`

// The original converter emitted one entry per result line, so a
// -count=3 run tripled every benchmark in BENCH.json. The v2 schema
// carries one aggregated entry per name.
func TestBuildAggregatesRepetitions(t *testing.T) {
	rep, err := build(strings.NewReader(sample), "BenchmarkAblation_SimThroughput", 5.0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "cash-bench/2" {
		t.Fatalf("schema = %q, want cash-bench/2", rep.Schema)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d entries, want 2 (one per name): %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkAblation_SimThroughput-8" || b.Runs != 3 || b.Iterations != 300 {
		t.Fatalf("entry 0 = %+v, want 3 runs / 300 iterations of the headline bench", b)
	}
	if m := b.Metrics["ns/op"]; m.Min != 11500000 || m.Median != 12000000 {
		t.Fatalf("ns/op = %+v, want min 11500000 median 12000000", m)
	}
	if m := b.Metrics["Minstr/s"]; m.Min != 7.9 || m.Median != 8.0 {
		t.Fatalf("Minstr/s = %+v, want min 7.9 median 8.0", m)
	}
	if o := rep.Benchmarks[1]; o.Name != "BenchmarkOther-8" || o.Runs != 1 {
		t.Fatalf("entry 1 = %+v, want one run of BenchmarkOther-8", o)
	}
}

// The headline stays best-of across repetitions, with the speedup
// computed against the recorded seed baseline.
func TestBuildHeadlineBestOf(t *testing.T) {
	rep, err := build(strings.NewReader(sample), "BenchmarkAblation_SimThroughput", 4.2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Headline.MinstrPerS != 8.4 {
		t.Fatalf("headline = %v, want best-of 8.4", rep.Headline.MinstrPerS)
	}
	if rep.Headline.SpeedupVsSeed != 2.0 {
		t.Fatalf("speedup = %v, want 2.0", rep.Headline.SpeedupVsSeed)
	}
}

const fastTierSample = sample + `BenchmarkIntervalSweep-8   	       2	5100000000 ns/op	        84.000 Minstr/s
BenchmarkIntervalSweep-8   	       2	5000000000 ns/op	        86.100 Minstr/s
`

// The fast-tier sweep benchmarks fold into the fast_tiers section:
// best-of Minstr/s per tier, with the speedup against the cycle-level
// headline from the same run.
func TestBuildFastTiers(t *testing.T) {
	rep, err := build(strings.NewReader(fastTierSample), "BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FastTiers) != 1 {
		t.Fatalf("got %d fast_tiers entries, want 1: %+v", len(rep.FastTiers), rep.FastTiers)
	}
	iv := rep.FastTiers[0]
	if iv.Benchmark != "BenchmarkIntervalSweep" || iv.MinstrPerS != 86.1 {
		t.Fatalf("interval entry = %+v, want best-of 86.1", iv)
	}
	// 86.1 / 8.4 (the headline's best-of) = 10.25.
	if iv.SpeedupVsCycle != 10.25 {
		t.Fatalf("interval speedup = %v, want 10.25", iv.SpeedupVsCycle)
	}
}

// Runs without the sweep benchmarks (older branches, partial -bench
// filters) omit the section instead of carrying zeros.
func TestBuildFastTiersAbsent(t *testing.T) {
	rep, err := build(strings.NewReader(sample), "BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FastTiers != nil {
		t.Fatalf("fast_tiers = %+v, want omitted when the sweep benchmarks are absent", rep.FastTiers)
	}
}

func TestBuildRejectsMissingHeadline(t *testing.T) {
	if _, err := build(strings.NewReader(sample), "BenchmarkNope", 0); err == nil {
		t.Fatal("want error for absent headline benchmark")
	}
}

func TestMedianEven(t *testing.T) {
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}
