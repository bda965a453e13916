package main

import (
	"strconv"
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

// gatedSample is a run of every allocation-gated benchmark; wireAllocs
// sets BenchmarkWireCodec's allocs/op and wireBytes its B/op.
func gatedSample(wireAllocs, wireBytes int) string {
	return sample + `BenchmarkOracleQueries-8   	   20000	     53101 ns/op	    1600 B/op	       6 allocs/op
BenchmarkHistogramRecord-8 	100000000	         6.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkRuntimeDecide-8   	 1000000	      1150 ns/op	      48 B/op	       1 allocs/op
BenchmarkWireCodec-8       	  100000	     10563 ns/op	    ` + strconv.Itoa(wireBytes) + ` B/op	      ` + strconv.Itoa(wireAllocs) + ` allocs/op
BenchmarkSpendDecode-8     	    2000	    455123 ns/op	  245760 B/op	       3 allocs/op
BenchmarkJournalReopen-8   	     300	   3666289 ns/op	         1.730 load-ms	         1.838 rebuild-ms	 5270840 B/op	   37220 allocs/op
pkg: cash/internal/daemon
BenchmarkSpendAnswer-8     	   17212	     66437 ns/op	  139264 B/op	       1 allocs/op
BenchmarkHealthAnswer-8    	  176701	      7298 ns/op	   32896 B/op	       2 allocs/op
`
}

// The -compare gate holds each gated benchmark's allocs/op to the
// reference exactly: the same counts pass whatever the timings, one
// extra allocation fails naming the benchmark, and a gated benchmark
// missing from the run fails rather than passing by omission.
func TestCompareAllocsExact(t *testing.T) {
	ref, err := build(strings.NewReader(gatedSample(41, 1744)), "BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	same, err := build(strings.NewReader(strings.ReplaceAll(gatedSample(41, 1744), "10563 ns/op", "99999 ns/op")),
		"BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(ref, same); err != nil {
		t.Fatalf("equal allocation counts failed the gate: %v", err)
	}

	extra, err := build(strings.NewReader(gatedSample(42, 1744)), "BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	err = compare(ref, extra)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkWireCodec: 42 allocs/op") {
		t.Fatalf("one extra allocation: compare returned %v, want a BenchmarkWireCodec failure", err)
	}

	missing, err := build(strings.NewReader(sample), "BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(ref, missing); err == nil || !strings.Contains(err.Error(), "BenchmarkOracleQueries: no allocs/op in this run") {
		t.Fatalf("gated benchmarks absent: compare returned %v, want a missing-benchmark failure", err)
	}
}

// The gate holds B/op as exactly as allocs/op: the same allocation
// count with one more byte per operation fails, naming the benchmark.
func TestCompareBytesExact(t *testing.T) {
	ref, err := build(strings.NewReader(gatedSample(41, 1744)), "BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := build(strings.NewReader(gatedSample(41, 1745)), "BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	err = compare(ref, drift)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkWireCodec: 1745 B/op") {
		t.Fatalf("one extra byte: compare returned %v, want a BenchmarkWireCodec B/op failure", err)
	}
}

// The committed BENCH.json carries every gated benchmark, so CI's
// -compare against it can pass.
func TestCommittedBenchGated(t *testing.T) {
	ref, err := readReport("../../BENCH.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := compare(ref, ref); err != nil {
		t.Fatal(err)
	}
}

// `make bench` pipes in two packages' output, the root package's
// first; the report names that one.
func TestBuildKeepsFirstPackage(t *testing.T) {
	two := sample + "goos: linux\ngoarch: amd64\npkg: cash/internal/daemon\ncpu: test-cpu\n" +
		"BenchmarkSpendAnswer-8   	   17212	     66437 ns/op	  139264 B/op	       1 allocs/op\n"
	rep, err := build(strings.NewReader(two), "BenchmarkAblation_SimThroughput", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Package != "cash" || len(rep.Benchmarks) != 3 {
		t.Fatalf("pkg %q with %d entries, want cash with 3", rep.Package, len(rep.Benchmarks))
	}
}
