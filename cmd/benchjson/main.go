// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable BENCH.json, so the simulator's throughput trajectory
// is recorded alongside the code instead of living in scrollback.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem . | benchjson -o BENCH.json \
//	    [-headline BenchmarkAblation_SimThroughput] [-baseline 0]
//
// With -count N, go test prints each benchmark N times; benchjson
// aggregates the repetitions into one entry per benchmark name carrying
// min and median for every metric (ns/op, B/op and custom units such as
// Minstr/s), plus the repetition count. The headline benchmark's best
// Minstr/s across repetitions becomes the top-level headline — best-of
// is the right statistic for a throughput claim on a noisy host, since
// interference only ever slows a run down. If -baseline is non-zero it
// is recorded as the seed throughput measured on the same machine and
// the speedup is computed from it.
//
// The output contains no timestamps or host-volatile fields beyond the
// benchmark context go test itself prints, so re-running the pipeline
// on identical results rewrites an identical file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// run is one raw benchmark result line.
type run struct {
	Name       string
	Iterations int64
	Metrics    map[string]float64
}

// metric summarises one unit across a benchmark's repetitions.
type metric struct {
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
}

// bench is one benchmark's aggregated entry: all -count repetitions of
// the same name fold into a single record.
type bench struct {
	Name string `json:"name"`
	// Runs is how many result lines (repetitions) were aggregated.
	Runs int `json:"runs"`
	// Iterations is the total b.N summed over the repetitions.
	Iterations int64             `json:"iterations"`
	Metrics    map[string]metric `json:"metrics"`
}

// headline is the top-level throughput claim.
type headline struct {
	Benchmark      string  `json:"benchmark"`
	MinstrPerS     float64 `json:"minstr_per_s"`
	SeedMinstrPerS float64 `json:"seed_minstr_per_s,omitempty"`
	SpeedupVsSeed  float64 `json:"speedup_vs_seed,omitempty"`
}

// fastTier is one fast simulation tier's oracle-sweep throughput claim,
// recorded next to the cycle-level headline with the speedup computed
// against it (both numbers come from the same run on the same machine,
// so the ratio survives host changes that the absolute numbers do not).
type fastTier struct {
	Benchmark      string  `json:"benchmark"`
	MinstrPerS     float64 `json:"minstr_per_s"`
	SpeedupVsCycle float64 `json:"speedup_vs_cycle,omitempty"`
}

// fastTierBenchmarks are the sweep benchmarks summarised into the
// fast_tiers section when present.
var fastTierBenchmarks = []string{"BenchmarkIntervalSweep"}

// report is the BENCH.json document.
type report struct {
	Schema     string     `json:"schema"`
	Command    string     `json:"command"`
	Goos       string     `json:"goos,omitempty"`
	Goarch     string     `json:"goarch,omitempty"`
	CPU        string     `json:"cpu,omitempty"`
	Package    string     `json:"pkg,omitempty"`
	Headline   headline   `json:"headline"`
	FastTiers  []fastTier `json:"fast_tiers,omitempty"`
	Benchmarks []bench    `json:"benchmarks"`
}

const headlineMetric = "Minstr/s"

func main() {
	out := flag.String("o", "BENCH.json", `output path ("-" for stdout)`)
	head := flag.String("headline", "BenchmarkAblation_SimThroughput",
		"benchmark whose best "+headlineMetric+" becomes the headline")
	baseline := flag.Float64("baseline", 0,
		"seed "+headlineMetric+" measured on this machine (0 = unknown; omits the speedup)")
	flag.Parse()

	rep, err := build(os.Stdin, *head, *baseline)
	if err != nil {
		fatal(err)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
}

// build parses bench output from r and assembles the report.
func build(r io.Reader, head string, baseline float64) (report, error) {
	rep := report{
		Schema:  "cash-bench/2",
		Command: "go test -run '^$' -bench . -benchmem . | benchjson",
	}
	var runs []run
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Package = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				runs = append(runs, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return report{}, err
	}
	if len(runs) == 0 {
		return report{}, fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}
	rep.Benchmarks = aggregate(runs)

	rep.Headline.Benchmark = head
	for _, r := range runs {
		if base(r.Name) != head {
			continue
		}
		if v, ok := r.Metrics[headlineMetric]; ok && v > rep.Headline.MinstrPerS {
			rep.Headline.MinstrPerS = v
		}
	}
	if rep.Headline.MinstrPerS == 0 {
		return report{}, fmt.Errorf("headline benchmark %s reported no %s metric", head, headlineMetric)
	}
	if baseline > 0 {
		rep.Headline.SeedMinstrPerS = baseline
		rep.Headline.SpeedupVsSeed = round3(rep.Headline.MinstrPerS / baseline)
	}
	for _, name := range fastTierBenchmarks {
		var best float64
		for _, r := range runs {
			if base(r.Name) != name {
				continue
			}
			if v, ok := r.Metrics[headlineMetric]; ok && v > best {
				best = v
			}
		}
		if best == 0 {
			continue // tier benchmark absent from this run
		}
		rep.FastTiers = append(rep.FastTiers, fastTier{
			Benchmark:      name,
			MinstrPerS:     round3(best),
			SpeedupVsCycle: round3(best / rep.Headline.MinstrPerS),
		})
	}
	return rep, nil
}

// aggregate folds repeated result lines (go test -count) into one entry
// per benchmark name, in first-appearance order.
func aggregate(runs []run) []bench {
	byName := map[string]int{}
	samples := map[string]map[string][]float64{}
	var out []bench
	for _, r := range runs {
		i, ok := byName[r.Name]
		if !ok {
			i = len(out)
			byName[r.Name] = i
			out = append(out, bench{Name: r.Name, Metrics: map[string]metric{}})
			samples[r.Name] = map[string][]float64{}
		}
		out[i].Runs++
		out[i].Iterations += r.Iterations
		for unit, v := range r.Metrics {
			samples[r.Name][unit] = append(samples[r.Name][unit], v)
		}
	}
	for i := range out {
		for unit, vs := range samples[out[i].Name] {
			sort.Float64s(vs)
			out[i].Metrics[unit] = metric{Min: vs[0], Median: round3(median(vs))}
		}
	}
	return out
}

// median of a sorted, non-empty slice (mean of the middle pair when
// even-sized).
func median(vs []float64) float64 {
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBench decodes one result line of the form
//
//	BenchmarkName-8   193   12346998 ns/op   8.099 Minstr/s   0 B/op   0 allocs/op
//
// i.e. a name, an iteration count, then (value, unit) pairs.
func parseBench(line string) (run, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return run{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return run{}, false
	}
	r := run{Name: f[0], Iterations: iters, Metrics: make(map[string]float64, (len(f)-2)/2)}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return run{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}

// base strips the -GOMAXPROCS suffix go test appends to benchmark names.
func base(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

func round3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
