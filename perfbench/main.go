// Command perfbench is the repository benchmark. It drives the layers'
// public Go APIs from outside, times each call, checks the outputs and
// prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// traced run records spans around every layer call made from this
// package and reports the per-layer metrics. README.md lists the
// workloads, every metric, and which end-to-end metric each per-layer
// metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one metric name with its unit.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics every untraced run prints, on every
// workload: what a user of the system waits for and pays.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics every traced run prints. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	// User-visible outcomes that exist on one workload only.
	{"cost_vs_opt", "ratio"},
	{"viol_pct", "%"},
	{"lat_p99_kcyc", "kcyc"},
	{"slo_viol_min", "sim-min"},
	{"shed_pct", "%"},
	{"req_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_tail_ms", "ms"},
	{"spend_p50_ms", "ms"},
	{"spend_tail_ms", "ms"},
	// oracle
	{"oracle.sweep_s", "s"},
	{"oracle.configs", "count"},
	{"oracle.minstr_per_s", "Minstr/s"},
	{"oracle.query_s", "s"},
	// experiment
	{"experiment.run_s", "s"},
	{"experiment.runs", "count"},
	{"experiment.minstr_per_s", "Minstr/s"},
	{"experiment.self_s", "s"},
	{"experiment.reconfigs", "count"},
	{"experiment.stall_kcyc", "kcyc"},
	{"experiment.server_s", "s"},
	{"experiment.served", "count"},
	{"experiment.shed", "count"},
	{"experiment.timed_out", "count"},
	{"experiment.max_queue", "count"},
	{"experiment.starved", "count"},
	// alloc / cashrt / guard
	{"alloc.decide_s", "s"},
	{"alloc.decides", "count"},
	{"cashrt.decide_us", "us"},
	{"guard.tail_trips", "count"},
	// workload
	{"workload.arrivals", "count"},
	{"workload.arrivals_s", "s"},
	// isim
	{"isim.fit_s", "s"},
	{"isim.stream_s", "s"},
	{"isim.minstr_per_s", "Minstr/s"},
	// daemon + client
	{"daemon.start_s", "s"},
	{"daemon.health_ms_p50", "ms"},
	{"daemon.health_ms_tail", "ms"},
	{"daemon.alloc_ms_p50", "ms"},
	{"daemon.spend_kb", "KB"},
	{"daemon.ticks", "count"},
	{"daemon.tick_lag_pct", "%"},
	{"daemon.codec_us", "us"},
	{"daemon.shed", "count"},
	{"client.retries", "count"},
	{"daemon.tenants", "count"},
	{"daemon.cells_landed", "count"},
	// supervise
	{"supervise.record_ms_p50", "ms"},
	{"supervise.record_ms_tail", "ms"},
	// figs: the traced wall no layer span covers
	{"figs.other_s", "s"},
	// trace
	{"trace.overhead_pct", "%"},
}

// runConfig is one invocation's arguments.
type runConfig struct {
	Seed    uint64
	Seconds time.Duration
	Trace   bool
	// Scratch is a per-run directory inside the checkout for sockets,
	// journals and the span dump.
	Scratch string
}

// serialSim runs a simulation workload on one processor. The
// simulators are single-threaded, and with a second processor the
// garbage collector's stop-the-world phases wait on whichever vCPU a
// busy host has stolen: on a shared 2-vCPU host that added 15% to the
// wall of a pass and most of its run-to-run spread, while CPU time
// stayed put.
func serialSim() { runtime.GOMAXPROCS(1) }

// outcome is what a workload reports back to main.
type outcome struct {
	// Attempted and Failed count host-level operations: cells,
	// configurations or requests, by workload.
	Attempted, Failed int
	// Check is the workload's correctness verdict (nil = correct).
	Check error
	// Metrics holds the values of the mode's metric list.
	Metrics map[string]float64
	// Digest fingerprints the modelled outputs; the same seed must
	// give the same digest on every run.
	Digest string
}

var workloads = map[string]func(runConfig) (outcome, error){
	"fig7":           runFig7,
	"serve-flash":    runServeFlash,
	"sweep-interval": runSweepInterval,
	"cashd-mixed":    runCashdMixed,
}

func main() { os.Exit(run()) }

// run parses the arguments, runs the workload and prints the result
// line, returning the exit code.
func run() int {
	name := flag.String("workload", "", "workload: fig7, serve-flash, sweep-interval or cashd-mixed")
	seed := flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "seconds of timed measurement")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	work, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("bad arguments (workload %q, seconds %d, trace %d)", *name, *seconds, *trace)
		return 2
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	cfg := runConfig{Seed: *seed, Seconds: time.Duration(*seconds) * time.Second, Trace: *trace == 1, Scratch: scratch}
	out, err := work(cfg)
	if err != nil {
		logf("%s: %v", *name, err)
		return 1
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	} else {
		out.Metrics["peak_rss_mb"] = peakRSSMB()
	}
	if err := printResult(out, defs, !cfg.Trace); err != nil {
		logf("%s: %v", *name, err)
		return 1
	}
	if out.Check != nil {
		logf("%s: correctness check failed: %v", *name, out.Check)
		return 1
	}
	return 0
}

// printResult writes the result line with every metric of defs. With
// requireAll, a metric the workload did not measure is a bug and is
// refused rather than printed as 0; otherwise (per-layer metrics) a
// layer the workload does not call reads 0.
func printResult(out outcome, defs []metricDef, requireAll bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := out.Metrics[d.Name]
		if !ok && requireAll {
			return fmt.Errorf("end-to-end metric %s not measured", d.Name)
		}
		metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for k := range out.Metrics {
		if !known[k] {
			extra = append(extra, k)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics %v are not in this mode's list", extra)
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.Check == nil, out.Attempted, out.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// passTimes collects the wall and CPU seconds of repeated passes.
type passTimes struct{ Wall, CPU []float64 }

// measured runs f and returns its wall and process CPU seconds.
func measured(f func() error) (wall, cpu float64, err error) {
	c0, t0 := cpuSeconds(), time.Now()
	err = f()
	return time.Since(t0).Seconds(), cpuSeconds() - c0, err
}

// timePasses runs pass until d has elapsed, and at least min times.
// Each pass times its own measured part (untimed preparation and
// clean-up stay outside it), and medians, not totals, are reported: a
// run's length then never leaks into its metrics.
func timePasses(d time.Duration, min int, pass func(i int) (wall, cpu float64, err error)) (passTimes, error) {
	var pt passTimes
	start := time.Now()
	for i := 0; i < min || time.Since(start) < d; i++ {
		wall, cpu, err := pass(i)
		if err != nil {
			return pt, err
		}
		pt.Wall = append(pt.Wall, wall)
		pt.CPU = append(pt.CPU, cpu)
	}
	logf("%d passes: wall min %.4f median %.4f max %.4f; cpu min %.4f median %.4f max %.4f", len(pt.Wall),
		quantile(pt.Wall, 0), median(pt.Wall), quantile(pt.Wall, 1), quantile(pt.CPU, 0), median(pt.CPU), quantile(pt.CPU, 1))
	return pt, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// medianIndex is the index of the element of xs closest to its median.
func medianIndex(xs []float64) int {
	best, idx := math.Inf(1), 0
	m := median(xs)
	for i, x := range xs {
		if d := math.Abs(x - m); d < best {
			best, idx = d, i
		}
	}
	return idx
}

// tailAt is the q-quantile of xs, the tail a metric reports. It
// fails when fewer than ten samples lie beyond q: a tail must never
// rest on one or two outliers.
func tailAt(xs []float64, q float64) (float64, error) {
	if beyond := float64(len(xs)) * (1 - q); beyond < 10 {
		return 0, fmt.Errorf("%d samples leave %.1f beyond the p%g tail, fewer than 10", len(xs), beyond, 100*q)
	}
	return quantile(xs, q), nil
}

// logf writes a diagnostic line to standard error; standard output
// carries only the result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// traceFile is where a traced run writes its spans: beside the run's
// scratch directory, which is removed at exit.
func traceFile(cfg runConfig, workload string) string {
	return filepath.Join(filepath.Dir(cfg.Scratch), fmt.Sprintf("trace-%s-%d.jsonl", workload, cfg.Seed))
}
