package cash

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark
// regenerates its artifact end-to-end — workload generation, the
// brute-force oracle characterisation (§V-C), the experiment runs, and
// the report — and publishes the headline numbers as benchmark metrics.
//
// The full evaluation is expensive on one core; benchmarks therefore
// run the workloads at a reduced scale (CASH_BENCH_SCALE, default
// 0.12). The oracle characterisation is cached on disk across runs
// (CASH_ORACLE_CACHE), so the first -bench invocation pays the sweep
// and later ones do not. `cashsim -scale 1 all` runs the full thing.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"cash/internal/alloc"
	"cash/internal/cost"
	"cash/internal/daemon"
	daemonclient "cash/internal/daemon/client"
	"cash/internal/experiment"
	"cash/internal/figs"
	"cash/internal/isim"
	"cash/internal/isim/calib"
	"cash/internal/oracle"
	"cash/internal/par"
	"cash/internal/ssim"
	"cash/internal/stats"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// benchScale returns the workload scale for benchmarks.
func benchScale() float64 {
	if s := os.Getenv("CASH_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.12
}

func newBenchHarness() *figs.Harness {
	h := figs.New(io.Discard)
	h.Scale = benchScale()
	return h
}

// BenchmarkFig1_X264PhaseContours regenerates Fig 1: the 8×8 IPC
// surface of every x264 phase plus the local-optima analysis.
func BenchmarkFig1_X264PhaseContours(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		if err := h.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_MotivationalComparison regenerates Fig 2: Optimal vs
// Race-to-Idle vs ConvexOptimization time series on x264.
func BenchmarkFig2_MotivationalComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		if err := h.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverhead_Reconfiguration regenerates §VI-A's architectural
// and runtime overhead measurements.
func BenchmarkOverhead_Reconfiguration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		if err := h.Overhead(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7_CostAndViolations regenerates Fig 7 (13 applications ×
// 4 allocators) and reports Table III's geomean cost ratios as metrics.
func BenchmarkFig7_CostAndViolations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		res, err := h.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		h.Table3(res)
		gm := res.Geomeans()
		if opt := gm["Optimal"]; opt > 0 {
			b.ReportMetric(gm["ConvexOptimization"]/opt, "convex/opt")
			b.ReportMetric(gm["RaceToIdle"]/opt, "rti/opt")
			b.ReportMetric(gm["CASH"]/opt, "cash/opt")
		}
	}
}

// BenchmarkTable3_GeomeanCost is the Table III view of the Fig 7 data.
func BenchmarkTable3_GeomeanCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		res, err := h.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		h.Table3(res)
	}
}

// BenchmarkFig8_X264TimeSeries regenerates Fig 8: ConvexOptimization,
// RaceToIdle and CASH time series on x264.
func BenchmarkFig8_X264TimeSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		if err := h.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9_ApacheTimeSeries regenerates Fig 9: the apache server
// under an oscillating request load with a latency QoS.
func BenchmarkFig9_ApacheTimeSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		if err := h.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_CoarseVsFine regenerates Fig 10: coarse-grain
// (big.LITTLE) versus fine-grain architectures under race-to-idle and
// adaptive management; the headline metric is CASH's saving over
// CoarseGrain,race.
func BenchmarkFig10_CoarseVsFine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		res, err := h.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		gm := res.Geomeans()
		if cg := gm["CoarseGrain,race"]; cg > 0 {
			b.ReportMetric(100*(1-gm["CASH"]/cg), "saving%")
		}
	}
}

// BenchmarkAblations re-runs x264 with individual runtime mechanisms
// disabled or replaced (the design-choice index in DESIGN.md §4).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness()
		if err := h.Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_SimThroughput measures SSim's raw simulation speed
// (instructions per second) — the quantity that makes the brute-force
// oracle affordable.
func BenchmarkAblation_SimThroughput(b *testing.B) {
	app := workload.X264()
	sim := ssim.MustNew(vcore.Config{Slices: 4, L2KB: 1024}, DefaultSliceConfig(), ssim.SteerEarliest)
	gen := workload.NewGen(app, 42)
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		n, _ := sim.Run(gen, 100_000)
		instrs += n
		if gen.Done() {
			gen.Reset()
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkOracle_ColdSweep measures the brute-force characterisation
// of one application over the full 64-configuration space (§V-C) with a
// cold cache, at several sweep-worker budgets. ns/op is the cold-sweep
// wall-clock; the "workers" metric records the budget so BENCH.json
// carries the scaling curve. The swept Char values are byte-identical
// at every worker count — parallelism only changes wall-clock.
func BenchmarkOracle_ColdSweep(b *testing.B) {
	app, ok := workload.ByName("hmmer")
	if !ok {
		b.Fatal("hmmer missing from the suite")
	}
	// A quarter of the usual benchmark scale keeps the 64-config sweep
	// affordable while leaving enough work per config to parallelize.
	app = app.Scale(0.25 * benchScale())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			pool := par.New(workers)
			for i := 0; i < b.N; i++ {
				db := oracle.NewDB()
				db.Pool = pool
				db.CharacterizeApp(app)
			}
			b.ReportMetric(float64(workers), "workers")
		})
	}
}

// BenchmarkOracleQueries measures the warm oracle queries every Fig 7 /
// Table III / Fig 10 cell makes before its run (the figs harness's
// per-cell set-up): the sweep check, the QoS target, the optimal cost,
// race-to-idle's worst-case configuration and the per-phase optimum,
// for x264 on a database already holding all 64 characterisations.
// Query cost depends on the phase count, not the scale, so the app is
// swept small; only the queries are timed.
func BenchmarkOracleQueries(b *testing.B) {
	app := workload.X264().Scale(0.05 * benchScale())
	db := oracle.NewDB()
	db.CharacterizeApp(app)
	m := cost.Default()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.CharacterizeApp(app)
		target := db.QoSTarget(app)
		if _, err := db.OptimalCost(app, target, m); err != nil {
			b.Fatal(err)
		}
		if _, err := db.WorstCaseConfig(app, target, m); err != nil {
			b.Fatal(err)
		}
		if _, _, err := db.BestPerPhase(app, target, m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntervalSweep measures interval-tier oracle sweep
// throughput (the calibration-gated analytic model; isim.TierInterval):
// a cold-cache oracle characterisation of the calibration-corpus fit
// app — full-scale 2M-instruction phases, the sweep shape the fast tier
// exists for — over the full 64-configuration space, serial sweep.
// Minstr/s is instructions characterised per wall second (app
// instructions × 64 configs over elapsed time), directly comparable to
// the cycle-level BenchmarkAblation_SimThroughput headline; the target
// is ≥10x it. The suite apps at bench scale would be useless here:
// their phases are shorter than the tier's pilot/probe geometry, so
// the interval tier degrades to detailed execution by design.
func BenchmarkIntervalSweep(b *testing.B) {
	app := calib.Corpus()[0] // calib-fit: 3 phases × 2M instructions
	covered := app.TotalInstrs() * int64(len(vcore.Space()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := oracle.NewDB()
		db.Tier = isim.TierInterval
		db.Pool = par.Serial()
		db.CharacterizeApp(app)
	}
	b.ReportMetric(float64(covered)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkAblation_Steering compares the dependence-aware steering
// policy against blind round-robin on a high-ILP phase.
func BenchmarkAblation_Steering(b *testing.B) {
	p := workload.X264().Phases[3]
	for _, pol := range []struct {
		name string
		p    ssim.SteeringPolicy
	}{{"earliest", ssim.SteerEarliest}, {"roundrobin", ssim.SteerRoundRobin}} {
		b.Run(pol.name, func(b *testing.B) {
			var totalInstr, totalCycle int64
			for i := 0; i < b.N; i++ {
				sim := ssim.MustNew(vcore.Config{Slices: 4, L2KB: 512}, DefaultSliceConfig(), pol.p)
				gen := workload.NewPhaseGen(p, 3, 42)
				n, c := sim.Run(gen, 60_000)
				totalInstr += n
				totalCycle += c
			}
			b.ReportMetric(float64(totalInstr)/float64(totalCycle), "IPC")
		})
	}
}

// BenchmarkHistogramRecord measures the sparse-bucket latency
// histogram's hot path: one Record call on a histogram that has spilled
// past the exact-mode threshold into bucketed operation. The serving
// engine calls this once per completed request, so it must stay O(1)
// and allocation-free.
func BenchmarkHistogramRecord(b *testing.B) {
	var h stats.Histogram
	// Pre-spill into bucketed mode with a spread of realistic latencies.
	for v := int64(1); v < 1<<20; v = v*5/4 + 1 {
		h.Record(v)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(50_000 + i%200_000))
	}
}

// BenchmarkServerOpenLoop measures the open-loop serving engine under a
// sustained flash-crowd overload against a bounded queue with deadline
// shedding — the configuration the tail-latency study exercises. The
// metric is served requests per wall-clock second; the benchmark also
// guards that the run sheds (the overload is real) and stays inside the
// queue cap.
func BenchmarkServerOpenLoop(b *testing.B) {
	var served, shed int64
	for i := 0; i < b.N; i++ {
		stream := &workload.ShapedStream{
			BaseRate:         40,
			InstrsPerRequest: 60_000,
			Jitter:           0.1,
			Seed:             3,
			Shapes: []workload.RateShape{workload.FlashCrowd{
				EveryMCycles: 4, Magnitude: 6,
				RampMCycles: 0.3, HoldMCycles: 0.8, DecayMCycles: 0.9,
				Seed: 3 ^ 0xf1a5,
			}},
		}
		res, err := experiment.RunServer(alloc.Static{Cfg: vcore.Config{Slices: 4, L2KB: 512}},
			experiment.ServerOpts{
				Arrivals: stream,
				Horizon:  10_000_000,
				QueueCap: 64,
				Shed:     experiment.ShedDeadline,
			})
		if err != nil {
			b.Fatal(err)
		}
		served += res.Served
		shed += res.Shed + res.TimedOut
		if res.MaxQueueDepth > 64 {
			b.Fatalf("queue depth %d exceeded cap", res.MaxQueueDepth)
		}
	}
	if shed == 0 {
		b.Fatal("overload benchmark shed nothing")
	}
	b.ReportMetric(float64(served)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkRuntimeDecide measures one iteration of Algorithm 1 on the
// host (§VI-A's runtime overhead).
func BenchmarkRuntimeDecide(b *testing.B) {
	rt, err := NewRuntime(0.5, RuntimeOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rt.Decide(nil, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.Decide(nil, 100_000)
	}
}

// BenchmarkReconfigure measures the full reconfiguration path
// (register flush protocol + L2 flush) between two configurations.
func BenchmarkReconfigure(b *testing.B) {
	sim := ssim.MustNew(vcore.Config{Slices: 2, L2KB: 256}, DefaultSliceConfig(), ssim.SteerEarliest)
	gen := workload.NewGen(workload.X264(), 42)
	small := vcore.Config{Slices: 2, L2KB: 256}
	big := vcore.Config{Slices: 6, L2KB: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(gen, 2000)
		if gen.Done() {
			gen.Reset()
		}
		target := big
		if sim.Config() == big {
			target = small
		}
		if _, err := sim.Reconfigure(target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCodec measures one cashd frame round-trip — encode a
// request, decode it, encode the response, decode it — the per-message
// floor of the daemon protocol.
func BenchmarkWireCodec(b *testing.B) {
	req := daemon.Request{ID: 1, Method: daemon.MethodSubmit, Idem: "bench-key",
		Params: json.RawMessage(`{"name":"bench","cells":16,"seed":42}`)}
	resp := daemon.Response{ID: 1, Code: daemon.CodeOK,
		Result: json.RawMessage(`{"name":"bench","cells":16,"estimate_nanos":123456}`)}
	var buf bytes.Buffer
	br := bufio.NewReader(&buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		br.Reset(&buf)
		if err := daemon.WriteFrame(&buf, req); err != nil {
			b.Fatal(err)
		}
		var gotReq daemon.Request
		if err := daemon.ReadFrame(br, &gotReq); err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		br.Reset(&buf)
		if err := daemon.WriteFrame(&buf, resp); err != nil {
			b.Fatal(err)
		}
		var gotResp daemon.Response
		if err := daemon.ReadFrame(br, &gotResp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDaemonSubmit measures a full client→daemon submit round
// trip over the Unix socket: journaled (fsynced) admission plus the
// acknowledgement — the daemon's mutation-path latency.
func BenchmarkDaemonSubmit(b *testing.B) {
	dir := b.TempDir()
	srv, err := daemon.Start(daemon.Options{
		Socket:  filepath.Join(dir, "cashd.sock"),
		Journal: filepath.Join(dir, "journal.jsonl"),
		// A long epoch keeps the core free for requests: this measures
		// the submit path, not cell execution.
		Epoch:    time.Second,
		QueueCap: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Kill()
	cl, err := daemonclient.Dial(daemonclient.Options{Socket: srv.Socket()})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := daemon.TenantSpec{Name: fmt.Sprintf("t%07d", i), Cells: 1, Seed: uint64(i)}
		if _, err := cl.Submit(fmt.Sprintf("k%07d", i), spec); err != nil {
			b.Fatal(err)
		}
	}
}
