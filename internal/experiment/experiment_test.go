package experiment

import (
	"math"
	"strings"
	"testing"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

func tinyApp() workload.App {
	app, _ := workload.ByName("hmmer")
	return app.Scale(0.05)
}

func TestRunRequiresTarget(t *testing.T) {
	if _, err := Run(tinyApp(), alloc.Static{Cfg: vcore.Min()}, Opts{}); err == nil {
		t.Error("missing target must fail")
	}
}

func TestStaticRunAccounting(t *testing.T) {
	app := tinyApp()
	cfg := vcore.Config{Slices: 2, L2KB: 256}
	res, err := Run(app, alloc.Static{Cfg: cfg}, Opts{Target: 0.1, Initial: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalInstrs != app.TotalInstrs() {
		t.Errorf("ran %d instructions, want %d", res.TotalInstrs, app.TotalInstrs())
	}
	if res.ReconfigCount != 0 {
		t.Errorf("static run reconfigured %d times", res.ReconfigCount)
	}
	// Never idle, one config: cost must equal rate × busy time.
	want := cost.Default().Charge(cfg, res.TotalCycles)
	if math.Abs(res.TotalCost-want)/want > 0.01 {
		t.Errorf("cost $%g, want $%g", res.TotalCost, want)
	}
	if res.App != app.Name || res.Allocator != "Static(2s/256KB)" {
		t.Errorf("identity wrong: %s/%s", res.App, res.Allocator)
	}
}

func TestQuantumBoundedByTau(t *testing.T) {
	res, err := Run(tinyApp(), alloc.Static{Cfg: vcore.Min()}, Opts{Target: 0.1, Tau: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for i, s := range res.Samples[:len(res.Samples)-1] {
		d := s.Cycle - prev
		if d > 60_000 {
			t.Fatalf("sample %d spans %d cycles, quantum is 50k", i, d)
		}
		prev = s.Cycle
	}
}

func TestViolationCounting(t *testing.T) {
	// An impossible target violates every quantum.
	res, err := Run(tinyApp(), alloc.Static{Cfg: vcore.Min()}, Opts{Target: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolationRate != 1 {
		t.Errorf("impossible target: violation rate %.2f, want 1", res.ViolationRate)
	}
	// A trivial target never violates.
	res, err = Run(tinyApp(), alloc.Static{Cfg: vcore.Max()}, Opts{Target: 1e-6, Initial: vcore.Max()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("trivial target: %d violations", res.Violations)
	}
}

func TestIdleIsFree(t *testing.T) {
	app := tinyApp()
	cfg := vcore.Config{Slices: 4, L2KB: 512}
	race, err := Run(app, alloc.RaceToIdle{WorstCase: cfg, TargetQoS: 0.05}, Opts{Target: 0.05, Initial: cfg})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(app, alloc.Static{Cfg: cfg}, Opts{Target: 0.05, Initial: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Racing the same work on the same configuration costs the same
	// total (idle is free, busy time is identical), but it spreads the
	// bill over a longer wall clock: the cost *rate* must be far lower,
	// and the totals must agree within overheads.
	if race.MeanCostRate() >= static.MeanCostRate()*0.5 {
		t.Errorf("race+idle rate $%.4f/hr should be well below always-on $%.4f/hr",
			race.MeanCostRate(), static.MeanCostRate())
	}
	if math.Abs(race.TotalCost-static.TotalCost)/static.TotalCost > 0.05 {
		t.Errorf("same work, same config: totals should agree: $%g vs $%g",
			race.TotalCost, static.TotalCost)
	}
	if race.TotalCycles <= static.TotalCycles {
		t.Error("race+idle should take longer wall-clock (it idles)")
	}
}

func TestReconfigurationAccounting(t *testing.T) {
	app := tinyApp()
	rt := cashrt.MustNew(0.3, cost.Default(), cashrt.Options{Seed: 5})
	res, err := Run(app, rt, Opts{Target: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReconfigCount == 0 {
		t.Error("the CASH runtime should reconfigure at least once")
	}
	if res.StallCycles <= 0 {
		t.Error("reconfigurations must cost stall cycles")
	}
}

// TestCorruptSliceCounterFailsRun: every batch run step holds the
// committed count read from the live Slices' counters to the count the
// simulator returned, so a Slice counter corrupted between quanta fails
// the run at the next run step.
func TestCorruptSliceCounterFailsRun(t *testing.T) {
	cfg := vcore.Config{Slices: 2, L2KB: 256}
	hook := func(sim *ssim.Sim, quantum int) error {
		if quantum == 1 {
			sim.VCore().Slices()[1].Counters.Committed += 7
		}
		return nil
	}
	res, err := Run(tinyApp(), alloc.Static{Cfg: cfg}, Opts{Target: 0.1, Initial: cfg, EpochHook: hook})
	if err == nil {
		t.Fatal("a corrupted Slice counter passed the counter check")
	}
	if !strings.Contains(err.Error(), "committed instructions at cycle") {
		t.Fatalf("error %q does not report the counter mismatch", err)
	}
	if len(res.Samples) != 1 {
		t.Fatalf("run stopped after %d quanta, want 1 (the step after the corruption)", len(res.Samples))
	}
}

func TestMaxQuanta(t *testing.T) {
	res, err := Run(tinyApp(), alloc.Static{Cfg: vcore.Min()}, Opts{Target: 0.1, MaxQuanta: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) > 3 {
		t.Errorf("MaxQuanta ignored: %d samples", len(res.Samples))
	}
	// Server runs share the loop and its bound.
	sres, err := RunServer(alloc.Static{Cfg: vcore.Min()}, ServerOpts{Opts: Opts{MaxQuanta: 3}, Horizon: 8_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sres.Samples) != 3 {
		t.Errorf("server run ignored MaxQuanta: %d samples", len(sres.Samples))
	}
}

// TestRunPartialResultOnReconfigureError: a reconfiguration that fails
// after some quanta returns the error together with the result so far.
func TestRunPartialResultOnReconfigureError(t *testing.T) {
	res, err := Run(tinyApp(), &failingReconfigPolicy{after: 3}, Opts{Target: 0.1})
	if err == nil {
		t.Fatal("expected a reconfiguration error")
	}
	if len(res.Samples) != 3 || res.Allocator != "failing-reconfig" || res.TotalCycles == 0 {
		t.Fatalf("error path dropped the partial result: %d samples, allocator %q, %d cycles",
			len(res.Samples), res.Allocator, res.TotalCycles)
	}
}

func TestMeanCostRate(t *testing.T) {
	r := Result{TotalCost: 1, TotalCycles: int64(cost.CyclesPerHour)}
	if r.MeanCostRate() != 1 {
		t.Errorf("MeanCostRate = %v", r.MeanCostRate())
	}
	if (Result{}).MeanCostRate() != 0 {
		t.Error("empty result rate must be 0")
	}
}

func TestServerRun(t *testing.T) {
	stream := workload.DefaultApacheStream()
	opts := ServerOpts{
		Arrivals:            stream,
		TargetLatencyCycles: 110_000,
		Horizon:             8_000_000,
	}
	opts.Opts.Tolerance = 0.10
	res, err := RunServer(alloc.Static{Cfg: vcore.Config{Slices: 4, L2KB: 512}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served == 0 {
		t.Fatal("no requests served")
	}
	if res.MeanLatency <= 0 {
		t.Error("latency must be positive")
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples recorded")
	}
	for _, s := range res.Samples {
		if s.RequestRate < 0 || s.NormLatency < 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
}

func TestServerBiggerCoreLowerLatency(t *testing.T) {
	run := func(cfg vcore.Config) float64 {
		opts := ServerOpts{Horizon: 8_000_000, TargetLatencyCycles: 110_000}
		res, err := RunServer(alloc.Static{Cfg: cfg}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanLatency
	}
	small := run(vcore.Config{Slices: 1, L2KB: 64})
	big := run(vcore.Config{Slices: 6, L2KB: 1024})
	if big >= small {
		t.Errorf("bigger virtual core should cut latency: %f vs %f", big, small)
	}
}

func TestServerIdleIsCheap(t *testing.T) {
	// A near-empty stream must cost almost nothing under race-to-idle.
	quiet := &workload.RequestStream{
		BaseRate: 0.05, Amplitude: 0.01, PeriodMCycles: 10,
		InstrsPerRequest: 5_000,
	}
	opts := ServerOpts{Arrivals: quiet, Horizon: 8_000_000, TargetLatencyCycles: 110_000}
	busyOpts := ServerOpts{Horizon: 8_000_000, TargetLatencyCycles: 110_000}
	cfg := vcore.Config{Slices: 4, L2KB: 512}
	quietRes, err := RunServer(alloc.RaceToIdle{WorstCase: cfg, TargetQoS: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	busyRes, err := RunServer(alloc.RaceToIdle{WorstCase: cfg, TargetQoS: 1}, busyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if quietRes.TotalCost >= busyRes.TotalCost {
		t.Errorf("an idle server should bill less: quiet $%g vs busy $%g",
			quietRes.TotalCost, busyRes.TotalCost)
	}
}
