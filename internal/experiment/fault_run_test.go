package experiment

import (
	"reflect"
	"testing"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/fault"
	"cash/internal/noc"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// TestFaultRunDeterministic: same seed + same schedule must reproduce
// the run bit-for-bit, fault events included.
func TestFaultRunDeterministic(t *testing.T) {
	sched := fault.MustGenerate(fault.Spec{
		Rate: 2, Horizon: 3_000_000, Width: 4, Height: 4, Seed: 7,
	})
	if len(sched.Events) == 0 {
		t.Fatal("generated schedule is empty; pick a higher rate")
	}
	app, _ := workload.ByName("hmmer")
	app = app.Scale(0.5) // long enough to live through the schedule
	run := func() Result {
		rt := cashrt.MustNew(0.3, cost.Default(), cashrt.Options{Seed: 5})
		res, err := Run(app, rt, Opts{
			Target: 0.3, MaxQuanta: 30,
			Faults: &sched, FabricWidth: 4, FabricHeight: 4,
			Initial: vcore.Config{Slices: 2, L2KB: 128},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed and schedule diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Faults == 0 {
		t.Error("schedule had events but none were applied")
	}
	if len(a.FaultEvents) != a.Faults+a.Repairs {
		t.Errorf("%d events recorded, want %d strikes + %d repairs",
			len(a.FaultEvents), a.Faults, a.Repairs)
	}
}

// TestEmptyScheduleMatchesBaseline: hosting a run on the fabric with no
// faults must not change anything observable.
func TestEmptyScheduleMatchesBaseline(t *testing.T) {
	run := func(faults *fault.Schedule) Result {
		rt := cashrt.MustNew(0.3, cost.Default(), cashrt.Options{Seed: 5})
		res, err := Run(tinyApp(), rt, Opts{Target: 0.3, Faults: faults})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	hosted := run(&fault.Schedule{})
	if !reflect.DeepEqual(base, hosted) {
		t.Errorf("empty schedule perturbed the run:\n%+v\nvs\n%+v", base, hosted)
	}
}

// TestTransientFaultDegradesAndRecovers walks the full degradation arc
// on a chip with no spare tiles: a transient slice fault forces the
// tenant down a slice, expansion requests are denied while the tile is
// out, and after self-repair the static allocator's standing request is
// granted again.
func TestTransientFaultDegradesAndRecovers(t *testing.T) {
	full := vcore.Config{Slices: 4, L2KB: 256}
	sched := fault.Schedule{Events: []fault.Event{
		{Cycle: 50_000, Pos: noc.Coord{X: 0, Y: 0}, Transient: true, RepairAfter: 120_000},
	}}
	res, err := Run(tinyApp(), alloc.Static{Cfg: full}, Opts{
		Target: 0.1, Initial: full,
		Faults: &sched, FabricWidth: 2, FabricHeight: 4, // 4 Slices + 4 banks: zero spares
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != 1 || res.Repairs != 1 || res.Degradations != 1 || res.Remaps != 0 {
		t.Fatalf("counters: %d faults, %d repairs, %d degradations, %d remaps",
			res.Faults, res.Repairs, res.Degradations, res.Remaps)
	}
	if res.Denials == 0 {
		t.Error("the static allocator's 4-slice request should be denied while degraded")
	}
	if res.ForcedStall <= 0 {
		t.Error("a forced shrink must stall the pipeline")
	}
	degraded := vcore.Config{Slices: 3, L2KB: 256}
	ev := res.FaultEvents[0]
	if !ev.Degraded || ev.Config != degraded {
		t.Errorf("first event should degrade to %s: %+v", degraded, ev)
	}
	sawDegraded, recovered := false, false
	for _, s := range res.Samples {
		if s.Config == degraded {
			sawDegraded = true
		}
		if sawDegraded && s.Config == full {
			recovered = true
		}
	}
	if !sawDegraded {
		t.Error("no sample ran in the degraded configuration")
	}
	if !recovered {
		t.Error("run never recovered to the full configuration after the repair")
	}
}

// TestPermanentFaultRemapsOnSpareChip: with a free equivalent tile, a
// strike is absorbed by remapping and capacity never changes.
func TestPermanentFaultRemapsOnSpareChip(t *testing.T) {
	cfg := vcore.Config{Slices: 2, L2KB: 128}
	// (2,1) is one of the two slice tiles the allocation deterministically
	// takes on an empty 4x4 chip; plenty of spare slices remain.
	sched := fault.Schedule{Events: []fault.Event{
		{Cycle: 50_000, Pos: noc.Coord{X: 2, Y: 1}},
	}}
	res, err := Run(tinyApp(), alloc.Static{Cfg: cfg}, Opts{
		Target: 0.1, Initial: cfg,
		Faults: &sched, FabricWidth: 4, FabricHeight: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Remaps != 1 || res.Degradations != 0 || res.Denials != 0 {
		t.Fatalf("want a pure remap: %d remaps, %d degradations, %d denials",
			res.Remaps, res.Degradations, res.Denials)
	}
	for _, s := range res.Samples {
		if s.Config != cfg {
			t.Fatalf("remap must not change capacity, but a sample ran at %s", s.Config)
		}
	}
}

// TestServerEmptyScheduleMatchesBaseline mirrors the batch-engine check
// for server mode.
func TestServerEmptyScheduleMatchesBaseline(t *testing.T) {
	run := func(faults *fault.Schedule) ServerResult {
		opts := ServerOpts{Horizon: 6_000_000, TargetLatencyCycles: 110_000}
		opts.Opts.Faults = faults
		res, err := RunServer(alloc.Static{Cfg: vcore.Config{Slices: 4, L2KB: 512}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(nil)
	hosted := run(&fault.Schedule{})
	if !reflect.DeepEqual(base, hosted) {
		t.Error("empty schedule perturbed the server run")
	}
}

// TestServerFaultDegrades: a mid-run slice fault on a spare-free chip
// shrinks the server and the run keeps serving requests.
func TestServerFaultDegrades(t *testing.T) {
	full := vcore.Config{Slices: 4, L2KB: 256}
	sched := fault.Schedule{Events: []fault.Event{
		{Cycle: 1_000_000, Pos: noc.Coord{X: 0, Y: 1}},
	}}
	opts := ServerOpts{Horizon: 6_000_000, TargetLatencyCycles: 110_000}
	opts.Opts.Initial = full
	opts.Opts.Faults = &sched
	opts.Opts.FabricWidth, opts.Opts.FabricHeight = 2, 4
	res, err := RunServer(alloc.Static{Cfg: full}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradations != 1 {
		t.Fatalf("want 1 degradation, got %+v", res.FaultStats)
	}
	if res.Denials == 0 {
		t.Error("expansion back to 4 slices should be denied after a permanent fault")
	}
	if res.Served == 0 {
		t.Error("the degraded server should still serve requests")
	}
}

// TestServerQueueCompaction drives enough requests through the queue to
// trigger the dead-prefix compaction and checks FIFO accounting
// survives it.
func TestServerQueueCompaction(t *testing.T) {
	hot := &workload.RequestStream{
		BaseRate: 400, Amplitude: 100, PeriodMCycles: 2,
		InstrsPerRequest: 1_000,
	}
	opts := ServerOpts{Arrivals: hot, Horizon: 8_000_000, TargetLatencyCycles: 110_000}
	res, err := RunServer(alloc.Static{Cfg: vcore.Config{Slices: 4, L2KB: 512}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Served < 2000 {
		t.Fatalf("served only %d requests; the test needs >1024 pops to exercise compaction", res.Served)
	}
	if res.MeanLatency <= 0 {
		t.Error("latency accounting broke")
	}
	var completed int64
	for _, s := range res.Samples {
		if s.Completed < 0 {
			t.Fatalf("negative completions in sample %+v", s)
		}
		completed += int64(s.Completed)
	}
	if completed != res.Served {
		t.Errorf("per-sample completions sum to %d, served %d", completed, res.Served)
	}
}
