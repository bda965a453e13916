package experiment

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/fault"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// The digests below pin one batch run and one server run, each under an
// injected fault schedule, bit for bit: every sample and every counter
// the result carries. Both runs go through the whole control loop —
// decide, fabric grant (with denials), reconfiguration stalls, forced
// shrinks at fault ticks, idle steps and, for the server, deadline
// shedding — so any change to the order or accounting of the loop moves
// a digest. A pin changes only with a deliberate change of behaviour.
const (
	pinnedRunDigest    = "65cfd40dc3f5245a"
	pinnedServerDigest = "46a8d3d2f6fcd7d7"
)

// idleCounter wraps a runtime and counts the idle steps it plans, so the
// batch pin can assert that it covers the idle-step path.
type idleCounter struct {
	*cashrt.Runtime
	idle int
}

func (c *idleCounter) Decide(prev []alloc.Observation, tau int64) alloc.Plan {
	p := c.Runtime.Decide(prev, tau)
	for _, s := range p.Steps {
		if s.Idle {
			c.idle++
		}
	}
	return p
}

// runDigest folds every sample and counter of a batch result into an
// FNV-1a fingerprint.
func runDigest(r Result) string {
	h := fnv.New64a()
	w := func(format string, a ...any) { _, _ = fmt.Fprintf(h, format, a...) }
	for _, s := range r.Samples {
		w("%d|%s|%x|%x|%v|%d|%d\n", s.Cycle, s.Config,
			math.Float64bits(s.CostRate), math.Float64bits(s.QoS), s.Violated, s.Phase, s.Stall)
	}
	w("%s|%s|%x|%d|%x|%d|%d|%d|%d|%x|%d|%d\n", r.App, r.Allocator,
		math.Float64bits(r.Target), r.Tau, math.Float64bits(r.TotalCost), r.TotalCycles,
		r.TotalInstrs, r.Violations, r.ReconfigCount, math.Float64bits(r.ViolationRate),
		r.StallCycles, len(r.Samples))
	w("%+v|%+v\n", r.FaultStats, r.Guard)
	return fmt.Sprintf("%016x", h.Sum64())
}

// serverRunDigest is runDigest for a server result.
func serverRunDigest(r ServerResult) string {
	h := fnv.New64a()
	w := func(format string, a ...any) { _, _ = fmt.Fprintf(h, format, a...) }
	f := math.Float64bits
	for _, s := range r.Samples {
		w("%d|%x|%x|%x|%x|%x|%v|%v|%d|%d|%d|%d\n", s.Cycle, f(s.RequestRate), f(s.Latency),
			f(s.NormLatency), f(s.P99), f(s.CostRate), s.Violated, s.Starved,
			s.Completed, s.Shed, s.TimedOut, s.QueueDepth)
	}
	w("%s|%x|%x|%d|%x|%d|%x|%x|%x|%x|%d|%d|%x|%d|%d|%d\n", r.Allocator,
		f(r.TotalCost), f(r.MeanLatency), r.Violations, f(r.ViolationRate), r.Served,
		f(r.P50), f(r.P95), f(r.P99), f(r.P999), r.Shed, r.TimedOut,
		f(r.SLOViolationMinutes), r.TailViolations, r.StarvedSamples, r.MaxQueueDepth)
	w("%+v|%+v\n", r.FaultStats, r.Guard)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRunFaultDigestPinned pins a CASH-runtime batch run on a small
// chip under a generated fault schedule.
func TestRunFaultDigestPinned(t *testing.T) {
	sched := fault.MustGenerate(fault.Spec{
		Rate: 1, Horizon: 4_000_000, Width: 2, Height: 2, Seed: 3,
		TransientFrac: 0.9, MeanRepair: 300_000,
	})
	app, _ := workload.ByName("hmmer")
	rt := &idleCounter{Runtime: cashrt.MustNew(0.3, cost.Default(), cashrt.Options{
		Seed: 5, Guardrails: true, ProbePeriod: 4,
	})}
	res, err := Run(app.Scale(0.5), rt, Opts{
		Target: 0.3, MaxQuanta: 40,
		Faults: &sched, FabricWidth: 2, FabricHeight: 2,
		Initial: vcore.Config{Slices: 2, L2KB: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradations == 0 || res.Denials == 0 || res.ReconfigCount == 0 || rt.idle == 0 {
		t.Fatalf("the pinned run no longer covers the loop: %d degradations, %d denials, %d reconfigurations, %d idle steps",
			res.Degradations, res.Denials, res.ReconfigCount, rt.idle)
	}
	if got := runDigest(res); got != pinnedRunDigest {
		t.Errorf("batch run digest %s, pinned %s", got, pinnedRunDigest)
	}
}

// scripted cycles through four plans that between them resize up and
// down, race then idle, ask for more than a small chip holds, and split
// a quantum across two configurations.
type scripted struct{ n int }

func (*scripted) Name() string { return "scripted" }

func (s *scripted) Decide(_ []alloc.Observation, tau int64) alloc.Plan {
	s.n++
	big, mid, small := vcore.Config{Slices: 4, L2KB: 256}, vcore.Config{Slices: 2, L2KB: 128}, vcore.Min()
	switch s.n % 4 {
	case 0:
		return alloc.Plan{Steps: []alloc.Step{{Config: big, MaxCycles: tau}}}
	case 1:
		return alloc.Plan{Steps: []alloc.Step{{Config: mid, MaxCycles: tau / 2}, {Config: mid, MaxCycles: tau, Idle: true}}}
	case 2:
		return alloc.Plan{Steps: []alloc.Step{{Config: vcore.Config{Slices: 8, L2KB: 1024}, MaxCycles: tau}}}
	default:
		return alloc.Plan{Steps: []alloc.Step{{Config: small, MaxCycles: tau / 3}, {Config: big, MaxCycles: tau}}}
	}
}

// TestRunServerFaultDigestPinned pins a scripted server run with
// deadline shedding on a small chip under a generated fault schedule.
func TestRunServerFaultDigestPinned(t *testing.T) {
	sched := fault.MustGenerate(fault.Spec{
		Rate: 1, Horizon: 10_000_000, Width: 2, Height: 4, Seed: 3,
		TransientFrac: 0.9, MeanRepair: 300_000,
	})
	stream := &workload.ShapedStream{
		BaseRate: 2, InstrsPerRequest: 5_000, Jitter: 0.1, Seed: 5,
		Shapes: []workload.RateShape{workload.FlashCrowd{
			EveryMCycles: 4, Magnitude: 30,
			RampMCycles: 0.3, HoldMCycles: 0.8, DecayMCycles: 0.9, Seed: 9,
		}},
	}
	opts := ServerOpts{
		Arrivals:            stream,
		TargetLatencyCycles: 40_000,
		Horizon:             10_000_000,
		QueueCap:            64,
		Shed:                ShedDeadline,
	}
	opts.Faults = &sched
	opts.FabricWidth, opts.FabricHeight = 2, 4
	opts.Initial = vcore.Config{Slices: 2, L2KB: 128}
	res, err := RunServer(&scripted{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradations == 0 || res.Denials == 0 || res.TimedOut == 0 {
		t.Fatalf("the pinned run no longer covers the loop: %d degradations, %d denials, %d timed out",
			res.Degradations, res.Denials, res.TimedOut)
	}
	if got := serverRunDigest(res); got != pinnedServerDigest {
		t.Errorf("server run digest %s, pinned %s", got, pinnedServerDigest)
	}
}
