package soak

import (
	"fmt"
	"hash/fnv"
	"math"

	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/experiment"
	"cash/internal/fault"
	"cash/internal/guard"
	"cash/internal/slice"
	"cash/internal/splitmix"
	"cash/internal/ssim"
	"cash/internal/workload"
)

// The guard suite drives the full CASH stack through adversarial
// workloads (phase storms, load spikes, all-miss memory phases), tile
// faults and deliberate runtime-state corruption, asserting what the
// guardrails exist to protect:
//
//   - no NaN/Inf in runtime or simulator state after any quantum,
//   - QoS-violation streaks bounded by the breaker threshold while
//     optimization is active,
//   - under overload (load-spike), a bounded server queue that sheds
//     and a tail breaker that trips.
//
// The replay is an identical re-run. With guardrails off the same
// scenarios violate the state invariant; the tests keep that hazard
// baseline, because the delta is the evidence the guardrails work.

// Each guard run is guardQuanta control quanta of guardTau cycles,
// chasing a QoS floor of guardTarget — low enough that the largest
// configuration meets it outside the deliberately impossible phases.
const (
	guardQuanta = 120
	guardTarget = 0.22
	guardTau    = 100_000
)

// guardScenario couples an adversarial workload with a fault schedule
// and an optional state-corruption plan.
type guardScenario struct {
	name string
	app  func(seed uint64) workload.App
	// faultRate is strikes per million cycles on the hosting fabric.
	faultRate float64
	// corrupt, when true, injects adversarial values directly into the
	// runtime's mutable state at deterministic quanta — modelling soft
	// errors in the Slice the runtime itself executes on.
	corrupt bool
}

var guardScenarios = []guardScenario{
	{name: "phase-storm", app: phaseStormApp, faultRate: 0.4},
	{name: "load-spike", app: loadSpikeApp, faultRate: 0.2},
	{name: "all-miss", app: allMissApp, faultRate: 0.2},
	{name: "corruption", app: steadyApp, faultRate: 0.4, corrupt: true},
}

// guardSuite registers every guard scenario at the given run length.
func guardSuite(quanta int, guardrails bool) []scenario {
	var out []scenario
	for _, g := range guardScenarios {
		out = append(out, scenario{suite: "guard", name: g.name, seed: spreadSeed,
			run: func(seed uint64, _ string, _ bool) Result { return runGuard(g, seed, quanta, guardrails) }})
	}
	return out
}

// phaseStormApp alternates violently between a serial cache-thrashing
// phase and a parallel cache-friendly one every few quanta's worth of
// instructions — the fastest phase churn the generator can express,
// designed to keep the Kalman innovation large and the optimizer's
// table perpetually stale.
func phaseStormApp(seed uint64) workload.App {
	r := rng(seed)
	var phases []workload.Phase
	for i := 0; i < 24; i++ {
		len64 := int64(150_000 + r()%200_000)
		if i%2 == 0 {
			phases = append(phases, workload.Phase{
				Name: fmt.Sprintf("serial%d", i), Instrs: len64,
				Mix:         workload.InstrMix{ALU: 0.3, Load: 0.4, Store: 0.1, Branch: 0.2},
				MeanDepDist: 1.5, DepFrac: 0.95, SecondSrcFrac: 0.5,
				WorkingSetKB: 6144, HotSetKB: 16, HotFrac: 0.05,
				StreamFrac: 0, Stride: 64, MispredictRate: 0.08,
			})
		} else {
			phases = append(phases, workload.Phase{
				Name: fmt.Sprintf("parallel%d", i), Instrs: len64,
				Mix:         workload.InstrMix{ALU: 0.6, Mul: 0.1, Load: 0.15, Store: 0.05, Branch: 0.1},
				MeanDepDist: 12, DepFrac: 0.6, SecondSrcFrac: 0.3,
				WorkingSetKB: 64, HotSetKB: 32, HotFrac: 0.9,
				StreamFrac: 0.5, Stride: 64, MispredictRate: 0.01,
			})
		}
	}
	return workload.App{Name: "chaos-phase-storm", Phases: phases}
}

// loadSpikeApp interleaves long easy phases with short brutal spikes:
// near-zero ILP, maximal mispredictions, working set far beyond any L2.
// The spikes are QoS-impossible by construction; the breaker must pin,
// then recover when the easy phase returns.
func loadSpikeApp(seed uint64) workload.App {
	r := rng(seed)
	var phases []workload.Phase
	for i := 0; i < 8; i++ {
		phases = append(phases, workload.Phase{
			Name: fmt.Sprintf("easy%d", i), Instrs: int64(900_000 + r()%400_000),
			Mix:         workload.InstrMix{ALU: 0.55, Mul: 0.05, Load: 0.2, Store: 0.08, Branch: 0.12},
			MeanDepDist: 8, DepFrac: 0.7, SecondSrcFrac: 0.4,
			WorkingSetKB: 128, HotSetKB: 64, HotFrac: 0.85,
			StreamFrac: 0.3, Stride: 64, MispredictRate: 0.01,
		})
		phases = append(phases, workload.Phase{
			Name: fmt.Sprintf("spike%d", i), Instrs: int64(200_000 + r()%150_000),
			Mix:         workload.InstrMix{ALU: 0.2, Div: 0.1, Load: 0.45, Store: 0.1, Branch: 0.15},
			MeanDepDist: 1, DepFrac: 1, SecondSrcFrac: 1,
			WorkingSetKB: 16384, HotSetKB: 4, HotFrac: 0,
			StreamFrac: 0, Stride: 8192, MispredictRate: 0.5,
		})
	}
	return workload.App{Name: "chaos-load-spike", Phases: phases}
}

// allMissApp is one long memory phase whose working set (16MB) exceeds
// the largest configurable L2 (8MB) with no hot set to hide in: every
// data access walks to memory. No configuration helps much, so the
// runtime sits under target for the whole run — the breaker's
// steady-state regime.
func allMissApp(seed uint64) workload.App {
	r := rng(seed)
	return workload.App{Name: "chaos-all-miss", Phases: []workload.Phase{{
		Name: "all-miss", Instrs: int64(6_000_000 + r()%2_000_000),
		Mix:         workload.InstrMix{ALU: 0.3, Load: 0.4, Store: 0.12, Branch: 0.18},
		MeanDepDist: 3, DepFrac: 0.85, SecondSrcFrac: 0.5,
		WorkingSetKB: 16384, HotSetKB: 4, HotFrac: 0,
		StreamFrac: 0, Stride: 4096, MispredictRate: 0.1,
	}}}
}

// steadyApp is a well-behaved workload; the corruption scenario uses it
// so that every anomaly is attributable to the injected state damage.
func steadyApp(seed uint64) workload.App {
	r := rng(seed)
	return workload.App{Name: "chaos-steady", Phases: []workload.Phase{{
		Name: "steady", Instrs: int64(5_000_000 + r()%2_000_000),
		Mix:         workload.InstrMix{ALU: 0.5, Mul: 0.05, Load: 0.22, Store: 0.09, Branch: 0.14},
		MeanDepDist: 6, DepFrac: 0.75, SecondSrcFrac: 0.4,
		WorkingSetKB: 256, HotSetKB: 64, HotFrac: 0.8,
		StreamFrac: 0.3, Stride: 64, MispredictRate: 0.02,
	}}}
}

// simPool recycles simulators across the soak's many runs. Recycling is
// purely an allocation optimisation — a reset simulator is bit-identical
// to a freshly built one — so replay digests are unaffected. Every run
// here uses the default Slice microarchitecture and steering policy,
// which is what the pool is built for.
var simPool = ssim.NewSimPool(slice.DefaultConfig(), ssim.SteerEarliest)

// rng returns a splitmix64-style generator; the harness derives all of
// its per-seed variation from it, never from a wall clock.
func rng(seed uint64) func() uint64 {
	r := splitmix.At(seed)
	return r.Uint64
}

// runGuard executes one run of a guard scenario; its one counter is
// the guardrail trips.
func runGuard(s guardScenario, seed uint64, quanta int, guardrails bool) (o Result) {
	rt, err := cashrt.New(guardTarget, cost.Default(), cashrt.Options{
		Seed:       seed,
		Guardrails: guardrails,
	})
	if err != nil {
		o.Violations = append(o.Violations, fmt.Sprintf("constructing runtime: %v", err))
		return o
	}

	sch, err := fault.Generate(fault.Spec{
		Rate:    s.faultRate,
		Horizon: int64(quanta+1) * guardTau,
		Width:   16, Height: 16,
		Seed: seed ^ 0xc6a4a7935bd1e995,
	})
	if err != nil {
		o.Violations = append(o.Violations, fmt.Sprintf("generating faults: %v", err))
		return o
	}

	// Corruption plan: three deterministic strikes spread over the run,
	// hitting the filter, the controller and the learned table in turn.
	corruptAt := map[int]int{}
	if s.corrupt {
		r := rng(seed ^ 0xff51afd7ed558ccd)
		for k := 0; k < 3; k++ {
			q := 10 + int(r()%uint64(max(quanta-20, 1)))
			corruptAt[q] = k
		}
	}

	var invariantErrs []string
	hook := func(sim *ssim.Sim, quantum int) error {
		if kind, ok := corruptAt[quantum]; ok {
			switch kind {
			case 0:
				rt.Estimator().Inject(math.NaN(), math.Inf(1))
			case 1:
				rt.Controller().Inject(math.NaN())
			case 2:
				rt.Optimizer().PokeQ(rt.Optimizer().Largest(), math.NaN())
			}
			// The damage lands between quanta; the next Decide is the
			// guard's chance to repair it before it propagates.
			return nil
		}
		if err := sim.CheckInvariants(); err != nil {
			invariantErrs = append(invariantErrs, fmt.Sprintf("quantum %d: %v", quantum, err))
		}
		if err := rt.StateCheck(); err != nil {
			invariantErrs = append(invariantErrs, fmt.Sprintf("quantum %d: %v", quantum, err))
		}
		// Record, don't abort: the soak wants the full run's evidence.
		return nil
	}

	result, err := experiment.Run(s.app(seed), rt, experiment.Opts{
		Target:    guardTarget,
		Tau:       guardTau,
		MaxQuanta: quanta,
		Seed:      seed | 1,
		Faults:    &sch,
		EpochHook: hook,
		Sims:      simPool,
	})
	if err != nil {
		o.Violations = append(o.Violations, fmt.Sprintf("run failed: %v", err))
		return o
	}

	// Cap the recorded state violations (a guard-off corruption run
	// fails every remaining quantum; one line per quantum adds nothing).
	if len(invariantErrs) > 3 {
		invariantErrs = append(invariantErrs[:3],
			fmt.Sprintf("... and %d more", len(invariantErrs)-3))
	}
	o.Violations = append(o.Violations, invariantErrs...)

	// Bounded-streak invariant: while optimization is active the
	// breaker trips at BreakerK consecutive violating epochs, so the
	// recorded maximum streak must never exceed it.
	if guardrails {
		if result.Guard.MaxViolationStreak > guard.BreakerK {
			o.Violations = append(o.Violations, fmt.Sprintf(
				"unpinned QoS-violation streak %d exceeds breaker threshold %d",
				result.Guard.MaxViolationStreak, guard.BreakerK))
		}
	}

	d, trips := digest(result), result.Guard.Trips()
	// The load-spike scenario also soaks the serving path: an open-loop
	// flash-crowd stream that oversubscribes the fabric by construction.
	// The run must complete with bounded queue memory (the cap is the
	// invariant), and with guardrails on the tail breaker must see the
	// overload — the per-quantum mean signal largely cannot, because a
	// saturated quantum completes few or no requests.
	if s.name == "load-spike" {
		sd, tailTrips, violations := serverOverload(seed, quanta, guardrails)
		d ^= sd
		trips += tailTrips
		o.Violations = append(o.Violations, violations...)
	}
	o.Digest = fmt.Sprintf("%016x", d)
	o.Counters = []Counter{{"guard trips", trips}}
	return o
}

// serverQueueCap bounds the overload sub-run's pending queue; small
// enough that flash crowds overflow it within a quantum.
const serverQueueCap = 64

// serverOverload drives one serving run through sustained overload and
// returns its digest, its tail-breaker trips and the invariants it
// broke.
func serverOverload(seed uint64, quanta int, guardrails bool) (d uint64, tailTrips int64, violations []string) {
	rt, err := cashrt.New(1.0, cost.Default(), cashrt.Options{
		Seed:         seed | 1,
		SingleConfig: true,
		GuardStyle:   cashrt.GuardCommitted,
		Margin:       0.15,
		Guardrails:   guardrails,
	})
	if err != nil {
		return 0, 0, []string{fmt.Sprintf("constructing server runtime: %v", err)}
	}
	// Demand: 40 req/Mcycle × 60K instrs ≈ IPC 2.4 sustained before the
	// 7× flash crowds land — beyond what the fabric delivers, so the
	// queue saturates and sheds no matter what the allocator does.
	stream := &workload.ShapedStream{
		BaseRate:         40,
		InstrsPerRequest: 60_000,
		Jitter:           0.1,
		Seed:             seed,
		Shapes: []workload.RateShape{workload.FlashCrowd{
			EveryMCycles: 4, Magnitude: 6,
			RampMCycles: 0.3, HoldMCycles: 0.8, DecayMCycles: 0.9,
			Seed: seed ^ 0xf1a5,
		}},
	}
	sres, err := experiment.RunServer(rt, experiment.ServerOpts{
		Opts:     experiment.Opts{Tau: guardTau, Seed: seed | 1, Sims: simPool},
		Arrivals: stream,
		Horizon:  int64(quanta) * guardTau,
		QueueCap: serverQueueCap,
		Shed:     experiment.ShedDeadline,
	})
	if err != nil {
		return 0, 0, []string{fmt.Sprintf("server overload run failed: %v", err)}
	}
	if sres.MaxQueueDepth > serverQueueCap {
		violations = append(violations, fmt.Sprintf(
			"server queue depth %d exceeded cap %d", sres.MaxQueueDepth, serverQueueCap))
	}
	if sres.Shed == 0 {
		violations = append(violations,
			"overload run shed nothing: the arrival stream no longer oversubscribes the fabric")
	}
	if guardrails && sres.Guard.TailTrips == 0 {
		violations = append(violations,
			"tail breaker never tripped under sustained overload")
	}
	return serverDigest(sres), sres.Guard.TailTrips, violations
}

// serverDigest fingerprints a serving run the way digest fingerprints a
// batch run: every sample and every counter, bit for bit.
func serverDigest(r experiment.ServerResult) uint64 {
	h := fnv.New64a()
	w := func(s string) { _, _ = h.Write([]byte(s)) }
	for _, sm := range r.Samples {
		w(fmt.Sprintf("%d|%x|%x|%v|%v|%d|%d|%d|%d\n",
			sm.Cycle, math.Float64bits(sm.Latency), math.Float64bits(sm.P99),
			sm.Violated, sm.Starved, sm.Completed, sm.Shed, sm.TimedOut, sm.QueueDepth))
	}
	w(fmt.Sprintf("%+v|%+v|%d|%d|%d|%x|%x\n", r.Guard, r.FaultStats,
		r.Served, r.Shed, r.TimedOut,
		math.Float64bits(r.P999), math.Float64bits(r.SLOViolationMinutes)))
	return h.Sum64()
}

// digest folds the run's observable outcome — every sample and every
// guard counter — into an FNV-1a fingerprint. Byte-identical replay is
// asserted by comparing two runs' digests.
func digest(r experiment.Result) uint64 {
	h := fnv.New64a()
	w := func(s string) { _, _ = h.Write([]byte(s)) }
	for _, sm := range r.Samples {
		w(fmt.Sprintf("%d|%s|%x|%x|%v|%d|%d\n",
			sm.Cycle, sm.Config,
			math.Float64bits(sm.QoS), math.Float64bits(sm.CostRate),
			sm.Violated, sm.Phase, sm.Stall))
	}
	w(fmt.Sprintf("%+v|%+v|%d|%d|%x\n", r.Guard, r.FaultStats, r.TotalCycles, r.TotalInstrs,
		math.Float64bits(r.TotalCost)))
	return h.Sum64()
}
