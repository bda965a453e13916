package experiment

import (
	"fmt"
	"math"

	"cash/internal/alloc"
	"cash/internal/cost"
	"cash/internal/fault"
	"cash/internal/guard"
	"cash/internal/slice"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// The control loop (Algorithm 1, §IV) is one quantum engine for both
// kinds of run: batch apps regulate IPC, servers regulate normalized
// request latency, and only the QoS signal differs. The engine owns
// everything a quantum does to the fabric — Decide, the fabric grant,
// reconfiguration, fault ticks, the epoch hook — and hands each
// granted step to a mode, which spends it on its workload and turns a
// finished quantum into a sample.

// Opts configure a run. Zero values select the defaults noted on each
// field.
type Opts struct {
	// Tau is the control quantum in cycles (default 100_000).
	Tau int64
	// Target is the QoS requirement (IPC floor). Required by Run; server
	// runs have no IPC target (their QoS signal is the latency ratio).
	Target float64
	// Model prices configurations (default cost.Default()).
	Model cost.Model
	// Policy is the instruction steering policy (default SteerEarliest).
	Policy ssim.SteeringPolicy
	// Initial is the starting configuration (default the minimal one).
	Initial vcore.Config
	// Tolerance is the QoS slack: a sample violates QoS when its IPC
	// falls below Target*(1-Tolerance) (default 0.05).
	Tolerance float64
	// Seed drives the workload generator (default DefaultSeed).
	Seed uint64
	// Trace, when non-nil, is the app's stream recorded once
	// (workload.Record) for many runs: a batch run replays it instead
	// of generating the stream. The replay reads exactly as the
	// generator does, so no result bit changes. Run returns an error
	// for a trace recorded from another app definition or Seed, and
	// RunServer for any trace: a server's work is its arrival stream.
	Trace *workload.Trace
	// MaxQuanta bounds the run (default: until the workload finishes or
	// the server horizon is reached).
	MaxQuanta int
	// Faults, when non-nil, hosts the run on a fabric chip and replays
	// the schedule into it: every expansion the allocator requests must
	// be granted by the chip (denials are reported to the allocator via
	// Observation.Degraded), and injected tile faults remap or degrade
	// the tenant mid-run. An empty schedule still hosts the run on the
	// chip but changes nothing observable. Nil disables fault injection
	// entirely.
	Faults *fault.Schedule
	// FabricWidth and FabricHeight size the chip when Faults is set
	// (default 16x16, which fully hosts the largest virtual core).
	FabricWidth  int
	FabricHeight int
	// EpochHook, when non-nil, runs after every completed control
	// quantum with the simulator and the quantum index. Returning an
	// error aborts the run. The chaos soak uses it to assert runtime
	// invariants (no NaN in state, simulator consistency) at every
	// epoch rather than only at the end.
	EpochHook func(sim *ssim.Sim, quantum int) error
	// Sims, when non-nil, recycles the run's simulator through a shared
	// pool instead of building one per run; it is released back when the
	// run returns. The pool must have been built with the Table I Slice
	// (slice.DefaultConfig) and the Policy this run resolves to — a
	// recycled simulator is reset to exactly the fresh-build state, so
	// results are unaffected.
	Sims *ssim.SimPool
}

// validate rejects option combinations that would silently corrupt a
// run: NaN/Inf targets vanish into comparisons (every test against NaN
// is false, so QoS violations would never be counted), negative quanta
// or tolerances invert the accounting, and negative fabric dimensions
// panic deep inside the chip model.
func (o Opts) validate() error {
	if math.IsNaN(o.Target) || math.IsInf(o.Target, 0) || o.Target < 0 {
		return fmt.Errorf("experiment: QoS target %v must be non-negative and finite", o.Target)
	}
	if o.Tau < 0 {
		return fmt.Errorf("experiment: control quantum %d must be non-negative", o.Tau)
	}
	if math.IsNaN(o.Tolerance) || math.IsInf(o.Tolerance, 0) || o.Tolerance < 0 || o.Tolerance >= 1 {
		return fmt.Errorf("experiment: tolerance %v must be in [0, 1)", o.Tolerance)
	}
	if o.MaxQuanta < 0 {
		return fmt.Errorf("experiment: max quanta %d must be non-negative", o.MaxQuanta)
	}
	if o.FabricWidth < 0 || o.FabricHeight < 0 {
		return fmt.Errorf("experiment: fabric dimensions %dx%d must be non-negative", o.FabricWidth, o.FabricHeight)
	}
	return o.Model.Validate()
}

// DefaultSeed is the workload seed of a run that sets none.
const DefaultSeed = 42

func (o Opts) withDefaults() Opts {
	if o.Tau == 0 {
		o.Tau = 100_000
	}
	if o.Model == (cost.Model{}) {
		o.Model = cost.Default()
	}
	if o.Initial == (vcore.Config{}) {
		o.Initial = vcore.Min()
	}
	if o.Tolerance == 0 {
		o.Tolerance = 0.05
	}
	if o.Seed == 0 {
		o.Seed = DefaultSeed
	}
	return o
}

// guardStatser is implemented by policies that carry the guardrail
// subsystem (cashrt.Runtime with Options.Guardrails); the engine pulls
// their trip counters into the result without a package dependency on
// the runtime.
type guardStatser interface {
	GuardStats() guard.Stats
}

// mode is what one kind of run adds to the quantum engine.
type mode interface {
	// setup validates the mode's own options and prepares its workload;
	// the engine's opts are resolved and valid, its sim not yet acquired.
	setup() error
	// more reports whether the run continues into another quantum.
	more() bool
	// exhausted reports whether the workload has nothing left for the
	// quantum's remaining steps.
	exhausted() bool
	// begin resets the mode's per-quantum accounting.
	begin()
	// idle spends an idle step of at most budget cycles, returning its
	// observation and whether faults are ticked after it.
	idle(ob alloc.Observation, budget int64) (_ alloc.Observation, tick bool)
	// run spends a run step of at most budget cycles in ob.Config, the
	// configuration the simulator now holds, returning its observation.
	run(ob alloc.Observation, step alloc.Step, budget int64) (alloc.Observation, error)
	// phase is the workload phase each observation reports.
	phase() int
	// sample closes a quantum that lasted cycles.
	sample(cycles int64)
	// finish completes the result. It also runs when the loop fails, so
	// an error returns the partial result.
	finish(g guard.Stats)
}

// engine is the state the quantum loop shares with its mode, which
// embeds it.
type engine struct {
	opts Opts
	sim  *ssim.Sim
	fc   *faultCtx

	faults    FaultStats
	reconfigs int64 // allocator-driven; forced shrinks are faults.Degradations

	// The current quantum: its start cycle, the cycles it has left, and
	// the cost and stall it has accrued.
	qStart    int64
	remaining int64
	qCost     float64
	qStall    int64
}

// drive runs the control loop for m, the mode embedding e, under policy.
func (e *engine) drive(policy alloc.Allocator, opts Opts, m mode) error {
	e.opts = opts.withDefaults()
	if err := e.opts.validate(); err != nil {
		return err
	}
	if err := m.setup(); err != nil {
		return err
	}
	var err error
	if e.opts.Sims != nil {
		e.sim, err = e.opts.Sims.Acquire(e.opts.Initial)
		if err == nil {
			defer e.opts.Sims.Release(e.sim)
		}
	} else {
		e.sim, err = ssim.New(e.opts.Initial, slice.DefaultConfig(), e.opts.Policy)
	}
	if err != nil {
		return err
	}
	if e.fc, err = newFaultCtx(e.opts); err != nil {
		return err
	}
	err = e.loop(policy, m)
	var g guard.Stats
	if gs, ok := policy.(guardStatser); ok {
		g = gs.GuardStats()
	}
	m.finish(g)
	return err
}

func (e *engine) loop(policy alloc.Allocator, m mode) error {
	var prev []alloc.Observation
	for quanta := 1; m.more(); quanta++ {
		if e.opts.MaxQuanta > 0 && quanta > e.opts.MaxQuanta {
			return nil
		}
		plan := policy.Decide(prev, e.opts.Tau)
		if len(plan.Steps) == 0 {
			plan.Steps = []alloc.Step{{Config: e.sim.Config(), MaxCycles: e.opts.Tau}}
		}
		prev = prev[:0]
		// A plan never exceeds the control quantum.
		e.qStart, e.remaining, e.qCost, e.qStall = e.sim.Cycle(), e.opts.Tau, 0, 0
		m.begin()
		if err := e.tickFaults(); err != nil {
			return err
		}
		for _, step := range plan.Steps {
			if step.MaxCycles <= 0 || e.remaining <= 0 || m.exhausted() {
				continue
			}
			ob, tick, err := e.step(m, step)
			if err != nil {
				return err
			}
			ob.Phase = m.phase()
			prev = append(prev, ob)
			if tick {
				if err := e.tickFaults(); err != nil {
					return err
				}
			}
		}
		if e.opts.EpochHook != nil {
			if err := e.opts.EpochHook(e.sim, quanta); err != nil {
				return fmt.Errorf("experiment: epoch hook at quantum %d: %w", quanta, err)
			}
		}
		m.sample(e.sim.Cycle() - e.qStart)
	}
	return nil
}

// step runs one plan step: an idle step goes straight to the mode; a
// run step is granted by the fabric, reconfigured to, and handed to
// the mode with whatever budget the reconfiguration stall left. It
// reports whether faults are ticked after the step.
func (e *engine) step(m mode, step alloc.Step) (alloc.Observation, bool, error) {
	budget := min(step.MaxCycles, e.remaining)
	ob := alloc.Observation{Config: step.Config, Idle: step.Idle, Probe: step.Probe}
	if step.Idle {
		// Idle time is free (§II-B's optimistic assumption, applied
		// uniformly to every policy).
		ob, tick := m.idle(ob, budget)
		return ob, tick, nil
	}
	if granted, denied := e.fc.grant(e.sim.Config(), step.Config, &e.faults); denied {
		ob.Config, ob.Degraded = granted, true
	}
	target := ob.Config
	ob.L2Changed = target.L2KB != e.sim.Config().L2KB
	if target != e.sim.Config() {
		stall, err := e.sim.Reconfigure(target)
		if err != nil {
			return ob, false, fmt.Errorf("experiment: reconfiguring to %s: %w", target, err)
		}
		e.reconfigs++
		// The stall consumes the step's budget and is billed: the
		// resources are held during the flush.
		e.qStall += stall
		budget -= stall
		e.remaining -= stall
		e.qCost += e.opts.Model.Charge(target, stall)
		ob.Cycles += stall
		if budget <= 0 {
			return ob, false, nil
		}
	}
	ob, err := m.run(ob, step, budget)
	return ob, true, err
}

// tickFaults applies due fault actions. A forced shrink stalls the
// pipeline inside the quantum; the drain is billed at the surviving
// (post-shrink) configuration since those are the resources held
// during it.
func (e *engine) tickFaults() error {
	stall, err := e.fc.advance(e.sim, e.sim.Cycle(), &e.faults)
	if err != nil {
		return err
	}
	if stall > 0 {
		e.qStall += stall
		e.remaining -= stall
		e.qCost += e.opts.Model.Charge(e.sim.Config(), stall)
	}
	return nil
}
