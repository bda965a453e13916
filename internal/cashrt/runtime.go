// Package cashrt is the CASH runtime (§IV, Algorithm 1): the
// co-designed software half of the system. Once per control quantum it
//
//  1. reads the delivered QoS q(t) from the experiment engine's
//     alloc.Observations (in batch runs, instructions per cycle, whose
//     count the engine checks against the live Slices' performance
//     counters, read directly: the paper's runtime interface network
//     is not modelled, since its latency was never charged),
//  2. updates the Kalman estimate b̂(t) of the application's base speed
//     (phase detection, §IV-B),
//  3. runs the deadbeat controller to produce a speedup demand s(t)
//     (QoS guarantee, §IV-A),
//  4. asks the LearningOptimizer for the minimal-cost two-configuration
//     schedule achieving s(t) (cost minimization, §IV-C), and
//  5. folds the quantum's per-configuration QoS observations back into
//     the learned speedups (Eqn 7).
//
// Every step is O(1) in the number of configurations visited per
// quantum, which is what makes the runtime cheap enough to execute on a
// single Slice (§VI-A).
package cashrt

import (
	"fmt"
	"math"

	"cash/internal/alloc"
	"cash/internal/control"
	"cash/internal/cost"
	"cash/internal/guard"
	"cash/internal/qlearn"
	"cash/internal/vcore"
)

// Options tune the runtime; zero values select the paper's design.
// The Disable*/Single* switches exist for the ablation benchmarks.
type Options struct {
	// Margin is the control headroom: the controller regulates to
	// Target*(1+Margin) so that quantum-level noise around the setpoint
	// rarely crosses the QoS floor (default 0.08). Negative disables.
	Margin float64
	// Seed makes exploration deterministic.
	Seed uint64
	// Configs restricts the configuration space (nil = full space);
	// used by the coarse-grain comparison.
	Configs []vcore.Config

	// GuardStyle selects the QoS-guard behaviour: 0 = off (default; the
	// controller, snap learning and table rescaling recover QoS),
	// GuardCommitted parks at the largest configuration until the
	// target holds.
	GuardStyle int
	// ProbePeriod enables idle-tail probing of cheaper configurations
	// every N quanta (0 = disabled, the default).
	ProbePeriod int
	// NoSnap disables snap-on-contradiction learning (ablation).
	NoSnap bool
	// RescaleMode couples the Kalman estimate to the learned table:
	// 0 = deflate-only (default), 1 = both directions, 2 = off.
	RescaleMode int

	// Guardrails enables the runtime guardrail subsystem (package
	// guard): the Kalman watchdog, controller sanity clamp, Q-table
	// validator, thrash rate limiter and top-level QoS circuit breaker.
	Guardrails bool

	// DisableLearning freezes speedup estimates at their initial model
	// (ablation: what the convex baseline effectively does).
	DisableLearning bool
	// DisableKalman replaces phase tracking with the first-sample base
	// speed (ablation).
	DisableKalman bool
	// SingleConfig forces the whole quantum into the `over`
	// configuration instead of the two-configuration schedule (ablation).
	SingleConfig bool
}

// Runtime implements alloc.Allocator with the CASH control loop.
type Runtime struct {
	ctrl  *control.Controller
	est   *control.Estimator
	opt   *qlearn.Optimizer
	guard *guard.Guard // nil unless Options.Guardrails
	opts  Options

	name        string
	lastSpeedup float64 // the controller's demand s(t)
	lastPlanned float64 // the schedule's expected speedup (≤ demand at saturation)
	iterations  int64
	frozenBase  float64

	// committed is the GuardCommitted QoS guard: two under-target quanta
	// in a row park the runtime at the largest configuration instead of
	// edging up through configurations whose estimates are stale for the
	// new phase, and two met quanta in a row release it. Recoveries
	// counts its escalations (not its releases).
	committed  guard.Breaker
	Recoveries int64

	// probeTick schedules idle-tail probes of cheaper configurations.
	probeTick int64

	// Degradation backoff state: after the fabric denies an expansion
	// (or a fault shrinks the virtual core), the runtime caps its plans
	// at the granted capacity and retries the larger request with capped
	// exponential backoff instead of re-requesting every quantum.
	capCfg      vcore.Config
	backoffLen  int64
	backoffLeft int64
	retrying    bool
	// Backoffs counts backoff windows entered (for reports and tests).
	Backoffs int64
}

// maxExpandBackoff caps the exponential retry interval, in quanta: even
// under a long-lived capacity loss the runtime re-probes the fabric at
// least every 32 quanta, so a repair is discovered promptly without
// hammering the allocator every quantum.
const maxExpandBackoff = 32

// Guard styles.
const (
	GuardOff = iota
	GuardCommitted
)

// processVar and measureVar parameterize the Kalman filter, in
// relative QoS units.
const (
	processVar = 0.02
	measureVar = 0.01
)

// New builds a runtime for the given QoS target, priced at the paper's
// constants: the cost.Model holds no prices and is not read.
// Nonsensical inputs — NaN or non-positive targets, a NaN margin,
// negative probe periods — are rejected here: every one of them would
// otherwise disappear into the control loop (NaN fails all comparisons)
// and surface quanta later as an inexplicable scheduling pathology.
func New(target float64, _ cost.Model, opts Options) (*Runtime, error) {
	if !(target > 0) || math.IsInf(target, 0) {
		return nil, fmt.Errorf("cashrt: QoS target %v must be positive and finite", target)
	}
	if math.IsNaN(opts.Margin) || math.IsInf(opts.Margin, 0) {
		return nil, fmt.Errorf("cashrt: margin %v must be finite", opts.Margin)
	}
	if opts.ProbePeriod < 0 {
		return nil, fmt.Errorf("cashrt: probe period %d must be non-negative", opts.ProbePeriod)
	}
	if opts.GuardStyle < GuardOff || opts.GuardStyle > GuardCommitted {
		return nil, fmt.Errorf("cashrt: unknown guard style %d", opts.GuardStyle)
	}
	if opts.Margin == 0 {
		opts.Margin = 0.08
	}
	if opts.Margin < 0 {
		opts.Margin = 0
	}
	ctrl, err := control.NewController(target * (1 + opts.Margin))
	if err != nil {
		return nil, err
	}
	est, err := control.NewEstimator(processVar, measureVar)
	if err != nil {
		return nil, err
	}
	cfgs := opts.Configs
	if cfgs == nil {
		cfgs = vcore.Space()
	}
	opt, err := qlearn.NewRestricted(cfgs, qlearn.DefaultAlpha, qlearn.DefaultEpsilon, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.DisableLearning {
		// Freeze the optimizer at its smooth prior shape (the ablation
		// equivalent of a convex model that was never calibrated).
		opt.SetRelativeModel(qlearn.Prior)
	}
	opt.NoSnap = opts.NoSnap
	r := &Runtime{ctrl: ctrl, est: est, opt: opt, opts: opts, name: "CASH",
		committed: guard.Breaker{K: 2, Window: 2, Cooldown: 2}}
	if opts.Guardrails {
		r.guard = guard.New()
	}
	return r, nil
}

// MustNew is New for statically-valid arguments.
func MustNew(target float64, _ cost.Model, opts Options) *Runtime {
	r, err := New(target, cost.Default(), opts)
	if err != nil {
		panic(err)
	}
	return r
}

// SetName overrides the reported policy name (the convex baseline and
// ablations reuse this runtime with different wiring).
func (r *Runtime) SetName(name string) { r.name = name }

// Name implements alloc.Allocator.
func (r *Runtime) Name() string { return r.name }

// Optimizer exposes the learning optimizer (for installing static
// models and for tests).
func (r *Runtime) Optimizer() *qlearn.Optimizer { return r.opt }

// Estimator exposes the Kalman filter (for tests).
func (r *Runtime) Estimator() *control.Estimator { return r.est }

// Controller exposes the deadbeat controller (for the chaos harness's
// fault injection and for tests).
func (r *Runtime) Controller() *control.Controller { return r.ctrl }

// GuardStats returns the guardrail trip counters (zero when guardrails
// are disabled).
func (r *Runtime) GuardStats() guard.Stats {
	if r.guard == nil {
		return guard.Stats{}
	}
	return r.guard.Stats()
}

// StateCheck scans every piece of mutable control-loop state for
// non-finite values and reports the first violation found. The chaos
// soak calls it after every quantum: with guardrails on it must never
// fail, because each watchdog repairs its component before the state
// escapes the epoch.
func (r *Runtime) StateCheck() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"kalman estimate", r.est.Estimate()},
		{"kalman error variance", r.est.ErrVar()},
		{"controller speedup", r.ctrl.Speedup()},
		{"last demand", r.lastSpeedup},
		{"last planned speedup", r.lastPlanned},
	}
	for _, c := range checks {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			return fmt.Errorf("cashrt: %s is %v", c.name, c.v)
		}
	}
	if n := r.opt.InvalidEntries(0); n > 0 {
		return fmt.Errorf("cashrt: Q-table holds %d non-finite entries", n)
	}
	return nil
}

// Iterations returns how many control iterations have run.
func (r *Runtime) Iterations() int64 { return r.iterations }

// Speedup returns the most recent control signal s(t).
func (r *Runtime) Speedup() float64 { return r.lastSpeedup }

// lastTailQoS extracts the quantum's tail-latency signal: the last
// observation carrying one (the serving engine publishes TailQoS on
// executed steps; batch runs never set it, leaving the tail breaker
// inert).
func lastTailQoS(prev []alloc.Observation) (float64, bool) {
	for i := len(prev) - 1; i >= 0; i-- {
		if prev[i].TailQoS > 0 {
			return prev[i].TailQoS, true
		}
	}
	return 0, false
}

// Decide implements alloc.Allocator: one iteration of Algorithm 1.
func (r *Runtime) Decide(prev []alloc.Observation, tau int64) alloc.Plan {
	r.iterations++
	r.observeDegradation(prev)

	// Read current QoS: aggregate over the whole previous quantum,
	// including idle time (the customer experiences wall-clock QoS).
	// Probe tails replace idle time; their bonus work is excluded so
	// the controller regulates the *intended* service level — counting
	// it would make the integrator cut the next quantum's demand below
	// the target.
	var instrs, cycles int64
	for _, ob := range prev {
		if !ob.Probe {
			instrs += ob.Instrs
		}
		cycles += ob.Cycles
	}
	var measured float64
	if cycles > 0 {
		measured = float64(instrs) / float64(cycles)
	}

	// Guardrails, stage 1: validate the learned table before anything
	// reads it, and note the filter state before this epoch's update so
	// the watchdog can judge the innovation afterwards.
	if r.guard != nil {
		r.guard.BeginEpoch()
		r.guard.CheckQTable(r.opt)
	}

	// Update the base-speed estimate from the speedup we applied, and
	// shift the learned QoS table by the same factor: a phase change
	// detected by the estimator instantly rescales every
	// configuration's expectation (Eqn 7's normalization by q̂0).
	// The coupling is asymmetric: when the base drops (phase got
	// harder) the whole table deflates at once, because stale optimism
	// violates QoS. When the base rises, estimates are left alone —
	// inflating them would resurrect configurations that observations
	// just falsified; idle-tail probes discover cheapening instead.
	prevBase := r.est.Estimate()
	base := r.updateBase(measured, cycles > 0)
	// Guardrails, stage 2: the Kalman watchdog judges the post-update
	// filter (NaN/Inf state, covariance blow-up, sustained innovation
	// divergence). A reset re-seeds the filter from the next sample; the
	// rescale below is skipped for this epoch because the reset estimate
	// carries no phase information.
	if r.guard != nil {
		applied := r.lastPlanned
		if applied <= 0 {
			applied = 1
		}
		if r.guard.CheckKalman(r.est, prevBase, applied, measured, cycles > 0) {
			base = r.est.Estimate()
		}
	}
	if prevBase > 0 && base > 0 {
		switch {
		case r.opts.RescaleMode == 0 && base < prevBase:
			r.opt.Rescale(base / prevBase)
		case r.opts.RescaleMode == 1 && base != prevBase:
			r.opt.Rescale(base / prevBase)
		}
	}

	// Probe steps double as scale anchors: a probe's measured QoS over
	// its prior shape is a direct reading of the application's current
	// base speed, restoring identifiability when the control loop sits
	// exactly on target (where the quantum-level Kalman innovation is
	// zero by construction).
	for _, ob := range prev {
		if ob.Probe && ob.Cycles > 0 && ob.QoS > 0 {
			r.est.Update(qlearn.Prior(ob.Config), ob.QoS)
		}
	}

	// Learn from the per-configuration observations (before scheduling,
	// so this quantum's decision uses this quantum's evidence). Idle
	// sub-steps carry no information about any configuration, and steps
	// that began with an L2 flush reflect cold-cache behaviour, not the
	// configuration's steady state — the timestamped samples let the
	// runtime discard them (§III-B2).
	for _, ob := range prev {
		if !ob.Idle && !ob.L2Changed && ob.Cycles > 0 {
			r.opt.Observe(ob.Config, ob.QoS)
		}
	}
	// Tell the optimizer which L2 the virtual core currently holds, so
	// its schedules keep the cache warm unless switching clearly pays.
	// Probe tails are not real tenancy and do not move stickiness.
	for i := len(prev) - 1; i >= 0; i-- {
		if !prev[i].Idle && !prev[i].Probe {
			r.opt.StickyL2 = prev[i].Config.L2KB
			break
		}
	}

	// Controller: speedup demand, clamped to what the architecture can
	// deliver (anti-windup: an unachievable demand would otherwise
	// integrate without bound while the plant saturates).
	// Guardrails, stage 3: a corrupted integrator is reset before it is
	// consulted; the Update below then re-seeds the speedup from the
	// target exactly as at start-up.
	if r.guard != nil {
		r.guard.CheckController(r.ctrl)
	}
	speedup := r.ctrl.Update(measured, base)
	demand := speedup * base
	if base <= 0 {
		demand = r.ctrl.Target
	}
	if limit := r.opt.MaxQoS(base) * 1.25; limit > 0 && demand > limit {
		demand = limit
		if base > 0 {
			r.ctrl.Clamp(limit / base)
		}
	}
	r.lastSpeedup = speedup

	// Guardrails, stage 4, then the committed QoS guard: each pins the
	// largest configuration, a safe statically-provisioned one, when QoS
	// keeps failing, and lets go after a cooldown of met epochs. The
	// mean breaker opens on BreakerK violating epochs in a row, the tail
	// breaker on a windowed count of tail-SLO-violating epochs (serving
	// runs publish TailQoS, latency budget over p99, which catches
	// overload where per-quantum means look fine or are absent because
	// nothing completes); both tick every epoch. The committed guard
	// parks after two misses and stays until two mets, since a big
	// configuration's worth only shows once its cache warms, and ticks
	// only on epochs neither breaker pins. While pinned, observations
	// keep flowing into the optimizer, so on release its estimates are
	// current. The pinned plan bypasses the thrash limiter (safety
	// outranks smoothness) but respects fabric capacity backoff.
	rawTarget := r.ctrl.Target / (1 + r.opts.Margin)
	pin := false
	if r.guard != nil {
		meanPinned := r.guard.BreakerTick(measured, rawTarget, cycles > 0)
		tailMeasured, haveTail := lastTailQoS(prev)
		pin = r.guard.TailTick(tailMeasured, 1, haveTail) || meanPinned
	}
	if !pin && r.opts.GuardStyle == GuardCommitted {
		pin = r.committed.Tick(measured < rawTarget, cycles > 0)
		r.Recoveries = r.committed.Trips()
	}
	if pin {
		big := r.opt.Largest()
		if base > 0 {
			r.lastPlanned = r.opt.QoSEstimate(big, base) / base
		} else {
			r.lastPlanned = 1
		}
		r.lastSpeedup = r.lastPlanned
		return r.applyBackoff(alloc.Plan{Steps: []alloc.Step{{Config: big, MaxCycles: tau}}})
	}

	// Optimizer: minimal-cost schedule for the absolute demand.
	sched := r.opt.Schedule(demand, base, tau)
	if base > 0 {
		r.lastPlanned = sched.ExpectedQoS / base
	} else {
		r.lastPlanned = 1
	}
	p := r.planFrom(sched, tau, demand, base)
	// Guardrails, stage 5: deadbeat-oscillation detection. If the
	// planned configuration stream thrashes above the windowed rate
	// threshold, resizes are rate-limited until the thrash subsides.
	if r.guard != nil && len(p.Steps) > 0 {
		p = r.guard.LimitPlan(p, p.Steps[0].Config)
	}
	return r.applyBackoff(p)
}

// observeDegradation updates the expansion-backoff state from the
// previous quantum. A Degraded observation means the fabric could not
// provide the configuration the runtime asked for; its Config field is
// the capacity that was actually granted. Rather than re-requesting the
// denied expansion every quantum, the runtime caps its plans at the
// granted capacity for an exponentially growing number of quanta
// (1, 2, 4, … up to maxExpandBackoff) between retries.
func (r *Runtime) observeDegradation(prev []alloc.Observation) {
	degraded := false
	for _, ob := range prev {
		if ob.Degraded {
			degraded = true
			r.capCfg = ob.Config
		}
	}
	switch {
	case degraded && (r.retrying || r.backoffLen == 0):
		// A fresh denial, or a retry that was denied again: back off
		// (exponentially, capped).
		switch {
		case r.backoffLen == 0:
			r.backoffLen = 1
		case r.backoffLen < maxExpandBackoff:
			// Doubling only below the cap keeps the arithmetic overflow-
			// free no matter how many denials accumulate over a long run.
			r.backoffLen *= 2
			if r.backoffLen > maxExpandBackoff {
				r.backoffLen = maxExpandBackoff
			}
		}
		r.backoffLeft = r.backoffLen
		r.Backoffs++
	case degraded:
		// Capacity shrank further while we were already capped (a new
		// fault): restart the current wait at the new, smaller cap.
		r.backoffLeft = r.backoffLen
	case r.retrying:
		// The retry was granted: capacity is back.
		r.backoffLen, r.backoffLeft = 0, 0
		r.capCfg = vcore.Config{}
	case r.backoffLeft > 0:
		r.backoffLeft--
	}
	r.retrying = false
}

// applyBackoff clamps a plan to the granted capacity while a backoff
// window is open. When the window has elapsed, the plan is released
// unclamped as the retry; observeDegradation learns next quantum
// whether the fabric granted it.
func (r *Runtime) applyBackoff(p alloc.Plan) alloc.Plan {
	if r.backoffLen == 0 {
		return p
	}
	exceeds := false
	for _, s := range p.Steps {
		if s.Config.Slices > r.capCfg.Slices || s.Config.L2KB > r.capCfg.L2KB {
			exceeds = true
			break
		}
	}
	if !exceeds {
		return p
	}
	if r.backoffLeft <= 0 {
		r.retrying = true
		return p
	}
	for i := range p.Steps {
		if p.Steps[i].Config.Slices > r.capCfg.Slices {
			p.Steps[i].Config.Slices = r.capCfg.Slices
		}
		if p.Steps[i].Config.L2KB > r.capCfg.L2KB {
			p.Steps[i].Config.L2KB = r.capCfg.L2KB
		}
	}
	return p
}

// updateBase advances the Kalman filter (or the ablated fixed estimate)
// and returns b̂(t).
func (r *Runtime) updateBase(measured float64, haveSample bool) float64 {
	if !haveSample {
		return r.est.Estimate()
	}
	applied := r.lastPlanned
	if applied <= 0 {
		// First quantum ran on whatever initial configuration the
		// engine chose; approximate its speedup as 1 (the base).
		applied = 1
	}
	if r.opts.DisableKalman {
		if r.frozenBase == 0 && measured > 0 {
			r.frozenBase = measured / applied
		}
		return r.frozenBase
	}
	return r.est.Update(applied, measured)
}

// planFrom converts an optimizer schedule into engine steps.
func (r *Runtime) planFrom(s qlearn.Schedule, tau int64, demand, base float64) alloc.Plan {
	if r.opts.SingleConfig {
		return alloc.Plan{Steps: []alloc.Step{{Config: s.Over, MaxCycles: tau}}}
	}
	if s.Idle {
		// Race the quantum's QoS obligation, then idle. Racing to the
		// observed instruction count (rather than the planned cycle
		// split) makes the quantum robust to estimate error.
		obligation := int64(s.ExpectedQoS * float64(tau) * 1.02)
		steps := []alloc.Step{{Config: s.Over, MaxCycles: tau, TargetInstrs: obligation}}
		r.probeTick++
		if r.opts.ProbePeriod > 0 && r.probeTick%int64(r.opts.ProbePeriod) == 0 {
			// Probe only within the current L2 size: a cross-L2 probe
			// would flush the warm cache the racing configuration paid
			// for. Smaller L2 sizes are reached through the scale
			// anchor the probe provides (see Decide) plus the
			// hysteresis comparison in the optimizer.
			filter := s.Over.L2KB
			cheaper := r.opt.Rate(s.Over)
			if cand, ok := r.opt.ProbeCandidate(demand, base, filter, cheaper); ok && cand != s.Over {
				// Spend the tail measuring a cheaper configuration
				// instead of idling.
				steps = append(steps, alloc.Step{Config: cand, MaxCycles: tau, Probe: true})
				return alloc.Plan{Steps: steps}
			}
		}
		steps = append(steps, alloc.Step{Config: s.Over, MaxCycles: tau, Idle: true})
		return alloc.Plan{Steps: steps}
	}
	var steps []alloc.Step
	if s.TOver > 0 {
		steps = append(steps, alloc.Step{Config: s.Over, MaxCycles: s.TOver})
	}
	if s.TUnder > 0 {
		steps = append(steps, alloc.Step{Config: s.Under, MaxCycles: s.TUnder})
	}
	if len(steps) == 0 {
		steps = []alloc.Step{{Config: s.Over, MaxCycles: tau}}
	}
	return alloc.Plan{Steps: steps}
}

// String describes the runtime's wiring, for reports.
func (r *Runtime) String() string {
	return fmt.Sprintf("%s(alpha=%.2f eps=%.2f learn=%v kalman=%v twoCfg=%v)",
		r.name, qlearn.DefaultAlpha, qlearn.DefaultEpsilon,
		!r.opts.DisableLearning, !r.opts.DisableKalman, !r.opts.SingleConfig)
}
