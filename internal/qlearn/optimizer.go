// Package qlearn implements the CASH LearningOptimizer (§IV-C): it
// learns each configuration's delivered QoS online with a Q-learning
// update (Eqn 7) and converts the controller's speedup demand into the
// minimal-cost two-configuration schedule (Eqns 5–6).
//
// The cost-minimization LP of Eqn 5 has only two constraints, so an
// optimal solution uses at most two configurations: `over` (cheapest
// configuration faster than the demand) and `under` (most
// cost-efficient configuration slower than the demand), time-weighted
// so the average speedup meets the demand exactly. Because learned
// estimates are per-configuration and updated from direct observation,
// the optimizer follows the true — non-convex — performance landscape
// instead of a convex model, which is what lets CASH escape the local
// optima that trap convex approaches (§II, §VI-C).
//
// Internally the optimizer stores q̂k, the EWMA of each configuration's
// *absolute* QoS (Eqn 7). Phase adaptation comes from one-way coupling
// with the Kalman base-speed estimator: when b̂(t) moves by a factor f,
// every learned q̂k is rescaled by f (Rescale), so the whole table
// shifts with the phase immediately — the paper's ŝk = q̂k/q̂0
// normalization — while fresh observations continually re-anchor the
// estimates in measured reality. The coupling being one-way is what
// keeps the two estimators from destabilizing each other.
//
// A second practical rule: the `under` endpoint prefers configurations
// with the same L2 size as `over`. L2 reconfiguration flushes the whole
// cache (§VI-A), so oscillating L2 sizes inside a quantum would destroy
// the warm state that makes large configurations worth paying for;
// Slice-count changes are nearly free (≤79 cycles) and modulate fine.
package qlearn

import (
	"fmt"
	"math"

	"cash/internal/cost"
	"cash/internal/splitmix"
	"cash/internal/vcore"
)

// Defaults for the learning hyper-parameters.
const (
	// DefaultAlpha is the Q-learning rate of Eqn 7.
	DefaultAlpha = 0.35
	// DefaultEpsilon is the exploration probability: how often a
	// schedule endpoint is replaced with an unexplored candidate.
	DefaultEpsilon = 0.03
)

// Schedule is the optimizer's output for one quantum τ: run Over for
// TOver cycles, then Under for TUnder cycles (Algorithm 1). Idle is
// set when even the cheapest configuration overshoots the demand and
// the Under time is spent idling.
type Schedule struct {
	Over, Under   vcore.Config
	TOver, TUnder int64
	Idle          bool
	// ExpectedQoS is the schedule's planned average absolute QoS — the
	// time-weighted learned QoS of its endpoints. When the demand is
	// unachievable this is less than demanded; the runtime feeds the
	// corresponding speedup (not the raw demand) to the Kalman
	// estimator, so the base-speed estimate is not corrupted by
	// saturation.
	ExpectedQoS float64
}

// Optimizer learns per-configuration QoS and emits schedules.
type Optimizer struct {
	cfgs  []vcore.Config
	idxOf map[vcore.Config]int
	rate  []float64 // $/hr per config, aligned with cfgs
	prior []float64 // relative prior shape, aligned with cfgs

	qhat   []float64 // learned absolute QoS per config (EWMA, Eqn 7)
	visits []int64

	// frozen disables learning: speedups are fixed at the prior shape.
	// The convex baseline runs frozen with a concave model installed.
	frozen bool

	// NoSnap disables the snap-on-contradiction update (ablation).
	NoSnap bool

	// StickyL2 is the L2 size (KB) the virtual core currently holds;
	// the runtime refreshes it each quantum. Zero disables stickiness.
	StickyL2 int

	alpha float64
	eps   float64
	rng   splitmix.Rand
}

// New builds an optimizer over the full configuration space. alpha is
// the EWMA learning rate; eps the exploration probability; seed makes
// exploration deterministic.
func New(alpha, eps float64, seed uint64) (*Optimizer, error) {
	return NewRestricted(vcore.Space(), alpha, eps, seed)
}

// NewRestricted builds an optimizer limited to a subset of the
// configuration space — how the coarse-grain heterogeneous comparison
// of §VI-E models a big.LITTLE machine (only a big and a little core
// type exist).
func NewRestricted(cfgs []vcore.Config, alpha, eps float64, seed uint64) (*Optimizer, error) {
	if !(alpha > 0) || !(alpha <= 1) {
		return nil, fmt.Errorf("qlearn: alpha %v outside (0,1]", alpha)
	}
	if !(eps >= 0) || !(eps < 1) {
		return nil, fmt.Errorf("qlearn: epsilon %v outside [0,1)", eps)
	}
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("qlearn: empty configuration set")
	}
	o := &Optimizer{
		cfgs:  append([]vcore.Config(nil), cfgs...),
		idxOf: make(map[vcore.Config]int, len(cfgs)),
		alpha: alpha,
		eps:   eps,
		rng:   splitmix.At(seed*splitmix.Gamma + 1),
	}
	o.rate = make([]float64, len(o.cfgs))
	o.prior = make([]float64, len(o.cfgs))
	o.qhat = make([]float64, len(o.cfgs))
	o.visits = make([]int64, len(o.cfgs))
	for i, c := range o.cfgs {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if _, dup := o.idxOf[c]; dup {
			return nil, fmt.Errorf("qlearn: duplicate configuration %s", c)
		}
		o.idxOf[c] = i
		o.rate[i] = cost.Default().Rate(c)
		o.prior[i] = Prior(c)
	}
	return o, nil
}

// Configs returns the optimizer's configuration set (not a copy; do not
// mutate).
func (o *Optimizer) Configs() []vcore.Config { return o.cfgs }

// Prior is the optimizer's initial relative performance guess for a
// configuration — a smooth concave surface (more Slices and more L2
// help, with diminishing returns), normalized to 1 at the minimal
// configuration. It is deliberately the same *shape* a convex optimizer
// would assume; CASH's learning replaces it with observations, the
// convex baseline keeps a (calibrated) frozen shape.
func Prior(c vcore.Config) float64 {
	l2Idx := 0
	for l2 := vcore.MinL2KB; l2 < c.L2KB; l2 *= 2 {
		l2Idx++
	}
	return math.Pow(float64(c.Slices), 0.55) * (1 + 0.18*float64(l2Idx))
}

// SetRelativeModel installs a frozen relative model (speedup versus the
// minimal configuration) and disables learning — the convex baseline's
// wiring. The absolute scale still tracks observations via refQ, which
// corresponds to the convex controller's own base-speed feedback.
func (o *Optimizer) SetRelativeModel(f func(vcore.Config) float64) {
	for i, c := range o.cfgs {
		o.prior[i] = f(c)
		if o.prior[i] < 1e-9 {
			o.prior[i] = 1e-9
		}
	}
	o.frozen = true
	o.eps = 0
}

// QoSEstimate returns the current absolute QoS estimate for config c,
// scaled by the caller's base-speed estimate b̂.
func (o *Optimizer) QoSEstimate(c vcore.Config, base float64) float64 {
	i, ok := o.idxOf[c]
	if !ok {
		return 0
	}
	return o.effQ(i, base)
}

// Rescale multiplies every learned estimate by f — the runtime calls it
// when the Kalman base-speed estimate moves by that factor, so a phase
// change shifts the whole table at once (Eqn 7's normalization by
// q̂0(t)). The factor is clamped to [0.5, 2] per call so measurement
// noise cannot slingshot the table.
func (o *Optimizer) Rescale(f float64) {
	if o.frozen || f <= 0 {
		return
	}
	if f < 0.5 {
		f = 0.5
	}
	if f > 2 {
		f = 2
	}
	for i := range o.qhat {
		o.qhat[i] *= f
	}
}

// unvisitedPessimism discounts the prior-extrapolated estimate of a
// configuration that has never been observed, so the over/under search
// does not chase optimistic ghosts ("winner's curse"); exploration and
// the QoS guard still visit them.
const unvisitedPessimism = 0.85

// effQ is the effective absolute QoS estimate of config index i; base
// (the current base-speed estimate) scales configurations that have
// never been observed.
func (o *Optimizer) effQ(i int, base float64) float64 {
	if !o.frozen && o.visits[i] > 0 {
		return o.qhat[i]
	}
	q := o.prior[i] * base
	if !o.frozen {
		q *= unvisitedPessimism
	}
	return q
}

// snapRatio bounds how far an observation may disagree with the stored
// estimate before the estimate is replaced outright instead of averaged
// in: across a phase change the old value carries no information, and
// EWMA-decaying toward the truth would burn a quantum per step.
const snapRatio = 1.5

// Observe folds an absolute QoS measurement taken while the system ran
// config c into the learned estimate (Eqn 7's EWMA). Measurements that
// grossly contradict the estimate replace it (see snapRatio); non-finite
// or negative measurements carry no information and are dropped so the
// table can never absorb a NaN from a corrupted counter.
func (o *Optimizer) Observe(c vcore.Config, measuredQoS float64) {
	if !(measuredQoS >= 0) || math.IsInf(measuredQoS, 0) || o.frozen {
		return
	}
	i, ok := o.idxOf[c]
	if !ok {
		return
	}
	snap := o.visits[i] == 0
	if !o.NoSnap && (measuredQoS > o.qhat[i]*snapRatio || measuredQoS < o.qhat[i]/snapRatio) {
		snap = true
	}
	if snap {
		o.qhat[i] = measuredQoS
	} else {
		o.qhat[i] = (1-o.alpha)*o.qhat[i] + o.alpha*measuredQoS
	}
	o.visits[i]++
}

// MaxQoS returns the largest effective QoS estimate — the controller's
// anti-windup bound.
func (o *Optimizer) MaxQoS(base float64) float64 {
	best := 0.0
	for i := range o.cfgs {
		if q := o.effQ(i, base); q > best {
			best = q
		}
	}
	return best
}

// L2SwitchHysteresis is the minimum relative cost saving that justifies
// abandoning the current L2 size. L2 reconfiguration flushes the whole
// cache (§VI-A) and the replacement state re-warms over many quanta, so
// the optimizer only changes L2 when the demand is unreachable at the
// current size or a clearly cheaper schedule exists elsewhere.
const L2SwitchHysteresis = 0.15

// StickyL2 tells the optimizer which L2 size the virtual core currently
// holds (0 = none); the runtime updates it every quantum.

// Schedule solves Eqn 6 for an absolute QoS demand over a quantum of
// tau cycles. base is the current base-speed estimate, used to scale
// configurations that have never been observed.
//
// The search is L2-sticky: if the demand is reachable at the current L2
// size, schedules that keep the cache are preferred unless a different
// L2 size is at least L2SwitchHysteresis cheaper. ε-greedy exploration
// occasionally substitutes the over endpoint with the least-visited
// feasible configuration (bounded to half the quantum).
func (o *Optimizer) Schedule(demandQoS float64, base float64, tau int64) Schedule {
	sched := o.bestIn(demandQoS, base, tau, 0)
	if o.StickyL2 > 0 {
		if stickySched, ok := o.bestInIfFeasible(demandQoS, base, tau, o.StickyL2); ok {
			if o.schedRate(sched) >= o.schedRate(stickySched)*(1-L2SwitchHysteresis) {
				sched = stickySched
			}
		}
	}

	// Exploration: occasionally swap the over endpoint for the
	// least-visited configuration that still meets the demand, so
	// estimates for off-schedule configurations stay alive across
	// phases. Exploration risk is bounded: the explored configuration
	// gets at most half the quantum.
	if o.eps > 0 && o.rand() < o.eps {
		if cand := o.explore(demandQoS, base); cand >= 0 {
			qOver := o.effQ(cand, base)
			qUnder := o.effQ(o.mustIdx(sched.Under), base)
			tOver := tau / 2
			if qOver > qUnder && demandQoS > qUnder {
				frac := (demandQoS - qUnder) / (qOver - qUnder)
				if frac < 0 {
					frac = 0
				}
				if frac > 1 {
					frac = 1
				}
				tOver = int64(float64(tau) * frac)
				if tOver > tau/2 {
					tOver = tau / 2
				}
			}
			sched = Schedule{
				Over: o.cfgs[cand], Under: sched.Under,
				TOver: tOver, TUnder: tau - tOver,
				ExpectedQoS: (qOver*float64(tOver) + qUnder*float64(tau-tOver)) / float64(tau),
			}
		}
	}
	return sched
}

// bestIn returns the cheapest schedule meeting the demand among
// candidates with the given L2 size (0 = all): the better of (a) racing
// the most cost-efficient feasible configuration and idling the balance
// — the optimal LP basis when idle time is free (Eqn 5 with cidle = 0) —
// and (b) the Eqn-6 over/under mix, which wins when every high-
// efficiency configuration is slower than the demand.
func (o *Optimizer) bestIn(demand, base float64, tau int64, l2Filter int) Schedule {
	oIdx, uIdx := o.pickFiltered(demand, base, l2Filter)
	sched := o.build(oIdx, uIdx, demand, base, tau, l2Filter)
	if race, ok := o.raceIdle(demand, base, tau, l2Filter); ok {
		if o.schedRate(race) < o.schedRate(sched) || sched.ExpectedQoS < demand*0.999 {
			sched = race
		}
	}
	return sched
}

// bestInIfFeasible is bestIn, reporting whether the demand is reachable
// at all within the filter.
func (o *Optimizer) bestInIfFeasible(demand, base float64, tau int64, l2Filter int) (Schedule, bool) {
	reachable := false
	for i := range o.cfgs {
		if l2Filter > 0 && o.cfgs[i].L2KB != l2Filter {
			continue
		}
		if o.effQ(i, base) >= demand {
			reachable = true
			break
		}
	}
	if !reachable {
		return Schedule{}, false
	}
	return o.bestIn(demand, base, tau, l2Filter), true
}

// raceIdle builds the race+idle schedule on the most cost-efficient
// configuration whose estimate meets the demand, if one exists.
func (o *Optimizer) raceIdle(demand, base float64, tau int64, l2Filter int) (Schedule, bool) {
	best, bestEff := -1, -1.0
	for i := range o.cfgs {
		if l2Filter > 0 && o.cfgs[i].L2KB != l2Filter {
			continue
		}
		q := o.effQ(i, base)
		if q < demand {
			continue
		}
		if eff := q / o.rate[i]; eff > bestEff {
			best, bestEff = i, eff
		}
	}
	if best < 0 {
		return Schedule{}, false
	}
	q := o.effQ(best, base)
	frac := 1.0
	if q > 0 && demand < q {
		frac = demand / q
	}
	tOver := int64(float64(tau) * frac)
	return Schedule{
		Over: o.cfgs[best], Under: o.cfgs[best],
		TOver: tOver, TUnder: tau - tOver, Idle: true,
		ExpectedQoS: demand,
	}, true
}

// build assembles the Eqn-6 schedule from picked endpoints; l2Filter
// restricts the fallback endpoints of degenerate cases (demand below or
// above the whole candidate set).
func (o *Optimizer) build(overIdx, underIdx int, demand, base float64, tau int64, l2Filter int) Schedule {
	switch {
	case underIdx < 0:
		// Demand below every candidate: run the cheapest and idle.
		c := o.cheapestIn(l2Filter)
		qOver := o.effQ(c, base)
		tOver := tau
		if qOver > 0 && demand < qOver {
			tOver = int64(float64(tau) * demand / qOver)
		}
		return Schedule{
			Over: o.cfgs[c], Under: o.cfgs[c],
			TOver: tOver, TUnder: tau - tOver, Idle: true,
			ExpectedQoS: qOver * float64(tOver) / float64(tau),
		}
	case overIdx < 0:
		// Demand above every candidate: best effort on the fastest.
		f := o.fastest(base)
		return Schedule{Over: o.cfgs[f], Under: o.cfgs[f], TOver: tau, ExpectedQoS: o.effQ(f, base)}
	}

	qOver, qUnder := o.effQ(overIdx, base), o.effQ(underIdx, base)
	frac := 1.0
	if qOver > qUnder {
		frac = (demand - qUnder) / (qOver - qUnder)
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	tOver := int64(float64(tau) * frac)
	return Schedule{
		Over: o.cfgs[overIdx], Under: o.cfgs[underIdx],
		TOver: tOver, TUnder: tau - tOver,
		ExpectedQoS: (qOver*float64(tOver) + qUnder*float64(tau-tOver)) / float64(tau),
	}
}

// schedRate is a schedule's expected cost rate in $/hr (idle time free).
func (o *Optimizer) schedRate(s Schedule) float64 {
	tau := s.TOver + s.TUnder
	if tau == 0 {
		return 0
	}
	c := o.rate[o.mustIdx(s.Over)] * float64(s.TOver)
	if !s.Idle {
		c += o.rate[o.mustIdx(s.Under)] * float64(s.TUnder)
	}
	return c / float64(tau)
}

func (o *Optimizer) mustIdx(c vcore.Config) int {
	i, ok := o.idxOf[c]
	if !ok {
		panic(fmt.Sprintf("qlearn: config %s not in optimizer set", c))
	}
	return i
}

// pickFiltered returns the Eqn-6 over/under indices among candidates
// with the given L2 size (0 = all sizes); −1 when a side is empty.
// The under endpoint additionally prefers the over endpoint's L2 size
// even in unfiltered mode, to keep the cache warm across the
// within-quantum switch.
func (o *Optimizer) pickFiltered(demand, base float64, l2Filter int) (overIdx, underIdx int) {
	overIdx, underIdx = -1, -1
	bestOverCost := math.Inf(1)
	bestRatio := -1.0
	for i := range o.cfgs {
		if l2Filter > 0 && o.cfgs[i].L2KB != l2Filter {
			continue
		}
		q := o.effQ(i, base)
		if q > demand {
			if c := o.rate[i]; c < bestOverCost {
				bestOverCost = c
				overIdx = i
			}
		} else if q < demand {
			if r := q / o.rate[i]; r > bestRatio {
				bestRatio = r
				underIdx = i
			}
		} else if q == demand && q > 0 {
			return i, i
		}
	}
	// Keep the under endpoint on the over endpoint's L2 when possible.
	if overIdx >= 0 && underIdx >= 0 && o.cfgs[underIdx].L2KB != o.cfgs[overIdx].L2KB {
		if alt := o.underSameL2(demand, base, o.cfgs[overIdx].L2KB); alt >= 0 {
			underIdx = alt
		}
	}
	return overIdx, underIdx
}

// underSameL2 returns the most cost-efficient below-demand
// configuration sharing the given L2 size, or −1.
func (o *Optimizer) underSameL2(demand, base float64, l2KB int) int {
	best, bestRatio := -1, -1.0
	for i := range o.cfgs {
		if o.cfgs[i].L2KB != l2KB {
			continue
		}
		q := o.effQ(i, base)
		if q >= demand {
			continue
		}
		if r := q / o.rate[i]; r > bestRatio {
			best, bestRatio = i, r
		}
	}
	return best
}

// Largest returns the highest-rate (biggest) configuration in the set —
// the QoS guard's escalation target.
func (o *Optimizer) Largest() vcore.Config {
	best := 0
	for i := range o.cfgs {
		if o.rate[i] > o.rate[best] {
			best = i
		}
	}
	return o.cfgs[best]
}

// ProbeCandidate returns the most cost-efficient configuration whose
// estimate sits below the demand — the configuration that would become
// the schedule if the phase turned out easier than the (possibly stale)
// estimates say. The runtime measures it in idle tails, where the
// quantum's QoS obligation is already banked, so probing is free of
// QoS risk.
// l2Filter restricts the probe to one L2 size (0 = any); probing within
// the current L2 size is free of cache-flush side effects, so it is the
// default, with occasional cross-L2 probes for capacity downsizing.
// cheaperThan bounds the probe's rate (0 = unbounded): annealing down
// from an expensive configuration, the best-looking cheaper candidate
// is measured first, so the descent takes one cost tier per probe.
func (o *Optimizer) ProbeCandidate(demand, base float64, l2Filter int, cheaperThan float64) (vcore.Config, bool) {
	best, bestQ := -1, -1.0
	for i := range o.cfgs {
		if l2Filter > 0 && o.cfgs[i].L2KB != l2Filter {
			continue
		}
		if cheaperThan > 0 && o.rate[i] >= cheaperThan {
			continue
		}
		q := o.effQ(i, base)
		if q >= demand {
			continue
		}
		if q > bestQ {
			best, bestQ = i, q
		}
	}
	if best < 0 {
		return vcore.Config{}, false
	}
	return o.cfgs[best], true
}

// explore returns the least-visited configuration whose estimate
// exceeds the demand (a valid over candidate), or −1.
func (o *Optimizer) explore(demand, base float64) int {
	best, bestVisits := -1, int64(math.MaxInt64)
	for i := range o.cfgs {
		if o.effQ(i, base) > demand && o.visits[i] < bestVisits {
			best, bestVisits = i, o.visits[i]
		}
	}
	return best
}

// cheapestIn returns the cheapest configuration with the given L2 size
// (0 = any).
func (o *Optimizer) cheapestIn(l2Filter int) int {
	best := -1
	for i := range o.cfgs {
		if l2Filter > 0 && o.cfgs[i].L2KB != l2Filter {
			continue
		}
		if best < 0 || o.rate[i] < o.rate[best] {
			best = i
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

func (o *Optimizer) fastest(base float64) int {
	best := 0
	bestQ := -1.0
	for i := range o.cfgs {
		if q := o.effQ(i, base); q > bestQ {
			best, bestQ = i, q
		}
	}
	return best
}

// rand returns a uniform float64 in [0,1) from the internal generator.
func (o *Optimizer) rand() float64 { return o.rng.Float64() }

// Rate returns the pricing rate of config c in $/hr (0 if unknown).
func (o *Optimizer) Rate(c vcore.Config) float64 {
	if i, ok := o.idxOf[c]; ok {
		return o.rate[i]
	}
	return 0
}

// SetEpsilon overrides the exploration probability and returns the
// previous value. The guard uses it to fall back to ε-free greedy
// operation over validated entries after a quarantine — exploration
// prefers the least-visited configurations, which right after a
// quarantine are exactly the entries whose learned state was just
// discarded. Values outside [0,1) are clamped to 0.
func (o *Optimizer) SetEpsilon(eps float64) float64 {
	old := o.eps
	if !(eps >= 0) || eps >= 1 {
		eps = 0
	}
	o.eps = eps
	return old
}

// entryInvalid reports whether a learned estimate is unusable: NaN,
// ±Inf, negative, or beyond maxQ (0 disables the range check). A zero
// estimate with zero visits is the unvisited state, not corruption.
func entryInvalid(q float64, maxQ float64) bool {
	if math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
		return true
	}
	return maxQ > 0 && q > maxQ
}

// InvalidEntries counts learned estimates that are non-finite, negative
// or beyond maxQ (0 disables the range check) — the state scan the
// chaos harness runs every epoch.
func (o *Optimizer) InvalidEntries(maxQ float64) int {
	n := 0
	for i := range o.qhat {
		if o.visits[i] > 0 && entryInvalid(o.qhat[i], maxQ) {
			n++
		}
	}
	return n
}

// QuarantineInvalid scans the learned table and quarantines entries
// whose estimates are non-finite, negative or beyond maxQ (0 disables
// the range check): the entry reverts to the unvisited state, so
// scheduling falls back to its prior-extrapolated estimate until fresh
// observations re-learn it. It returns how many entries were
// quarantined. The scan is O(|configs|) and cheap enough to run every
// control epoch.
func (o *Optimizer) QuarantineInvalid(maxQ float64) int {
	n := 0
	for i := range o.qhat {
		if o.visits[i] > 0 && entryInvalid(o.qhat[i], maxQ) {
			o.qhat[i] = 0
			o.visits[i] = 0
			n++
		}
	}
	return n
}

// PokeQ overwrites the learned estimate for config c in place, marking
// it visited so the corrupted value is live in scheduling — fault
// injection for the chaos harness (the runtime's own state lives in
// ordinary memory and can be struck like any other; see
// control.Estimator.Inject). Not for production use.
func (o *Optimizer) PokeQ(c vcore.Config, q float64) {
	if i, ok := o.idxOf[c]; ok {
		o.qhat[i] = q
		if o.visits[i] == 0 {
			o.visits[i] = 1
		}
	}
}
