// Package guard is the runtime guardrail subsystem: a set of per-
// component watchdogs and circuit breakers that watch the CASH control
// loop every epoch and contain the failure modes a stack of learned
// estimators is exposed to in production. The paper assumes the Kalman
// filter, the deadbeat controller and the Q-table behave; at fleet
// scale a diverging filter or a corrupted table silently burns money or
// blows the QoS target, so each component gets an explicit safety net
// with hysteresis:
//
//   - Kalman watchdog — detects NaN/Inf filter state, covariance
//     blow-up, and sustained innovation divergence, and resets the
//     filter to a freshly-initialized prior (it re-seeds from the next
//     observation, exactly as at start-up).
//   - Controller sanity clamp — detects a corrupted (non-finite)
//     integrator and resets it, and detects deadbeat oscillation —
//     configuration thrash above a windowed reconfiguration-rate
//     threshold — and rate-limits resizes until the thrash subsides.
//   - Q-table validator — quarantines NaN/Inf or wildly out-of-range
//     learned entries (they revert to the unvisited prior) and falls
//     back to ε-free greedy over the validated entries for a cooldown,
//     so exploration does not immediately steer back into the entries
//     whose state was just discarded.
//   - QoS circuit breakers — after K QoS-violating epochs (mean QoS:
//     K in a row; tail latency: K in a window) the runtime abandons
//     optimization and pins a safe statically-provisioned
//     configuration; optimization re-opens only after a cooldown of
//     met-QoS epochs (classic breaker hysteresis, the fallback
//     discipline Qiu et al. argue ML-driven controllers need). Both are
//     one Breaker with different parameters, as is the runtime's
//     committed QoS guard.
//
// Everything is deterministic — pure functions of the observation
// stream, no wall clock, no randomness — so guarded runs replay
// byte-identically, which is what the chaos soak harness asserts.
package guard

import (
	"math"
	"math/bits"

	"cash/internal/alloc"
	"cash/internal/control"
	"cash/internal/qlearn"
	"cash/internal/vcore"
)

// The guardrail thresholds. Every count is in control epochs (quanta);
// DESIGN.md §3d tabulates them.
const (
	// maxErrVar trips the Kalman watchdog when the error variance
	// exceeds it — orders of magnitude beyond anything a healthy filter
	// reaches with the paper's variances.
	maxErrVar = 1e3
	// maxEstimate trips the watchdog when the base-speed estimate
	// exceeds it (base speed is IPC-like, single digits).
	maxEstimate = 1e4
	// divergenceRatio is the relative innovation |q − s·b̂|/(s·b̂) above
	// which an epoch counts as divergent.
	divergenceRatio = 0.75
	// divergenceEpochs consecutive divergent epochs trip a filter reset:
	// a phase change produces one or two large innovations before the
	// gain catches up; six in a row means the filter is chronically
	// wrong.
	divergenceEpochs = 6

	// maxQ is the Q-table validator's absolute plausibility cap on
	// learned QoS estimates (delivered IPC is bounded by fetch width ×
	// Slices, double digits).
	maxQ = 1e4
	// quarantineCooldown is how many epochs exploration stays disabled
	// after a quarantine.
	quarantineCooldown = 16

	// More than thrashLimit planned-configuration changes in the last
	// thrashWindow epochs trips the rate limiter (the healthy runtime
	// settles to an over/under pair and changes its plan a few times per
	// window).
	thrashWindow = 16
	thrashLimit  = 10
	// rateLimitEpochs is how long the limiter stays engaged once
	// tripped; while engaged, minHoldEpochs is the minimum dwell between
	// planned resizes.
	rateLimitEpochs = 16
	minHoldEpochs   = 4

	// BreakerK consecutive QoS-violating epochs open the QoS breaker.
	BreakerK = 8
	// BreakerCooldown consecutive met-QoS epochs, while pinned, close it
	// again.
	BreakerCooldown = 4

	// tailK or more tail-violating epochs anywhere within the last
	// tailWindow epochs open the tail-latency breaker. Unlike the
	// consecutive-K mean breaker, the windowed count catches bursty tail
	// violations — a p99 that blows the SLO every other epoch never
	// produces K in a row, but it is still a burning tail.
	tailWindow = 16
	tailK      = 8
	// tailCooldown consecutive met-tail epochs, while tail-pinned, close
	// the tail breaker.
	tailCooldown = 4
)

// Stats counts guardrail trips and recoveries over a run. It is plain
// data (JSON-marshalable) so experiment results can carry it into the
// figs reports and the reliability artifact.
type Stats struct {
	// Kalman watchdog.
	KalmanNaNResets  int64 // non-finite state detected
	KalmanCovResets  int64 // covariance blow-up
	KalmanDivResets  int64 // sustained innovation divergence
	ControllerResets int64 // non-finite integrator state

	// Q-table validator.
	QTableQuarantined int64 // entries quarantined (cumulative)
	QTableScrubs      int64 // epochs on which at least one entry was quarantined

	// Thrash limiter.
	ThrashTrips       int64 // times the rate limiter engaged
	RateLimitedPlans  int64 // plans rewritten to hold the current config
	ReconfigsObserved int64 // planned configuration changes seen

	// QoS breaker.
	BreakerTrips      int64 // optimization abandoned, safe config pinned
	BreakerRecoveries int64 // optimization re-entered after cooldown
	PinnedEpochs      int64 // epochs spent pinned
	// MaxViolationStreak is the longest run of consecutive QoS-violating
	// epochs observed while optimization was active (the breaker trips
	// at BreakerK, so with guardrails on this never exceeds it).
	MaxViolationStreak int64

	// Tail-latency breaker.
	TailTrips        int64 // tail breaker opened, safe config pinned
	TailRecoveries   int64 // tail breaker closed after cooldown
	TailPinnedEpochs int64 // epochs spent pinned by the tail breaker
	// MaxTailWindowCount is the largest number of tail-violating epochs
	// ever present in the window while the tail breaker was closed.
	MaxTailWindowCount int64

	// Epochs is how many control epochs the guard has watched.
	Epochs int64
}

// Trips is the total number of guardrail activations of any kind — the
// one-number summary the reliability table prints.
func (s Stats) Trips() int64 {
	return s.KalmanNaNResets + s.KalmanCovResets + s.KalmanDivResets +
		s.ControllerResets + s.QTableScrubs + s.ThrashTrips + s.BreakerTrips +
		s.TailTrips
}

// Guard watches one runtime's control loop. It is created by the
// runtime when guardrails are enabled and called at fixed points of
// every Decide epoch; it owns no goroutines and keeps no references to
// anything but plain state, so it is exactly as deterministic as the
// control loop it protects.
type Guard struct {
	stats Stats

	// Kalman watchdog state.
	divStreak int

	// Q-table cooldown state.
	savedEps    float64
	epsCooldown int

	// Thrash limiter state.
	lastCfg     vcore.Config
	haveLastCfg bool
	changes     window // "plan changed config", last thrashWindow epochs
	limitLeft   int
	holdLeft    int

	mean, tail Breaker
}

// New builds a guard with every breaker closed.
func New() *Guard {
	return &Guard{
		mean: Breaker{K: BreakerK, Window: BreakerK, Cooldown: BreakerCooldown},
		tail: Breaker{K: tailK, Window: tailWindow, Cooldown: tailCooldown},
	}
}

// Stats returns a snapshot of the trip counters.
func (g *Guard) Stats() Stats {
	s := g.stats
	s.BreakerTrips, s.BreakerRecoveries, s.PinnedEpochs = g.mean.trips, g.mean.recoveries, g.mean.pinnedEpochs
	s.MaxViolationStreak = g.mean.maxRun
	s.TailTrips, s.TailRecoveries, s.TailPinnedEpochs = g.tail.trips, g.tail.recoveries, g.tail.pinnedEpochs
	s.MaxTailWindowCount = g.tail.maxCount
	return s
}

// window holds the last n epochs' verdicts (n ≤ 32), newest in bit 0.
type window uint32

func (w *window) push(violated bool, n int) {
	*w <<= 1
	if violated {
		*w |= 1
	}
	*w &= 1<<n - 1
}

func (w window) count() int { return bits.OnesCount32(uint32(w)) }

// Breaker is the hysteresis every pin-the-largest rule shares. It pins
// once K of the last Window sample-bearing epochs violated (Window == K
// is "K in a row") and releases after Cooldown consecutive met epochs,
// clearing its window: the violations that pinned it belong to the
// pre-pin regime and must not instantly re-pin it. While pinned the
// window is frozen.
type Breaker struct {
	K, Window, Cooldown int

	window window
	pinned bool
	met    int // consecutive met epochs while pinned

	trips, recoveries, pinnedEpochs int64

	maxRun   int64 // longest violating run while closed
	maxCount int64 // most violations in one window while closed
}

// Tick feeds the breaker one epoch's verdict and returns whether the
// largest configuration is pinned this epoch. Epochs without a sample
// carry no verdict and leave the state unchanged.
func (b *Breaker) Tick(violated, haveSample bool) bool {
	switch {
	case !haveSample:
	case b.pinned && violated:
		b.met = 0
	case b.pinned:
		if b.met++; b.met >= b.Cooldown {
			b.pinned, b.met, b.window = false, 0, 0
			b.recoveries++
		}
	default:
		b.window.push(violated, b.Window)
		b.maxRun = max(b.maxRun, int64(bits.TrailingZeros32(^uint32(b.window))))
		n := b.window.count()
		b.maxCount = max(b.maxCount, int64(n))
		if n >= b.K {
			b.pinned = true
			b.trips++
		}
	}
	if b.pinned {
		b.pinnedEpochs++
	}
	return b.pinned
}

// Trips counts how often the breaker has pinned.
func (b *Breaker) Trips() int64 { return b.trips }

// BeginEpoch advances the epoch counter. Call once per Decide.
func (g *Guard) BeginEpoch() { g.stats.Epochs++ }

// CheckKalman runs the estimator watchdog. prior is the estimate before
// this epoch's update, applied the speedup the measurement was taken
// under, measured the delivered QoS; haveSample is false on idle epochs
// (no measurement, nothing to judge). On a trip the filter is reset to
// a freshly-initialized prior and the divergence streak cleared. It
// returns whether a reset fired.
func (g *Guard) CheckKalman(est *control.Estimator, prior, applied, measured float64, haveSample bool) bool {
	e, v := est.Estimate(), est.ErrVar()
	switch {
	case math.IsNaN(e) || math.IsInf(e, 0) || math.IsNaN(v) || math.IsInf(v, 0) || e < 0 || v < 0:
		g.stats.KalmanNaNResets++
	case v > maxErrVar || e > maxEstimate:
		g.stats.KalmanCovResets++
	default:
		if !haveSample || !(prior > 0) || !(applied > 0) ||
			math.IsNaN(measured) || math.IsInf(measured, 0) {
			return false
		}
		expected := applied * prior
		if !(expected > 0) || math.IsInf(expected, 0) {
			return false
		}
		if math.Abs(measured-expected)/expected > divergenceRatio {
			g.divStreak++
		} else {
			g.divStreak = 0
		}
		if g.divStreak < divergenceEpochs {
			return false
		}
		g.stats.KalmanDivResets++
	}
	est.Reset()
	g.divStreak = 0
	return true
}

// CheckController resets a corrupted (non-finite or negative) deadbeat
// integrator. The next epoch re-bootstraps the speedup from the target,
// exactly as at start-up.
func (g *Guard) CheckController(ctrl *control.Controller) bool {
	s := ctrl.Speedup()
	if !math.IsNaN(s) && !math.IsInf(s, 0) && s >= 0 {
		return false
	}
	ctrl.Reset()
	g.stats.ControllerResets++
	return true
}

// CheckQTable validates the learned table, quarantining NaN/Inf or
// out-of-range entries. On a quarantine, exploration is suspended
// (ε-free greedy over the validated entries) for quarantineCooldown
// epochs. Call every epoch before the table is used for scheduling; the
// cooldown is also ticked here.
func (g *Guard) CheckQTable(opt *qlearn.Optimizer) int {
	n := opt.QuarantineInvalid(maxQ)
	if n > 0 {
		g.stats.QTableQuarantined += int64(n)
		g.stats.QTableScrubs++
		if g.epsCooldown == 0 {
			g.savedEps = opt.SetEpsilon(0)
		}
		g.epsCooldown = quarantineCooldown
		return n
	}
	if g.epsCooldown > 0 {
		g.epsCooldown--
		if g.epsCooldown == 0 {
			opt.SetEpsilon(g.savedEps)
		}
	}
	return 0
}

// BreakerTick feeds the mean-QoS breaker (BreakerK violating epochs in
// a row) one epoch's delivered QoS against the raw target and returns
// whether the runtime must pin the safe configuration this epoch.
// Epochs without a sample (pure idle) carry no QoS verdict.
func (g *Guard) BreakerTick(measured, target float64, haveSample bool) bool {
	return g.mean.Tick(!(measured >= target), haveSample && target > 0) // NaN violates
}

// TailTick feeds the tail-latency breaker one epoch's tail QoS signal
// (latency budget over p99, so 1.0 = tail exactly on target, below 1 =
// tail violating) and returns whether the runtime must pin the safe
// configuration this epoch. The trip condition is windowed, not
// consecutive: tailK violating epochs within the last tailWindow open
// the breaker, so bursty tails that never violate K times in a row
// still trip it. Epochs without a tail signal (batch runs, pure-idle
// quanta) carry no verdict.
func (g *Guard) TailTick(measured, target float64, haveSample bool) bool {
	return g.tail.Tick(!(measured >= target), haveSample && target > 0) // NaN violates
}

// LimitPlan runs thrash detection over the planned configuration stream
// and, while the rate limiter is engaged, rewrites plans that would
// resize before the minimum dwell has elapsed into "hold the current
// configuration". planned is the plan's leading configuration.
func (g *Guard) LimitPlan(plan alloc.Plan, planned vcore.Config) alloc.Plan {
	changed := g.haveLastCfg && planned != g.lastCfg

	g.changes.push(changed, thrashWindow)
	if changed {
		g.stats.ReconfigsObserved++
	}

	if g.limitLeft == 0 && g.changes.count() > thrashLimit {
		// The change that pushed the window over the limit is itself the
		// thrash; start the hold immediately so it is suppressed too.
		g.stats.ThrashTrips++
		g.limitLeft = rateLimitEpochs
		g.holdLeft = minHoldEpochs
	}

	if g.limitLeft > 0 {
		g.limitLeft--
		if changed {
			if g.holdLeft > 0 {
				// Too soon after the last resize: hold the previous
				// configuration for the whole quantum instead.
				g.stats.RateLimitedPlans++
				hold := g.lastCfg
				var tau int64
				for _, s := range plan.Steps {
					tau += s.MaxCycles
				}
				// Undo this epoch's window entry: the rewritten plan
				// does not change configuration.
				g.changes &^= 1
				g.stats.ReconfigsObserved--
				g.holdLeft--
				return alloc.Plan{Steps: []alloc.Step{{Config: hold, MaxCycles: tau}}}
			}
			g.holdLeft = minHoldEpochs - 1
		} else if g.holdLeft > 0 {
			g.holdLeft--
		}
	}

	g.lastCfg = planned
	g.haveLastCfg = true
	return plan
}
