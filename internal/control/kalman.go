package control

import (
	"fmt"
	"math"
)

// Estimator is the Kalman filter of Eqns. 3–4, tracking the
// application's time-varying base speed b(t) — its QoS on the minimal
// configuration — from observations of delivered QoS q(t) under known
// applied speedup s(t):
//
//	b(t) = b(t−1) + δb(t)          (state: base speed drifts at phases)
//	q(t) = s(t−1)·b(t−1) + δq(t)   (measurement)
//
// A phase change is a step in b; the filter's gain rises with the
// innovation, so the estimate converges exponentially — worst-case
// logarithmic in the inter-phase base-speed gap (§IV-B).
//
// Update is numerically total: non-finite or non-positive inputs are
// rejected, and an update whose arithmetic overflows snaps the filter
// back to a measurement-consistent state instead of storing NaN/Inf.
// The estimate and error variance are therefore always finite, the
// variance always positive once started. Deliberate corruption (the
// chaos harness's Inject) is caught by the guard watchdog, not here.
type Estimator struct {
	// ProcessVar is v(t), the assumed variance of base-speed drift per
	// step. Larger values track phases faster but follow noise more.
	ProcessVar float64
	// MeasureVar is r, the QoS measurement noise — the only parameter
	// the paper requires, treated as a property of the hardware.
	MeasureVar float64

	est     float64 // b̂(t)
	errVar  float64 // E(t)
	started bool
}

// maxEstimate bounds the stored base-speed estimate. Base speed is an
// IPC-like quantity; anything beyond this is arithmetic runaway, not a
// measurement, and clamping it keeps subsequent updates finite.
const maxEstimate = 1e9

// NewEstimator builds the filter. processVar and measureVar must be
// positive and finite.
func NewEstimator(processVar, measureVar float64) (*Estimator, error) {
	if !(processVar > 0) || !(measureVar > 0) ||
		math.IsInf(processVar, 0) || math.IsInf(measureVar, 0) {
		return nil, fmt.Errorf("control: Kalman variances must be positive and finite (v=%v, r=%v)",
			processVar, measureVar)
	}
	return &Estimator{ProcessVar: processVar, MeasureVar: measureVar}, nil
}

// Estimate returns the current a-posteriori base-speed estimate b̂(t).
func (e *Estimator) Estimate() float64 { return e.est }

// ErrVar returns the current a-posteriori error variance E(t).
func (e *Estimator) ErrVar() float64 { return e.errVar }

// Update consumes one (appliedSpeedup, measuredQoS) observation and
// returns the new estimate. appliedSpeedup is s(t−1), the speedup the
// system was actually configured for while measuredQoS accumulated.
// Observations that are non-finite, or whose speedup is non-positive,
// carry no usable information and leave the filter unchanged.
func (e *Estimator) Update(appliedSpeedup, measuredQoS float64) float64 {
	if !(appliedSpeedup > 0) || math.IsInf(appliedSpeedup, 0) ||
		math.IsNaN(measuredQoS) || math.IsInf(measuredQoS, 0) || measuredQoS < 0 {
		return e.est
	}
	if !e.started {
		// Initialize directly from the first observation.
		e.est = clampEst(measuredQoS / appliedSpeedup)
		e.errVar = e.MeasureVar
		e.started = true
		return e.est
	}
	// A-priori propagation.
	pri := e.est
	priVar := e.errVar + e.ProcessVar
	// Gain and a-posteriori update (Eqn. 4).
	s := appliedSpeedup
	gain := priVar * s / (s*s*priVar + e.MeasureVar)
	e.est = pri + gain*(measuredQoS-s*pri)
	e.errVar = (1 - gain*s) * priVar
	if e.est < 0 {
		e.est = 0
	}
	// Numerical backstop: a pathological (applied, measured) pair — an
	// enormous spike against an enormous estimate — can overflow the
	// innovation arithmetic, or collapse the gain so the variance
	// underflows. Snap to the state a fresh filter would adopt from this
	// observation rather than storing a non-finite or degenerate value.
	if math.IsNaN(e.est) || math.IsInf(e.est, 0) {
		e.est = clampEst(measuredQoS / appliedSpeedup)
		e.errVar = e.MeasureVar
		return e.est
	}
	e.est = clampEst(e.est)
	if !(e.errVar > 0) || math.IsInf(e.errVar, 0) {
		e.errVar = e.MeasureVar
	}
	return e.est
}

func clampEst(v float64) float64 {
	if v > maxEstimate {
		return maxEstimate
	}
	return v
}

// Reset clears the filter back to a freshly-initialized prior: the next
// observation re-seeds the estimate directly, exactly as at start-up.
// The guard watchdog uses this to recover from a diverged or corrupted
// filter.
func (e *Estimator) Reset() {
	e.est = 0
	e.errVar = 0
	e.started = false
}

// Inject overwrites the filter state in place. It exists for fault
// injection: the chaos harness models soft errors in the runtime's own
// memory (the runtime executes on a Slice like any other code) by
// poking adversarial values here and checking that the watchdog
// recovers. Not for production use.
func (e *Estimator) Inject(est, errVar float64) {
	e.est = est
	e.errVar = errVar
	e.started = true
}
