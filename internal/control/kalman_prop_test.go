package control

import (
	"math"
	"testing"
	"testing/quick"
)

// finiteState asserts the filter invariants that the guard subsystem
// (and ultimately the chaos soak) depend on: the estimate is finite and
// non-negative, and the error variance is finite and — once the filter
// has started — strictly positive.
func finiteState(t *testing.T, e *Estimator, step int, applied, measured float64) {
	t.Helper()
	if math.IsNaN(e.Estimate()) || math.IsInf(e.Estimate(), 0) || e.Estimate() < 0 {
		t.Fatalf("step %d (s=%g q=%g): estimate %v not finite/non-negative",
			step, applied, measured, e.Estimate())
	}
	if math.IsNaN(e.ErrVar()) || math.IsInf(e.ErrVar(), 0) || e.ErrVar() < 0 {
		t.Fatalf("step %d (s=%g q=%g): error variance %v not finite/non-negative",
			step, applied, measured, e.ErrVar())
	}
	if e.started && e.ErrVar() == 0 {
		t.Fatalf("step %d: started filter collapsed to zero variance", step)
	}
}

// TestKalmanAdversarialSequences drives the filter with hand-picked
// pathological observation streams: all-zero QoS, enormous spikes,
// constants (zero innovation forever), alternating extremes, denormals,
// and garbage inputs that must be rejected outright.
func TestKalmanAdversarialSequences(t *testing.T) {
	sequences := map[string][][2]float64{ // {applied, measured}
		"zeros":      {{1, 0}, {2, 0}, {4, 0}, {8, 0}, {1, 0}, {0.5, 0}},
		"huge-spike": {{1, 0.5}, {1, 1e308}, {1, 0.5}, {2, 1e308}, {8, 1e308}, {1, 1e-308}},
		"constant":   {{2, 0.8}, {2, 0.8}, {2, 0.8}, {2, 0.8}, {2, 0.8}, {2, 0.8}},
		"alternate":  {{1, 1e300}, {1, 1e-300}, {8, 1e300}, {0.001, 1e-300}, {1e6, 1e300}},
		"denormal":   {{5e-324, 5e-324}, {5e-324, 1}, {1, 5e-324}, {5e-324, 5e-324}},
		"tiny-speed": {{1e-300, 1}, {1e-300, 1e300}, {1e-300, 0}},
		"rejects": {
			{math.NaN(), 1}, {1, math.NaN()}, {math.Inf(1), 1}, {1, math.Inf(1)},
			{-1, 1}, {0, 1}, {1, -1}, {1, math.Inf(-1)},
		},
	}
	for name, seq := range sequences {
		t.Run(name, func(t *testing.T) {
			e, err := NewEstimator(0.02, 0.01)
			if err != nil {
				t.Fatal(err)
			}
			for i, obs := range seq {
				e.Update(obs[0], obs[1])
				finiteState(t, e, i, obs[0], obs[1])
			}
		})
	}
}

// TestKalmanRejectsGarbageLeavesState checks the rejection path is a
// strict no-op: after the filter converges, feeding it every class of
// invalid observation leaves the estimate bit-identical.
func TestKalmanRejectsGarbageLeavesState(t *testing.T) {
	e, _ := NewEstimator(0.02, 0.01)
	for i := 0; i < 20; i++ {
		e.Update(2, 0.9)
	}
	est, ev := e.Estimate(), e.ErrVar()
	for _, obs := range [][2]float64{
		{math.NaN(), 0.9}, {2, math.NaN()}, {math.Inf(1), 0.9},
		{2, math.Inf(1)}, {0, 0.9}, {-2, 0.9}, {2, -0.9},
	} {
		e.Update(obs[0], obs[1])
		if e.Estimate() != est || e.ErrVar() != ev {
			t.Fatalf("invalid observation (s=%v q=%v) mutated state: est %v->%v errVar %v->%v",
				obs[0], obs[1], est, e.Estimate(), ev, e.ErrVar())
		}
	}
}

// TestKalmanPropertyRandomStreams is the property test proper: random
// observation streams — drawn from a distribution that deliberately
// mixes sane values with extremes spanning the whole float64 range —
// never produce NaN/Inf state or negative covariance.
func TestKalmanPropertyRandomStreams(t *testing.T) {
	f := func(seed int64, raw []uint64) bool {
		e, err := NewEstimator(0.02, 0.01)
		if err != nil {
			return false
		}
		r := seed
		next := func() float64 {
			// xorshift over the test's own state; map to a heavy-tailed
			// positive range with occasional exact zeros.
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			u := uint64(r)
			switch u % 8 {
			case 0:
				return 0
			case 1:
				return math.Ldexp(1, int(u>>32%2040)-1020) // spans ~1e-307..1e307
			default:
				return float64(u%1_000_000) / 1e4
			}
		}
		for i := 0; i < 200; i++ {
			e.Update(next(), next())
		}
		// Fold the fuzz-provided raw bits in as direct observations too,
		// including patterns that decode to NaN/Inf.
		for _, u := range raw {
			e.Update(math.Float64frombits(u), math.Float64frombits(u>>1))
		}
		est, ev := e.Estimate(), e.ErrVar()
		return !math.IsNaN(est) && !math.IsInf(est, 0) && est >= 0 &&
			!math.IsNaN(ev) && !math.IsInf(ev, 0) && ev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestKalmanRecoversAfterSpike checks the backstop is not just "stay
// finite" but "stay useful": after an enormous spike the filter must
// re-converge to a sane stream within a bounded number of updates.
func TestKalmanRecoversAfterSpike(t *testing.T) {
	e, _ := NewEstimator(0.02, 0.01)
	for i := 0; i < 10; i++ {
		e.Update(2, 0.8) // base 0.4
	}
	e.Update(1, 1e308)
	for i := 0; i < 60; i++ {
		e.Update(2, 0.8)
	}
	if got := e.Estimate(); math.Abs(got-0.4) > 0.05 {
		t.Fatalf("estimate %v did not re-converge to 0.4 after spike", got)
	}
}

func TestNewEstimatorRejectsInvalid(t *testing.T) {
	for _, v := range [][2]float64{
		{0, 0.01}, {0.02, 0}, {-1, 0.01}, {0.02, -1},
		{math.NaN(), 0.01}, {0.02, math.NaN()},
		{math.Inf(1), 0.01}, {0.02, math.Inf(1)},
	} {
		if _, err := NewEstimator(v[0], v[1]); err == nil {
			t.Errorf("NewEstimator(%v, %v) succeeded, want error", v[0], v[1])
		}
	}
}

func TestNewControllerRejectsInvalid(t *testing.T) {
	for _, target := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewController(target); err == nil {
			t.Errorf("NewController(%v) succeeded, want error", target)
		}
	}
}

func TestControllerIgnoresCorruptMeasurement(t *testing.T) {
	c, _ := NewController(0.5)
	c.Update(0.4, 0.4) // bootstrap
	s := c.Update(0.45, 0.4)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := c.Update(bad, 0.4); got != s {
			t.Fatalf("Update(%v) changed speedup %v -> %v", bad, s, got)
		}
	}
}
