package guard

import (
	"math"
	"testing"

	"cash/internal/alloc"
	"cash/internal/control"
	"cash/internal/qlearn"
	"cash/internal/vcore"
)

func TestKalmanWatchdogNaN(t *testing.T) {
	g := New()
	e, _ := control.NewEstimator(0.02, 0.01)
	e.Update(2, 0.8)
	e.Inject(math.NaN(), 0.01)
	if !g.CheckKalman(e, 0.4, 2, 0.8, true) {
		t.Fatal("NaN estimate must trip the watchdog")
	}
	if e.Estimate() != 0 || e.ErrVar() != 0 {
		t.Fatalf("reset filter must be back to the fresh prior, got estimate %v variance %v", e.Estimate(), e.ErrVar())
	}
	if s := g.Stats(); s.KalmanNaNResets != 1 {
		t.Fatalf("KalmanNaNResets = %d, want 1", s.KalmanNaNResets)
	}
	// After reset the filter re-seeds from the next observation.
	e.Update(2, 0.8)
	if got := e.Estimate(); got != 0.4 {
		t.Fatalf("re-seeded estimate = %v, want 0.4", got)
	}
}

func TestKalmanWatchdogCovarianceBlowup(t *testing.T) {
	g := New()
	e, _ := control.NewEstimator(0.02, 0.01)
	// At the caps exactly, the filter is still trusted.
	e.Inject(0.5, maxErrVar)
	if g.CheckKalman(e, 0.5, 1, 0.5, true) {
		t.Fatal("error variance at the cap tripped the watchdog")
	}
	e.Inject(0.5, 2*maxErrVar)
	if !g.CheckKalman(e, 0.5, 1, 0.5, true) {
		t.Fatal("covariance blow-up must trip the watchdog")
	}
	e.Inject(2*maxEstimate, 0.01)
	if !g.CheckKalman(e, 0.5, 1, 0.5, true) {
		t.Fatal("estimate blow-up must trip the watchdog")
	}
	if s := g.Stats(); s.KalmanCovResets != 2 {
		t.Fatalf("KalmanCovResets = %d, want 2", s.KalmanCovResets)
	}
}

func TestKalmanWatchdogDivergence(t *testing.T) {
	g := New()
	e, _ := control.NewEstimator(0.02, 0.01)
	e.Update(1, 0.5)
	// An innovation of exactly divergenceRatio is not divergent: a
	// streak of them never trips.
	for i := 0; i < 2*divergenceEpochs; i++ {
		if g.CheckKalman(e, 0.5, 1, 0.5*(1+divergenceRatio), true) {
			t.Fatalf("innovation at the ratio tripped at epoch %d", i+1)
		}
	}
	// Measured is 10× what the (healthy-looking) estimate predicts.
	for i := 0; i < divergenceEpochs-1; i++ {
		if g.CheckKalman(e, 0.5, 1, 5.0, true) {
			t.Fatalf("tripped after %d divergent epochs, want %d", i+1, divergenceEpochs)
		}
	}
	if !g.CheckKalman(e, 0.5, 1, 5.0, true) {
		t.Fatalf("divergent epoch %d in a row must trip", divergenceEpochs)
	}
	if s := g.Stats(); s.KalmanDivResets != 1 {
		t.Fatalf("KalmanDivResets = %d, want 1", s.KalmanDivResets)
	}
}

func TestKalmanWatchdogDivergenceStreakResets(t *testing.T) {
	g := New()
	e, _ := control.NewEstimator(0.02, 0.01)
	e.Update(1, 0.5)
	diverge := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if g.CheckKalman(e, 0.5, 1, 5.0, true) {
				t.Fatalf("tripped on divergent epoch %d of %d", i+1, n)
			}
		}
	}
	diverge(divergenceEpochs - 1)
	// A convergent epoch clears the streak.
	g.CheckKalman(e, 0.5, 1, 0.5, true)
	diverge(divergenceEpochs - 1)
	// Idle epochs (no sample) neither extend nor clear the streak.
	g.CheckKalman(e, 0.5, 2, 0, false)
	if !g.CheckKalman(e, 0.5, 1, 5.0, true) {
		t.Fatal("idle epoch must not clear the divergence streak")
	}
}

func TestKalmanWatchdogHealthyQuiet(t *testing.T) {
	g := New()
	e, _ := control.NewEstimator(0.02, 0.01)
	for i := 0; i < 100; i++ {
		e.Update(2, 0.8)
		if g.CheckKalman(e, 0.4, 2, 0.8, true) {
			t.Fatalf("watchdog tripped on healthy stream at epoch %d", i)
		}
	}
	if s := g.Stats(); s.Trips() != 0 {
		t.Fatalf("healthy stream produced %d trips", s.Trips())
	}
}

func TestControllerSanity(t *testing.T) {
	g := New()
	c, _ := control.NewController(0.5)
	c.Update(0.4, 0.4)
	if g.CheckController(c) {
		t.Fatal("healthy controller must not trip")
	}
	c.Inject(math.Inf(1))
	if !g.CheckController(c) {
		t.Fatal("Inf integrator must trip")
	}
	if c.Speedup() != 0 {
		t.Fatalf("reset integrator = %v, want 0", c.Speedup())
	}
	c.Inject(math.NaN())
	if !g.CheckController(c) {
		t.Fatal("NaN integrator must trip")
	}
	if s := g.Stats(); s.ControllerResets != 2 {
		t.Fatalf("ControllerResets = %d, want 2", s.ControllerResets)
	}
}

func newOptimizer(t *testing.T) *qlearn.Optimizer {
	t.Helper()
	o, err := qlearn.New(qlearn.DefaultAlpha, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestQTableValidatorQuarantinesAndSuspendsExploration(t *testing.T) {
	g := New()
	o := newOptimizer(t)
	o.PokeQ(vcore.Min(), maxQ)
	if n := g.CheckQTable(o); n != 0 {
		t.Fatalf("an entry at the cap was quarantined (%d)", n)
	}
	o.PokeQ(vcore.Min(), 2*maxQ)
	if n := g.CheckQTable(o); n != 1 {
		t.Fatalf("quarantined %d, want 1", n)
	}
	if epsilon(o) != 0 {
		t.Fatalf("exploration not suspended: ε=%v", epsilon(o))
	}
	// Clean epochs tick the cooldown; ε is restored when it expires.
	for i := 0; i < quarantineCooldown-1; i++ {
		g.CheckQTable(o)
		if epsilon(o) != 0 {
			t.Fatalf("ε restored too early at tick %d", i)
		}
	}
	g.CheckQTable(o)
	if epsilon(o) != 0.25 {
		t.Fatalf("ε not restored after cooldown: %v", epsilon(o))
	}
	s := g.Stats()
	if s.QTableQuarantined != 1 || s.QTableScrubs != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestQTableValidatorReQuarantineExtendsCooldown(t *testing.T) {
	g := New()
	o := newOptimizer(t)
	o.PokeQ(vcore.Min(), math.NaN())
	g.CheckQTable(o)
	g.CheckQTable(o) // one clean epoch of the cooldown spent
	o.PokeQ(vcore.Min(), math.Inf(1))
	g.CheckQTable(o) // re-quarantine: the full cooldown again, ε stays saved
	for i := 0; i < quarantineCooldown-1; i++ {
		g.CheckQTable(o)
		if epsilon(o) != 0 {
			t.Fatalf("ε restored %d epochs into the renewed cooldown", i+1)
		}
	}
	g.CheckQTable(o)
	if epsilon(o) != 0.25 {
		t.Fatalf("ε not restored to original after re-quarantine: %v", epsilon(o))
	}
}

func planFor(c vcore.Config) alloc.Plan {
	return alloc.Plan{Steps: []alloc.Step{{Config: c, MaxCycles: 1000}}}
}

// alternate feeds g thrashLimit+1 plans alternating a and b, which is
// thrashLimit changes: the most the window tolerates.
func alternate(t *testing.T, g *Guard, a, b vcore.Config) {
	t.Helper()
	for i := 0; i <= thrashLimit; i++ {
		c := a
		if i%2 == 1 {
			c = b
		}
		if out := g.LimitPlan(planFor(c), c); out.Steps[0].Config != c {
			t.Fatalf("plan %d held before the window passed the limit", i)
		}
	}
	if s := g.Stats(); s.ThrashTrips != 0 || s.ReconfigsObserved != thrashLimit {
		t.Fatalf("after %d changes: stats %+v, want no trip", thrashLimit, s)
	}
}

func TestThrashLimiter(t *testing.T) {
	g := New()
	a := vcore.Config{Slices: 1, L2KB: 64}
	b := vcore.Config{Slices: 2, L2KB: 128}
	alternate(t, g, a, b) // ends on a
	// One more change inside the window trips the limiter, and the
	// change that tripped it is itself held.
	if out := g.LimitPlan(planFor(b), b); out.Steps[0].Config != a {
		t.Fatalf("tripping plan ran %v, want held at %v", out.Steps[0].Config, a)
	}
	s := g.Stats()
	if s.ThrashTrips != 1 || s.RateLimitedPlans != 1 {
		t.Fatalf("stats %+v, want 1 trip and 1 held plan", s)
	}
}

func TestThrashLimiterHoldPreservesQuantum(t *testing.T) {
	g := New()
	a := vcore.Config{Slices: 1, L2KB: 64}
	b := vcore.Config{Slices: 2, L2KB: 128}
	alternate(t, g, a, b) // ends on a
	// The next change exceeds the limit: this epoch trips and its
	// multi-step plan must be rewritten to hold the previous config for
	// the full quantum.
	in := alloc.Plan{Steps: []alloc.Step{
		{Config: b, MaxCycles: 600}, {Config: a, MaxCycles: 400},
	}}
	out := g.LimitPlan(in, b)
	if len(out.Steps) != 1 || out.Steps[0].Config != a {
		t.Fatalf("held plan = %+v, want single step at %v", out, a)
	}
	if out.Steps[0].MaxCycles != 1000 {
		t.Fatalf("held plan cycles = %d, want the full 1000-cycle quantum", out.Steps[0].MaxCycles)
	}
}

func TestThrashLimiterQuietOnStableStream(t *testing.T) {
	g := New()
	a := vcore.Config{Slices: 2, L2KB: 256}
	b := vcore.Config{Slices: 2, L2KB: 512}
	// A healthy over/under pair changes config rarely.
	for i := 0; i < 100; i++ {
		c := a
		if i%16 == 0 {
			c = b
		}
		out := g.LimitPlan(planFor(c), c)
		if out.Steps[0].Config != c {
			t.Fatalf("stable stream was rate-limited at epoch %d", i)
		}
	}
	if s := g.Stats(); s.ThrashTrips != 0 {
		t.Fatalf("ThrashTrips = %d on stable stream", s.ThrashTrips)
	}
}

// tick feeds a breaker n epochs of the same measurement against a
// target of 1 and fails the test unless every one returns pinned.
func tick(t *testing.T, f func(measured, target float64, haveSample bool) bool, n int, measured float64, pinned bool, what string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if got := f(measured, 1, true); got != pinned {
			t.Fatalf("%s: epoch %d of %d returned pinned=%v, want %v", what, i+1, n, got, pinned)
		}
	}
}

const (
	miss = 0.5 // violates a target of 1
	met  = 1.2
)

func TestBreakerTripAndRecovery(t *testing.T) {
	g := New()
	// K−1 misses, one hit: the streak clears.
	tick(t, g.BreakerTick, BreakerK-1, miss, false, "misses below K")
	tick(t, g.BreakerTick, 1, met, false, "streak-clearing hit")
	// K consecutive misses trip on exactly the Kth.
	tick(t, g.BreakerTick, BreakerK-1, miss, false, "misses below K")
	tick(t, g.BreakerTick, 1, miss, true, "Kth consecutive miss")
	if !pinned(g) {
		t.Fatal("not pinned after trip")
	}
	// While pinned, a miss resets the recovery cooldown.
	tick(t, g.BreakerTick, BreakerCooldown-1, met, true, "met epochs below the cooldown")
	tick(t, g.BreakerTick, 1, miss, true, "miss while pinned")
	tick(t, g.BreakerTick, BreakerCooldown-1, met, true, "met epochs below the cooldown")
	// The cooldown-th consecutive met epoch closes the breaker.
	tick(t, g.BreakerTick, 1, met, false, "last cooldown epoch")
	if pinned(g) {
		t.Fatal("still pinned after recovery")
	}
	s := g.Stats()
	if s.BreakerTrips != 1 || s.BreakerRecoveries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxViolationStreak != BreakerK {
		t.Fatalf("MaxViolationStreak = %d, want %d", s.MaxViolationStreak, BreakerK)
	}
	// Pinned from the tripping epoch up to, not including, the
	// recovering one.
	if want := int64(1 + 2*(BreakerCooldown-1) + 1); s.PinnedEpochs != want {
		t.Fatalf("PinnedEpochs = %d, want %d", s.PinnedEpochs, want)
	}
}

func TestBreakerNaNMeasurementCountsAsViolation(t *testing.T) {
	g := New()
	tick(t, g.BreakerTick, BreakerK-1, math.NaN(), false, "NaN epochs below K")
	tick(t, g.BreakerTick, 1, math.NaN(), true, "Kth NaN epoch")
}

func TestBreakerIdleEpochsAreNeutral(t *testing.T) {
	g := New()
	tick(t, g.BreakerTick, BreakerK-1, miss, false, "misses below K")
	if g.BreakerTick(0, 1, false) { // idle: no verdict
		t.Fatal("idle epoch tripped the breaker")
	}
	tick(t, g.BreakerTick, 1, miss, true, "Kth miss after an idle epoch")
}

func TestStatsTripsAggregates(t *testing.T) {
	s := Stats{KalmanNaNResets: 1, KalmanCovResets: 2, KalmanDivResets: 3,
		ControllerResets: 4, QTableScrubs: 5, ThrashTrips: 6, BreakerTrips: 7}
	if got := s.Trips(); got != 28 {
		t.Fatalf("Trips() = %d, want 28", got)
	}
}

func TestTailBreakerWindowedTrip(t *testing.T) {
	g := New()
	// One violation every third epoch puts at most 6 in any window of
	// 16: the window slides, so the breaker stays closed however long
	// the stream runs.
	for i := 0; i < 4*tailWindow; i++ {
		q := met
		if i%3 == 0 {
			q = miss
		}
		if g.TailTick(q, 1, true) {
			t.Fatalf("sparse violations tripped the tail breaker at epoch %d", i+1)
		}
	}
	if got, want := g.Stats().MaxTailWindowCount, int64((tailWindow+2)/3); got != want {
		t.Fatalf("MaxTailWindowCount = %d, want %d", got, want)
	}

	g = New()
	// Alternating violate/meet epochs never produce K in a row — the
	// consecutive-K mean breaker would stay closed forever — but K
	// violations land inside the window and must trip the tail breaker.
	for i := 0; i < tailK-1; i++ {
		tick(t, g.TailTick, 1, miss, false, "violations below K")
		tick(t, g.TailTick, 1, met, false, "met epoch")
	}
	tick(t, g.TailTick, 1, miss, true, "Kth violation in the window")
	if !pinned(g) {
		t.Fatal("not pinned while tail-pinned")
	}
	if got := g.Stats().TailTrips; got != 1 {
		t.Fatalf("TailTrips = %d, want 1", got)
	}
}

func TestTailBreakerRecoveryClearsWindow(t *testing.T) {
	g := New()
	tick(t, g.TailTick, tailK-1, miss, false, "violations below K")
	tick(t, g.TailTick, 1, miss, true, "Kth violation")
	// A violating epoch while pinned resets the recovery streak.
	tick(t, g.TailTick, 1, miss, true, "violation while pinned")
	tick(t, g.TailTick, tailCooldown-1, met, true, "met epochs below the cooldown")
	tick(t, g.TailTick, 1, met, false, "last cooldown epoch")
	if pinned(g) {
		t.Fatal("still pinned after tail recovery")
	}
	// The window was cleared on recovery: K−1 fresh violations must not
	// re-trip against the pre-pin history, and the Kth trips afresh.
	tick(t, g.TailTick, tailK-1, miss, false, "violations after recovery")
	tick(t, g.TailTick, 1, miss, true, "Kth violation after recovery")
	s := g.Stats()
	if s.TailTrips != 2 || s.TailRecoveries != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if want := int64(1 + 1 + tailCooldown - 1 + 1); s.TailPinnedEpochs != want {
		t.Fatalf("TailPinnedEpochs = %d, want %d", s.TailPinnedEpochs, want)
	}
}

func TestTailBreakerNoSignalIsNeutral(t *testing.T) {
	g := New()
	tick(t, g.TailTick, tailK-1, miss, false, "violations below K")
	// Batch epochs (no tail signal) must not advance the window.
	for i := 0; i < 2*tailWindow; i++ {
		if g.TailTick(0, 1, false) {
			t.Fatal("no-signal epoch pinned the tail breaker")
		}
	}
	tick(t, g.TailTick, 1, miss, true, "Kth violation after no-signal epochs")
}

func TestTailBreakerIndependentOfMeanBreaker(t *testing.T) {
	g := New()
	// Trip only the tail breaker; the mean breaker sees healthy QoS.
	for i := 0; i < tailK; i++ {
		g.BreakerTick(met, 1, true)
		g.TailTick(miss, 1, true)
	}
	s := g.Stats()
	if s.BreakerTrips != 0 || s.TailTrips != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if !pinned(g) {
		t.Fatal("the tail breaker alone must pin")
	}
}

// pinned reports whether either breaker (mean QoS or tail latency)
// currently pins the safe configuration.
func pinned(g *Guard) bool { return g.mean.pinned || g.tail.pinned }

// epsilon reads o's exploration probability: SetEpsilon returns the
// value it replaces, and puts back any value in [0,1) exactly.
func epsilon(o *qlearn.Optimizer) float64 {
	e := o.SetEpsilon(0)
	o.SetEpsilon(e)
	return e
}
