package cashrt

import (
	"math"
	"testing"

	"cash/internal/alloc"
	"cash/internal/cost"
	"cash/internal/guard"
	"cash/internal/qlearn"
	"cash/internal/vcore"
)

func TestNewRejectsNonsense(t *testing.T) {
	cases := []struct {
		name   string
		target float64
		model  cost.Model
		opts   Options
	}{
		{"nan target", math.NaN(), cost.Default(), Options{}},
		{"inf target", math.Inf(1), cost.Default(), Options{}},
		{"negative target", -0.5, cost.Default(), Options{}},
		{"nan margin", 0.5, cost.Default(), Options{Margin: math.NaN()}},
		{"inf margin", 0.5, cost.Default(), Options{Margin: math.Inf(1)}},
		{"negative probe period", 0.5, cost.Default(), Options{ProbePeriod: -1}},
		{"bad guard style", 0.5, cost.Default(), Options{GuardStyle: 17}},
		{"guard style past committed", 0.5, cost.Default(), Options{GuardStyle: 2}},
	}
	for _, c := range cases {
		if _, err := New(c.target, c.model, c.opts); err == nil {
			t.Errorf("%s: New succeeded, want error", c.name)
		}
	}
}

// TestBackoffCapBoundary is the regression test for the expansion
// backoff at its cap: repeated denials must walk the exact capped
// doubling sequence and then stay pinned at the cap — no overflow, no
// runaway — for arbitrarily many further denials.
func TestBackoffCapBoundary(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1})
	deny := []alloc.Observation{{
		Config: vcore.Config{Slices: 1, L2KB: 64}, Degraded: true, Cycles: 1,
	}}
	want := []int64{1, 2, 4, 8, 16, 32, 32, 32}
	for i, w := range want {
		r.observeDegradation(deny)
		if r.backoffLen != w {
			t.Fatalf("denial %d: backoffLen = %d, want %d", i+1, r.backoffLen, w)
		}
		// The window elapses and the retry is denied again.
		r.backoffLeft = 0
		r.retrying = true
	}
	for i := 0; i < 10_000; i++ {
		r.observeDegradation(deny)
		r.backoffLeft = 0
		r.retrying = true
	}
	if r.backoffLen != maxExpandBackoff {
		t.Fatalf("after 10k denials backoffLen = %d, want pinned at %d", r.backoffLen, maxExpandBackoff)
	}
	if r.Backoffs != int64(len(want))+10_000 {
		t.Fatalf("Backoffs = %d, want %d", r.Backoffs, len(want)+10_000)
	}
}

func TestStateCheckCleanOnHealthyRun(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1, Guardrails: true})
	plant := func(c vcore.Config) float64 { return 0.2 * qlearn.Prior(c) }
	drive(t, r, plant, 30, 100_000)
	if err := r.StateCheck(); err != nil {
		t.Fatalf("healthy guarded run failed StateCheck: %v", err)
	}
	if trips := r.GuardStats().Trips(); trips != 0 {
		t.Errorf("healthy run tripped guardrails %d times: %+v", trips, r.GuardStats())
	}
}

// TestGuardrailsRepairInjectedCorruption is the repair property the
// chaos soak relies on: after adversarial state injection into the
// filter, the controller and the Q-table, one guarded epoch restores a
// clean StateCheck.
func TestGuardrailsRepairInjectedCorruption(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1, Guardrails: true})
	plant := func(c vcore.Config) float64 { return 0.2 * qlearn.Prior(c) }
	drive(t, r, plant, 10, 100_000)

	r.Estimator().Inject(math.NaN(), math.Inf(1))
	r.Controller().Inject(math.NaN())
	r.Optimizer().PokeQ(vcore.Min(), math.NaN())
	if err := r.StateCheck(); err == nil {
		t.Fatal("injection did not corrupt state — test is vacuous")
	}

	drive(t, r, plant, 2, 100_000)
	if err := r.StateCheck(); err != nil {
		t.Fatalf("guarded runtime still corrupt after repair epochs: %v", err)
	}
	s := r.GuardStats()
	if s.KalmanNaNResets == 0 {
		t.Errorf("Kalman watchdog never fired: %+v", s)
	}
	if s.ControllerResets == 0 {
		t.Errorf("controller sanity clamp never fired: %+v", s)
	}
	if s.QTableQuarantined == 0 {
		t.Errorf("Q-table validator never fired: %+v", s)
	}
}

// TestWithoutGuardrailsCorruptionPersists demonstrates the violated
// invariant that motivates the subsystem: with guardrails off the same
// injection leaves NaN in runtime state indefinitely.
func TestWithoutGuardrailsCorruptionPersists(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1})
	plant := func(c vcore.Config) float64 { return 0.2 * qlearn.Prior(c) }
	drive(t, r, plant, 10, 100_000)
	r.Optimizer().PokeQ(vcore.Min(), math.NaN())
	drive(t, r, plant, 5, 100_000)
	if err := r.StateCheck(); err == nil {
		t.Fatal("unguarded runtime cleaned NaN out of the Q-table by itself — guard-off baseline no longer demonstrates the hazard")
	}
}

// TestBreakerPinsAndRecovers drives a plant through an impossible phase
// (QoS physically unreachable) into an easy one, checking the breaker
// pins the safe configuration on exactly the BreakerK-th violating
// epoch and re-enters optimization on exactly the BreakerCooldown-th
// met one.
func TestBreakerPinsAndRecovers(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1, Guardrails: true})
	impossible := true
	plant := func(c vcore.Config) float64 {
		if impossible {
			return 0.001 * qlearn.Prior(c)
		}
		return 0.2 * qlearn.Prior(c)
	}
	const tau = 100_000
	var obs []alloc.Observation
	// step decides one epoch on the previous quantum's observations,
	// checks the breaker state it leaves, and runs its plan.
	step := func(pinned bool, what string) alloc.Plan {
		t.Helper()
		plan := r.Decide(obs, tau)
		// Each trip pins the breaker and each recovery unpins it.
		if s := r.GuardStats(); (s.BreakerTrips > s.BreakerRecoveries) != pinned {
			t.Fatalf("%s: pinned = %v, want %v (stats %+v)", what, !pinned, pinned, r.GuardStats())
		}
		obs = execute(plan, plant, tau, obs[:0])
		return plan
	}
	// The first epoch has no sample; the next BreakerK−1 each violate.
	for i := 0; i < guard.BreakerK; i++ {
		step(false, "before the Kth violating epoch")
	}
	// While pinned, the plan is the safe statically-provisioned config.
	plan := step(true, "Kth violating epoch")
	if len(plan.Steps) != 1 || plan.Steps[0].Config != r.Optimizer().Largest() {
		t.Fatalf("pinned plan = %+v, want the largest configuration", plan)
	}
	s := r.GuardStats()
	if s.BreakerTrips != 1 || s.MaxViolationStreak != guard.BreakerK {
		t.Fatalf("after the trip: %+v, want 1 trip at a streak of %d", s, guard.BreakerK)
	}
	for i := 0; i < 5; i++ {
		step(true, "impossible epoch while pinned")
	}

	// The quantum after this decision runs on the easy plant: its
	// epoch is the first met one.
	impossible = false
	step(true, "last epoch on the impossible plant")
	for i := 0; i < guard.BreakerCooldown-1; i++ {
		step(true, "met epochs below the cooldown")
	}
	step(false, "cooldown-th met epoch")
	s = r.GuardStats()
	if s.BreakerTrips != 1 || s.BreakerRecoveries != 1 {
		t.Fatalf("after recovery: %+v, want 1 trip and 1 recovery", s)
	}
	if want := int64(1 + 5 + 1 + guard.BreakerCooldown - 1); s.PinnedEpochs != want {
		t.Fatalf("PinnedEpochs = %d, want %d", s.PinnedEpochs, want)
	}
}

// TestGuardedRunStaysDeterministic: two identical guarded runs produce
// identical plans and identical stats.
func TestGuardedRunStaysDeterministic(t *testing.T) {
	run := func() (guard.Stats, alloc.Plan) {
		r := MustNew(0.5, cost.Default(), Options{Seed: 7, Guardrails: true})
		plant := func(c vcore.Config) float64 { return 0.15 * qlearn.Prior(c) }
		drive(t, r, plant, 25, 100_000)
		return r.GuardStats(), r.Decide(nil, 100_000)
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 {
		t.Fatalf("stats diverged:\n%+v\n%+v", s1, s2)
	}
	if len(p1.Steps) != len(p2.Steps) {
		t.Fatalf("plans diverged: %+v vs %+v", p1, p2)
	}
	for i := range p1.Steps {
		if p1.Steps[i] != p2.Steps[i] {
			t.Fatalf("plan step %d diverged: %+v vs %+v", i, p1.Steps[i], p2.Steps[i])
		}
	}
}

// TestCommittedGuardHysteresis pins the committed QoS guard's
// hysteresis: it parks at the largest configuration on the second
// consecutive miss, leaves on the second consecutive met epoch, ignores
// idle epochs, and stays frozen while a guardrail breaker pins.
func TestCommittedGuardHysteresis(t *testing.T) {
	const tau = 100_000
	const miss, met, idle = 0.05, 2.0, 0
	type epoch struct {
		qos        float64 // the quantum's measured QoS; idle = no sample
		parked     bool
		recoveries int64
		what       string
	}
	// check reports each epoch's QoS as one whole-quantum observation of
	// the previous plan's first configuration and decides the next plan.
	// Parking shows as a plan of the largest configuration for the whole
	// quantum; on a miss the optimizer may pick that plan by itself, so
	// there only the escalation count tells the guard's state.
	check := func(r *Runtime, epochs []epoch) {
		t.Helper()
		plan := r.Decide(nil, tau)
		for i, e := range epochs {
			var obs []alloc.Observation
			if e.qos != idle {
				obs = []alloc.Observation{{Config: plan.Steps[0].Config, Cycles: tau, Instrs: int64(e.qos * tau), QoS: e.qos}}
			}
			plan = r.Decide(obs, tau)
			parked := len(plan.Steps) == 1 &&
				plan.Steps[0] == alloc.Step{Config: r.Optimizer().Largest(), MaxCycles: tau}
			if (parked != e.parked && (e.parked || e.qos != miss)) || r.Recoveries != e.recoveries {
				t.Fatalf("epoch %d (%s): parked %v after %d escalations, want %v after %d",
					i+1, e.what, parked, r.Recoveries, e.parked, e.recoveries)
			}
		}
	}
	r := MustNew(0.5, cost.Default(), Options{Seed: 1, GuardStyle: GuardCommitted})
	check(r, []epoch{
		{met, false, 0, "met"},
		{miss, false, 0, "first miss"},
		{met, false, 0, "met clears the miss"},
		{miss, false, 0, "first miss"},
		{idle, false, 0, "idle epoch"},
		{miss, true, 1, "second consecutive miss"},
		{met, true, 1, "first met"},
		{miss, true, 1, "miss restarts the cooldown"},
		{met, true, 1, "first met"},
		{idle, true, 1, "idle epoch"},
		{met, false, 1, "second consecutive met"},
		{met, false, 1, "met"},
	})

	// With guardrails armed the mean breaker pins on its BreakerK-th
	// miss and releases on its BreakerCooldown-th met. Meanwhile the
	// committed guard, parked since the second miss, does not count the
	// mets: it is still parked when the breaker lets go, and leaves one
	// met later.
	r = MustNew(0.5, cost.Default(), Options{Seed: 1, GuardStyle: GuardCommitted, Guardrails: true})
	var epochs []epoch
	for i := 1; i <= guard.BreakerK; i++ {
		epochs = append(epochs, epoch{miss, i >= 2, min(int64(i-1), 1), "miss"})
	}
	for i := 1; i < guard.BreakerCooldown; i++ {
		epochs = append(epochs, epoch{met, true, 1, "met while the mean breaker pins"})
	}
	epochs = append(epochs,
		epoch{met, true, 1, "mean breaker releases, committed guard counts its first met"},
		epoch{met, false, 1, "committed guard's second met"})
	check(r, epochs)
	if s := r.GuardStats(); s.BreakerTrips != 1 || s.BreakerRecoveries != 1 {
		t.Fatalf("mean breaker: %+v, want one trip and one recovery", s)
	}
}
