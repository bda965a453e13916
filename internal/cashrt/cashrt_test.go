package cashrt

import (
	"strings"
	"testing"

	"cash/internal/alloc"
	"cash/internal/cost"
	"cash/internal/qlearn"
	"cash/internal/vcore"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, cost.Default(), Options{}); err == nil {
		t.Error("zero target must fail")
	}
	r := MustNew(0.5, cost.Default(), Options{})
	if r.Name() != "CASH" {
		t.Errorf("Name = %q", r.Name())
	}
	if !strings.Contains(r.String(), "CASH") {
		t.Errorf("String = %q", r.String())
	}
}

func TestBootstrapPlan(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1})
	plan := r.Decide(nil, 100_000)
	if len(plan.Steps) == 0 {
		t.Fatal("first quantum must produce a plan")
	}
	var total int64
	for _, s := range plan.Steps {
		if s.MaxCycles <= 0 && s.TargetInstrs <= 0 {
			t.Errorf("useless step: %+v", s)
		}
		if !s.Idle {
			total += s.MaxCycles
		}
	}
	if total <= 0 {
		t.Error("plan must run something")
	}
	if r.Iterations() != 1 {
		t.Errorf("Iterations = %d", r.Iterations())
	}
}

// drive runs the runtime against a synthetic plant where config c
// delivers qos[c] exactly, returning the final quantum's observations.
func drive(t *testing.T, r *Runtime, qos func(vcore.Config) float64, quanta int, tau int64) []alloc.Observation {
	t.Helper()
	var prev []alloc.Observation
	for i := 0; i < quanta; i++ {
		prev = execute(r.Decide(prev, tau), qos, tau, prev[:0])
	}
	return prev
}

// execute runs one quantum's plan on the plant, appending its
// observations to obs.
func execute(plan alloc.Plan, qos func(vcore.Config) float64, tau int64, obs []alloc.Observation) []alloc.Observation {
	remaining := tau
	for _, s := range plan.Steps {
		if remaining <= 0 || s.MaxCycles <= 0 {
			continue
		}
		c := s.MaxCycles
		if c > remaining {
			c = remaining
		}
		ob := alloc.Observation{Config: s.Config, Cycles: c, Idle: s.Idle, Probe: s.Probe}
		if !s.Idle {
			q := qos(s.Config)
			instrs := int64(q * float64(c))
			if s.TargetInstrs > 0 && instrs > s.TargetInstrs {
				instrs = s.TargetInstrs
				c = int64(float64(instrs) / q)
				ob.Cycles = c
			}
			ob.Instrs = instrs
			ob.QoS = q
		}
		remaining -= c
		obs = append(obs, ob)
	}
	return obs
}

func TestConvergesToTargetOnStaticPlant(t *testing.T) {
	target := 0.5
	r := MustNew(target, cost.Default(), Options{Seed: 1})
	// Plant: QoS grows with resources, exactly the prior's shape scaled
	// to base 0.2.
	plant := func(c vcore.Config) float64 { return 0.2 * qlearn.Prior(c) }

	// After convergence the last quantum must deliver at least the
	// target (with its margin) on aggregate.
	last := drive(t, r, plant, 30, 100_000)
	var instrs, cycles int64
	for _, ob := range last {
		instrs += ob.Instrs
		cycles += ob.Cycles
	}
	if cycles == 0 {
		t.Fatal("no work scheduled")
	}
	q := float64(instrs) / float64(cycles)
	if q < target*0.95 {
		t.Errorf("after 30 quanta the runtime delivers %.3f, want >= %.3f", q, target*0.95)
	}
	if q > target*1.6 {
		t.Errorf("gross over-delivery (%.3f) wastes money", q)
	}
}

func TestSingleConfigOption(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1, SingleConfig: true})
	plant := func(c vcore.Config) float64 { return 0.2 * qlearn.Prior(c) }
	drive(t, r, plant, 5, 100_000)
	plan := r.Decide(nil, 100_000)
	if len(plan.Steps) != 1 {
		t.Errorf("SingleConfig plans must have one step, got %d", len(plan.Steps))
	}
}

func TestGuardCommittedEscalates(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1, GuardStyle: GuardCommitted})
	// Plant that delivers almost nothing: persistent misses.
	plant := func(c vcore.Config) float64 { return 0.01 }
	drive(t, r, plant, 8, 100_000)
	if r.Recoveries == 0 {
		t.Error("persistent shortfall must trigger the guard")
	}
	plan := r.Decide(nil, 100_000)
	if len(plan.Steps) != 1 || plan.Steps[0].Config != r.Optimizer().Largest() {
		t.Errorf("guard mode must park at the largest configuration, got %+v", plan.Steps)
	}
}

func TestGuardOffByDefault(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 1})
	plant := func(c vcore.Config) float64 { return 0.01 }
	drive(t, r, plant, 8, 100_000)
	if r.Recoveries != 0 {
		t.Errorf("default guard style is off; Recoveries = %d", r.Recoveries)
	}
}

func TestProbePeriodEmitsProbes(t *testing.T) {
	r := MustNew(0.3, cost.Default(), Options{Seed: 1, ProbePeriod: 1})
	// A plant where mid-size configurations are needed, so race+idle
	// schedules have cheaper configurations left to probe.
	plant := func(c vcore.Config) float64 { return 0.1 * qlearn.Prior(c) }
	probes := 0
	var prev []alloc.Observation
	for i := 0; i < 12; i++ {
		plan := r.Decide(prev, 100_000)
		prev = prev[:0]
		for _, s := range plan.Steps {
			if s.Probe {
				probes++
			}
			q := plant(s.Config)
			instrs := int64(q * 100_000)
			if s.TargetInstrs > 0 && instrs > s.TargetInstrs {
				instrs = s.TargetInstrs
			}
			prev = append(prev, alloc.Observation{
				Config: s.Config, Cycles: 50_000, Instrs: instrs,
				QoS: q, Idle: s.Idle, Probe: s.Probe,
			})
		}
	}
	if probes == 0 {
		t.Error("ProbePeriod=1 should emit idle-tail probes")
	}
}

func TestCoarseAdaptiveRestriction(t *testing.T) {
	r, err := NewCoarseAdaptive(0.4, cost.Default(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "CoarseGrain,adaptive" {
		t.Errorf("Name = %q", r.Name())
	}
	big, little := BigLittle()
	plant := func(c vcore.Config) float64 {
		if c == big {
			return 0.8
		}
		return 0.2
	}
	var prev []alloc.Observation
	for i := 0; i < 15; i++ {
		plan := r.Decide(prev, 100_000)
		prev = prev[:0]
		for _, s := range plan.Steps {
			if s.Config != big && s.Config != little {
				t.Fatalf("coarse allocator used %s, outside {%s,%s}", s.Config, big, little)
			}
			q := plant(s.Config)
			prev = append(prev, alloc.Observation{
				Config: s.Config, Cycles: 50_000,
				Instrs: int64(q * 50_000), QoS: q, Idle: s.Idle, Probe: s.Probe,
			})
		}
	}
}

func TestBigLittle(t *testing.T) {
	big, little := BigLittle()
	if big != (vcore.Config{Slices: 8, L2KB: 4096}) {
		t.Errorf("big = %s, want 8s/4096KB (§VI-E)", big)
	}
	if little != (vcore.Config{Slices: 1, L2KB: 128}) {
		t.Errorf("little = %s, want 1s/128KB (§VI-E)", little)
	}
}

func TestConvexModelIsConcaveAlongCost(t *testing.T) {
	r, err := NewConvex(0.5, cost.Default(), func(c vcore.Config) float64 {
		// A bumpy, non-convex calibration: the hull must smooth it.
		v := qlearn.Prior(c)
		if c.Slices%2 == 0 {
			v *= 0.6
		}
		return v
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "ConvexOptimization" {
		t.Errorf("Name = %q", r.Name())
	}
	model := cost.Default()
	cfgs := model.CheapestFirst()
	opt := r.Optimizer()
	// The installed model must be non-decreasing along cost (a convex
	// optimizer assumes more resources never hurt).
	prevQ := -1.0
	base := 0.2
	for _, c := range cfgs {
		q := opt.QoSEstimate(c, base)
		if q < prevQ*(1-1e-9) {
			t.Fatalf("hull model decreases along cost at %s: %.4f after %.4f", c, q, prevQ)
		}
		if q > prevQ {
			prevQ = q
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	r := MustNew(1, cost.Default(), Options{})
	// SetEpsilon returns the exploration rate it replaces.
	if eps := r.Optimizer().SetEpsilon(0); eps != qlearn.DefaultEpsilon {
		t.Errorf("exploration rate = %v, want %v", eps, qlearn.DefaultEpsilon)
	}
	if got, want := r.String(), "CASH(alpha=0.35 eps=0.03 learn=true kalman=true twoCfg=true)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if r.opts.Margin != 0.08 {
		t.Errorf("margin default = %v", r.opts.Margin)
	}
	r2 := MustNew(1, cost.Default(), Options{Margin: -1})
	if r2.opts.Margin != 0 {
		t.Error("negative margin must disable headroom")
	}
	if r2.ctrl.Target != 1 {
		t.Errorf("disabled margin: controller target = %v", r2.ctrl.Target)
	}
}

// TestDegradationBackoff drives the runtime against a synthetic fabric
// whose capacity is capped below what the QoS target needs. The runtime
// must clamp its plans to the granted capacity between retries, and the
// retries must thin out exponentially instead of hammering the fabric
// every quantum.
func TestDegradationBackoff(t *testing.T) {
	r := MustNew(0.8, cost.Default(), Options{Seed: 1})
	tau := int64(100_000)
	capCfg := vcore.Config{Slices: 2, L2KB: 256}

	exceeds := func(c vcore.Config) bool {
		return c.Slices > capCfg.Slices || c.L2KB > capCfg.L2KB
	}
	// Synthetic plant: QoS scales with slices, so 0.8 needs 3+ slices —
	// permanently beyond the cap.
	respond := func(plan alloc.Plan) (obs []alloc.Observation, denied bool) {
		for _, s := range plan.Steps {
			if s.Idle || s.MaxCycles <= 0 {
				continue
			}
			cfg, deniedStep := s.Config, false
			if exceeds(cfg) {
				cfg, deniedStep, denied = capCfg, true, true
			}
			qos := 0.3 * float64(cfg.Slices)
			obs = append(obs, alloc.Observation{
				Config: cfg, Cycles: s.MaxCycles,
				Instrs: int64(qos * float64(s.MaxCycles)),
				QoS:    qos, Degraded: deniedStep,
			})
		}
		return obs, denied
	}

	var prev []alloc.Observation
	denials, clampedViolations := 0, 0
	for q := 0; q < 40; q++ {
		plan := r.Decide(prev, tau)
		var d bool
		prev, d = respond(plan)
		if d {
			denials++
		}
		// While a backoff window is open the plan must stay within the cap.
		if !d && r.backoffLeft > 0 {
			for _, s := range plan.Steps {
				if exceeds(s.Config) {
					clampedViolations++
				}
			}
		}
	}
	if denials == 0 {
		t.Fatal("the plant never denied anything; the scenario is wrong")
	}
	if denials > 10 {
		t.Errorf("%d denials in 40 quanta: backoff is not thinning retries", denials)
	}
	if r.Backoffs < 3 {
		t.Errorf("only %d backoff windows entered", r.Backoffs)
	}
	if clampedViolations != 0 {
		t.Errorf("%d plan steps exceeded the cap inside a backoff window", clampedViolations)
	}

	// Capacity returns: the next retry is granted and the clamp must lift.
	capCfg = vcore.Max()
	sawBig := false
	for q := 0; q < maxExpandBackoff+5; q++ {
		plan := r.Decide(prev, tau)
		prev, _ = respond(plan)
		for _, s := range plan.Steps {
			if s.Config.Slices > 2 {
				sawBig = true
			}
		}
	}
	if !sawBig {
		t.Error("after capacity returned the runtime never expanded again")
	}
	if r.backoffLen != 0 {
		t.Errorf("backoff state not reset after a granted retry: len=%d", r.backoffLen)
	}
}

// TestNoBackoffWithoutDegradation pins the zero-fault path: a runtime
// that never sees a Degraded observation must never clamp.
func TestNoBackoffWithoutDegradation(t *testing.T) {
	r := MustNew(0.5, cost.Default(), Options{Seed: 3})
	var prev []alloc.Observation
	for q := 0; q < 20; q++ {
		plan := r.Decide(prev, 100_000)
		prev = prev[:0]
		for _, s := range plan.Steps {
			if s.Idle || s.MaxCycles <= 0 {
				continue
			}
			qos := 0.2 * float64(s.Config.Slices)
			prev = append(prev, alloc.Observation{
				Config: s.Config, Cycles: s.MaxCycles,
				Instrs: int64(qos * float64(s.MaxCycles)), QoS: qos,
			})
		}
	}
	if r.Backoffs != 0 || r.backoffLen != 0 || r.retrying {
		t.Errorf("backoff engaged without degradation: %d windows", r.Backoffs)
	}
}
