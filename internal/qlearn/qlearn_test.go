package qlearn

import (
	"math"
	"testing"
	"testing/quick"

	"cash/internal/cost"
	"cash/internal/vcore"
)

func newOpt(t *testing.T) *Optimizer {
	t.Helper()
	o, err := New(DefaultAlpha, 0, 1) // no exploration: deterministic
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 0, 1); err == nil {
		t.Error("alpha 0 must fail")
	}
	if _, err := New(0.5, 1, 1); err == nil {
		t.Error("eps 1 must fail")
	}
	if _, err := NewRestricted(nil, 0.5, 0, 1); err == nil {
		t.Error("empty config set must fail")
	}
	dup := []vcore.Config{vcore.Min(), vcore.Min()}
	if _, err := NewRestricted(dup, 0.5, 0, 1); err == nil {
		t.Error("duplicate configs must fail")
	}
}

func TestPriorShape(t *testing.T) {
	if Prior(vcore.Min()) != 1 {
		t.Errorf("prior at the minimal config = %v, want 1", Prior(vcore.Min()))
	}
	// Monotone in both axes.
	if Prior(vcore.Config{Slices: 4, L2KB: 64}) <= Prior(vcore.Config{Slices: 2, L2KB: 64}) {
		t.Error("prior must grow with Slices")
	}
	if Prior(vcore.Config{Slices: 1, L2KB: 1024}) <= Prior(vcore.Config{Slices: 1, L2KB: 64}) {
		t.Error("prior must grow with L2")
	}
}

func TestObserveLearns(t *testing.T) {
	o := newOpt(t)
	c := vcore.Config{Slices: 2, L2KB: 128}
	o.Observe(c, 0.4)
	if got := o.QoSEstimate(c, 0.1); got != 0.4 {
		t.Errorf("first observation must set the estimate: %v", got)
	}
	o.Observe(c, 0.5) // within snapRatio: EWMA
	want := (1-DefaultAlpha)*0.4 + DefaultAlpha*0.5
	if got := o.QoSEstimate(c, 0.1); math.Abs(got-want) > 1e-12 {
		t.Errorf("EWMA: got %v, want %v", got, want)
	}
	if visits(o, c) != 2 {
		t.Errorf("Visits = %d, want 2", visits(o, c))
	}
}

func TestObserveSnapsOnContradiction(t *testing.T) {
	o := newOpt(t)
	c := vcore.Min()
	o.Observe(c, 1.0)
	o.Observe(c, 0.2) // 5x below: snap, not EWMA
	if got := o.QoSEstimate(c, 1); got != 0.2 {
		t.Errorf("gross contradiction must snap: got %v", got)
	}
	o.NoSnap = true
	o.Observe(c, 1.0)
	if got := o.QoSEstimate(c, 1); got == 1.0 {
		t.Error("NoSnap must fall back to EWMA")
	}
}

func TestUnvisitedUsesPessimizedPrior(t *testing.T) {
	o := newOpt(t)
	c := vcore.Config{Slices: 4, L2KB: 512}
	base := 0.2
	want := Prior(c) * base * unvisitedPessimism
	if got := o.QoSEstimate(c, base); math.Abs(got-want) > 1e-12 {
		t.Errorf("unvisited estimate %v, want %v", got, want)
	}
}

func TestRescale(t *testing.T) {
	o := newOpt(t)
	c := vcore.Min()
	o.Observe(c, 0.4)
	o.Rescale(0.5)
	if got := o.QoSEstimate(c, 1); got != 0.2 {
		t.Errorf("rescale 0.5: got %v", got)
	}
	o.Rescale(100) // clamped to 2
	if got := o.QoSEstimate(c, 1); got != 0.4 {
		t.Errorf("rescale clamp: got %v", got)
	}
	o.Rescale(-1) // ignored
	if got := o.QoSEstimate(c, 1); got != 0.4 {
		t.Error("negative factor must be ignored")
	}
}

func TestScheduleOverUnderSplit(t *testing.T) {
	o := newOpt(t)
	fast := vcore.Config{Slices: 4, L2KB: 256}
	slow := vcore.Config{Slices: 1, L2KB: 64}
	o.Observe(fast, 0.8)
	o.Observe(slow, 0.2)
	s := o.Schedule(0.5, 0.2, 1000)
	if s.TOver+s.TUnder != 1000 {
		t.Fatalf("schedule times sum to %d, want tau", s.TOver+s.TUnder)
	}
	if s.ExpectedQoS < 0.5*0.99 {
		t.Errorf("expected QoS %.3f below the demand", s.ExpectedQoS)
	}
}

func TestScheduleRaceIdleWhenEfficient(t *testing.T) {
	o := newOpt(t)
	// One config is hugely efficient and fast: race+idle should win.
	eff := vcore.Config{Slices: 2, L2KB: 128}
	o.Observe(eff, 1.0)
	s := o.Schedule(0.5, 0.1, 1000)
	if !s.Idle {
		t.Fatalf("expected a race+idle schedule, got %+v", s)
	}
	if s.Over != eff {
		t.Errorf("raced %s, want %s", s.Over, eff)
	}
	if s.TOver < 400 || s.TOver > 600 {
		t.Errorf("race fraction %d/1000, want ~500 (demand/qos)", s.TOver)
	}
}

func TestScheduleDemandAboveEverything(t *testing.T) {
	o := newOpt(t)
	o.Observe(vcore.Max(), 0.5)
	s := o.Schedule(10, 0.1, 1000)
	if s.TOver != 1000 {
		t.Error("unreachable demand must run flat out")
	}
	if s.ExpectedQoS >= 10 {
		t.Error("expected QoS must report the achievable level, not the demand")
	}
}

func TestScheduleSticksToL2(t *testing.T) {
	o := newOpt(t)
	// Two configs meet the demand; the alternative L2 size saves less
	// than the switching hysteresis, so the current L2 must be kept.
	cur := vcore.Config{Slices: 4, L2KB: 1024}
	other := vcore.Config{Slices: 5, L2KB: 512}
	o.Observe(cur, 0.6)
	o.Observe(other, 0.55)
	o.StickyL2 = 1024
	s := o.Schedule(0.5, 0.1, 1000)
	if s.Over.L2KB != 1024 {
		t.Errorf("scheduled %s despite sub-hysteresis savings; stickiness should keep 1024KB", s.Over)
	}
	// A drastically cheaper alternative must overcome the hysteresis.
	cheap := vcore.Config{Slices: 1, L2KB: 64}
	o.Observe(cheap, 0.55)
	s = o.Schedule(0.5, 0.1, 1000)
	if s.Over != cheap {
		t.Errorf("scheduled %s; a %.0f%%-cheaper config must win", s.Over, 100*(1-0.013/0.107))
	}
}

func TestProbeCandidate(t *testing.T) {
	o := newOpt(t)
	demand, base := 0.5, 0.1
	cand, ok := o.ProbeCandidate(demand, base, 0, 0)
	if !ok {
		t.Fatal("a below-demand candidate must exist")
	}
	if q := o.QoSEstimate(cand, base); q >= demand {
		t.Errorf("probe %s estimates %.3f, must be below the demand %.3f", cand, q, demand)
	}
	// Rate bound: the candidate must be strictly cheaper than the cap.
	cap := cost.Default().Rate(vcore.Config{Slices: 2, L2KB: 128})
	if cand, ok = o.ProbeCandidate(demand, base, 0, cap); ok {
		if cost.Default().Rate(cand) >= cap {
			t.Errorf("probe %s not cheaper than the cap", cand)
		}
	}
	// L2 filter restricts.
	if cand, ok = o.ProbeCandidate(demand, base, 512, 0); ok && cand.L2KB != 512 {
		t.Errorf("L2 filter ignored: %s", cand)
	}
}

func TestFrozenModelIgnoresObservations(t *testing.T) {
	o := newOpt(t)
	o.SetRelativeModel(Prior)
	c := vcore.Config{Slices: 2, L2KB: 128}
	before := o.QoSEstimate(c, 0.2)
	o.Observe(c, 99)
	if got := o.QoSEstimate(c, 0.2); got != before {
		t.Errorf("frozen model moved: %v -> %v", before, got)
	}
}

func TestRestrictedSet(t *testing.T) {
	big := vcore.Config{Slices: 8, L2KB: 4096}
	little := vcore.Config{Slices: 1, L2KB: 128}
	o, err := NewRestricted([]vcore.Config{little, big}, 0.5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Configs()) != 2 {
		t.Fatal("restricted set size wrong")
	}
	if o.Largest() != big {
		t.Errorf("Largest = %s, want %s", o.Largest(), big)
	}
	o.Observe(big, 0.9)
	o.Observe(little, 0.2)
	s := o.Schedule(0.5, 0.2, 1000)
	if s.Over != big && s.Under != big {
		t.Error("schedule must stay inside the restricted set")
	}
	// Observations of foreign configs are ignored gracefully.
	o.Observe(vcore.Config{Slices: 4, L2KB: 256}, 1)
	if visits(o, vcore.Config{Slices: 4, L2KB: 256}) != 0 {
		t.Error("foreign config must not be tracked")
	}
}

func TestMaxQoS(t *testing.T) {
	o := newOpt(t)
	o.Observe(vcore.Config{Slices: 2, L2KB: 256}, 0.7)
	if got := o.MaxQoS(0.01); got != 0.7 {
		t.Errorf("MaxQoS = %v, want 0.7", got)
	}
}

func TestRate(t *testing.T) {
	o := newOpt(t)
	if o.Rate(vcore.Min()) != cost.Default().Rate(vcore.Min()) {
		t.Error("Rate must match the pricing model")
	}
	if o.Rate(vcore.Config{Slices: 99}) != 0 {
		t.Error("unknown config rates as 0")
	}
}

func TestScheduleTimesSumToTauQuick(t *testing.T) {
	f := func(demandRaw, baseRaw uint8, tauRaw uint16) bool {
		o, _ := New(0.5, 0, 3)
		o.Observe(vcore.Config{Slices: 2, L2KB: 128}, 0.4)
		o.Observe(vcore.Config{Slices: 6, L2KB: 1024}, 0.9)
		demand := 0.05 + float64(demandRaw)/200
		base := 0.05 + float64(baseRaw)/400
		tau := int64(1000 + int(tauRaw))
		s := o.Schedule(demand, base, tau)
		return s.TOver >= 0 && s.TUnder >= 0 && s.TOver+s.TUnder == tau
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExplorationBounded(t *testing.T) {
	o, err := New(0.5, 0.8, 7) // heavy exploration
	if err != nil {
		t.Fatal(err)
	}
	o.Observe(vcore.Config{Slices: 2, L2KB: 128}, 0.4)
	o.Observe(vcore.Config{Slices: 6, L2KB: 1024}, 0.9)
	for i := 0; i < 50; i++ {
		s := o.Schedule(0.6, 0.2, 1000)
		if s.TOver+s.TUnder != 1000 {
			t.Fatalf("exploration broke the quantum: %+v", s)
		}
	}
}

// visits returns how many observations config c has received.
func visits(o *Optimizer, c vcore.Config) int64 {
	if i, ok := o.idxOf[c]; ok {
		return o.visits[i]
	}
	return 0
}
