package qlearn

import (
	"math"
	"testing"

	"cash/internal/vcore"
)

func TestNewValidationRejectsNaN(t *testing.T) {
	if _, err := New(math.NaN(), 0, 1); err == nil {
		t.Error("NaN alpha must fail")
	}
	if _, err := New(0.5, math.NaN(), 1); err == nil {
		t.Error("NaN epsilon must fail")
	}
}

func TestQuarantineInvalid(t *testing.T) {
	o := newOpt(t)
	good := vcore.Min()
	o.Observe(good, 0.5)
	bad1 := vcore.Config{Slices: 2, L2KB: 64}
	bad2 := vcore.Config{Slices: 4, L2KB: 128}
	bad3 := vcore.Config{Slices: 8, L2KB: 256}
	o.PokeQ(bad1, math.NaN())
	o.PokeQ(bad2, math.Inf(1))
	o.PokeQ(bad3, 1e12)

	if got := o.InvalidEntries(1e4); got != 3 {
		t.Fatalf("InvalidEntries = %d, want 3", got)
	}
	if got := o.QuarantineInvalid(1e4); got != 3 {
		t.Fatalf("QuarantineInvalid = %d, want 3", got)
	}
	if got := o.InvalidEntries(1e4); got != 0 {
		t.Fatalf("InvalidEntries after quarantine = %d, want 0", got)
	}
	// Quarantined entries revert to the unvisited prior path.
	for _, c := range []vcore.Config{bad1, bad2, bad3} {
		if v := visits(o, c); v != 0 {
			t.Errorf("config %s still has %d visits after quarantine", c, v)
		}
		q := o.QoSEstimate(c, 0.5)
		if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 {
			t.Errorf("config %s estimate %v not restored to a usable prior", c, q)
		}
	}
	// The validated entry survives untouched.
	if v := visits(o, good); v != 1 {
		t.Errorf("validated entry lost its visits: %d", v)
	}
	if q := o.QoSEstimate(good, 0.5); q != 0.5 {
		t.Errorf("validated entry estimate = %v, want 0.5", q)
	}
}

func TestQuarantineRangeCheckDisabled(t *testing.T) {
	o := newOpt(t)
	c := vcore.Min()
	o.PokeQ(c, 1e12)
	if got := o.QuarantineInvalid(0); got != 0 {
		t.Fatalf("maxQ=0 must disable the range check, quarantined %d", got)
	}
	o.PokeQ(c, math.NaN())
	if got := o.QuarantineInvalid(0); got != 1 {
		t.Fatalf("NaN must be quarantined even with maxQ=0, got %d", got)
	}
}

func TestObserveDropsNonFinite(t *testing.T) {
	o := newOpt(t)
	c := vcore.Min()
	o.Observe(c, 0.5)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		o.Observe(c, bad)
	}
	if q := o.QoSEstimate(c, 0.5); q != 0.5 {
		t.Fatalf("non-finite observations mutated the estimate: %v", q)
	}
	if v := visits(o, c); v != 1 {
		t.Fatalf("non-finite observations counted as visits: %d", v)
	}
}

func TestSetEpsilon(t *testing.T) {
	o, err := New(DefaultAlpha, 0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if old := o.SetEpsilon(0); old != 0.25 {
		t.Fatalf("SetEpsilon returned %v, want 0.25", old)
	}
	if o.eps != 0 {
		t.Fatalf("Epsilon = %v after SetEpsilon(0)", o.eps)
	}
	o.SetEpsilon(math.NaN())
	if o.eps != 0 {
		t.Fatalf("NaN epsilon must clamp to 0, got %v", o.eps)
	}
	o.SetEpsilon(0.25)
	if o.eps != 0.25 {
		t.Fatalf("Epsilon = %v, want 0.25", o.eps)
	}
}

// TestScheduleSurvivesCorruptTable is the containment property the
// guard depends on: even before a quarantine runs, a table holding NaN
// must not make Schedule panic, and after QuarantineInvalid the
// schedule is clean again.
func TestScheduleSurvivesCorruptTable(t *testing.T) {
	o := newOpt(t)
	base := 0.5
	for _, c := range o.Configs() {
		o.Observe(c, base*Prior(c))
	}
	o.PokeQ(vcore.Config{Slices: 4, L2KB: 256}, math.NaN())
	_ = o.Schedule(0.9, base, 100_000) // must not panic
	o.QuarantineInvalid(1e4)
	s := o.Schedule(0.9, base, 100_000)
	if math.IsNaN(s.ExpectedQoS) || math.IsInf(s.ExpectedQoS, 0) {
		t.Fatalf("post-quarantine schedule still carries NaN: %+v", s)
	}
}
