package cost

import (
	"math"
	"testing"
	"testing/quick"

	"cash/internal/vcore"
)

func TestAnchorPrice(t *testing.T) {
	// §VI-B: the minimal configuration costs what EC2 charged for
	// t2.micro.
	m := Default()
	got := m.Rate(vcore.Min())
	if math.Abs(got-0.013) > 1e-9 {
		t.Errorf("minimal configuration rate = $%.4f/hr, want $0.0130 (t2.micro)", got)
	}
}

func TestRateLinearity(t *testing.T) {
	m := Default()
	f := func(sRaw, lRaw uint8) bool {
		s := 1 + int(sRaw%8)
		l2 := 64 << (lRaw % 8)
		c := vcore.Config{Slices: s, L2KB: l2}
		want := float64(s)*PerSliceHour + float64(l2/64)*PerBankHour
		return math.Abs(m.Rate(c)-want) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroModelDefaults(t *testing.T) {
	var m Model
	if m.Rate(vcore.Min()) != Default().Rate(vcore.Min()) {
		t.Error("zero model must default to the paper's constants")
	}
}

func TestCharge(t *testing.T) {
	m := Default()
	c := vcore.Config{Slices: 2, L2KB: 128}
	oneHour := int64(CyclesPerHour)
	if got, want := m.Charge(c, oneHour), m.Rate(c); math.Abs(got-want) > 1e-12 {
		t.Errorf("one hour costs $%v, want $%v", got, want)
	}
	if m.Charge(c, 0) != 0 {
		t.Error("zero cycles cost nothing")
	}
}

func TestCheapestFirstSorted(t *testing.T) {
	m := Default()
	order := m.CheapestFirst()
	if len(order) != 64 {
		t.Fatalf("got %d configs, want 64", len(order))
	}
	for i := 1; i < len(order); i++ {
		if m.Rate(order[i]) < m.Rate(order[i-1]) {
			t.Fatalf("order violated at %d: %s ($%f) after %s ($%f)",
				i, order[i], m.Rate(order[i]), order[i-1], m.Rate(order[i-1]))
		}
	}
	if order[0] != vcore.Min() {
		t.Errorf("cheapest is %s, want %s", order[0], vcore.Min())
	}
}

// TestRatesDistinct pins that no two configurations share a rate, so
// CheapestFirst's order (checked by TestCheapestFirstSorted) needs no
// tie-break.
func TestRatesDistinct(t *testing.T) {
	m := Default()
	seen := map[float64]vcore.Config{}
	for _, c := range vcore.Space() {
		r := m.Rate(c)
		if prev, dup := seen[r]; dup {
			t.Fatalf("%s and %s share rate $%v/hr", prev, c, r)
		}
		seen[r] = c
	}
}

func TestString(t *testing.T) {
	if got, want := Default().String(), "$0.0098/Slice/hr + $0.0032/64KB/hr"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
