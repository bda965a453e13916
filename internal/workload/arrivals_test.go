package workload

import (
	"testing"
)

// drain pulls n arrivals from a stream.
func drain(s ArrivalStream, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = s.NextArrival()
	}
	return out
}

// TestStreamByNameAllShapesValidateAndReplay: every named shape must
// validate, produce monotone non-decreasing arrivals, and replay the
// identical sequence after Reset.
func TestStreamByNameAllShapesValidateAndReplay(t *testing.T) {
	for _, name := range []string{"sine", "diurnal", "flash", "bursts"} {
		s, err := StreamByName(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: validate: %v", name, err)
		}
		s.Reset()
		first := drain(s, 2000)
		for i := 1; i < len(first); i++ {
			if first[i] < first[i-1] {
				t.Fatalf("%s: arrival %d (%d) before arrival %d (%d)", name, i, first[i], i-1, first[i-1])
			}
		}
		if s.Issued() != 2000 {
			t.Fatalf("%s: issued %d, want 2000", name, s.Issued())
		}
		if s.Work() <= 0 {
			t.Fatalf("%s: non-positive work %d", name, s.Work())
		}
		s.Reset()
		if s.Issued() != 0 {
			t.Fatalf("%s: Reset did not clear the issue count", name)
		}
		second := drain(s, 2000)
		for i := range first {
			if first[i] != second[i] {
				t.Fatalf("%s: replay diverged at arrival %d: %d vs %d", name, i, first[i], second[i])
			}
		}
	}
}

// TestFlashCrowdShapesRate: the flash-crowd factor must sit at 1 between
// events, reach 1+Magnitude inside a hold window, and stay pure (the
// same cycle always yields the same factor).
func TestFlashCrowdShapesRate(t *testing.T) {
	f := FlashCrowd{EveryMCycles: 10, Magnitude: 4, RampMCycles: 1, HoldMCycles: 2, DecayMCycles: 1, Seed: 3}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	peak, base := 0.0, 0.0
	for c := int64(0); c < 100_000_000; c += 50_000 {
		g := f.Factor(c)
		if g != f.Factor(c) {
			t.Fatalf("factor impure at cycle %d", c)
		}
		if g > peak {
			peak = g
		}
		if g == 1 {
			base++
		}
	}
	if peak != 1+f.Magnitude {
		t.Fatalf("peak factor %v, want %v", peak, 1+f.Magnitude)
	}
	if base == 0 {
		t.Fatal("factor never returned to baseline between crowds")
	}
}

// TestFlashCrowdValidateRejectsOverlap: event durations beyond half the
// spacing would overlap adjacent events and must be rejected.
func TestFlashCrowdValidateRejectsOverlap(t *testing.T) {
	f := FlashCrowd{EveryMCycles: 10, Magnitude: 4, RampMCycles: 3, HoldMCycles: 2, DecayMCycles: 1}
	if f.Validate() == nil {
		t.Fatal("6 Mcycles of event in a 10 Mcycle slot must fail validation")
	}
}

// TestDiurnalSwing: the diurnal factor must stay inside [1-Swing,
// 1+Swing] and actually use most of the band.
func TestDiurnalSwing(t *testing.T) {
	d := Diurnal{PeriodMCycles: 50, Swing: 0.6, Harmonic2: 0.3}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	lo, hi := 2.0, 0.0
	for c := int64(0); c < 100_000_000; c += 25_000 {
		g := d.Factor(c)
		if g < 1-d.Swing-1e-9 || g > 1+d.Swing+1e-9 {
			t.Fatalf("factor %v outside [%v, %v] at cycle %d", g, 1-d.Swing, 1+d.Swing, c)
		}
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	if hi-lo < d.Swing {
		t.Fatalf("factor band [%v, %v] too narrow for swing %v", lo, hi, d.Swing)
	}
}

// TestTenantBurstsCorrelation: with correlation 1 every burst is
// fleet-wide (factor 1+Magnitude); with correlation 0 bursts are
// single-tenant (factor 1+Magnitude/Tenants).
func TestTenantBurstsCorrelation(t *testing.T) {
	for _, tc := range []struct {
		corr float64
		peak float64
	}{
		{1, 1 + 8.0},
		{0, 1 + 8.0/4},
	} {
		b := TenantBursts{Tenants: 4, EveryMCycles: 10, BurstMCycles: 3, Magnitude: 8, Correlation: tc.corr, Seed: 5}
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		peak := 0.0
		for c := int64(0); c < 200_000_000; c += 50_000 {
			if g := b.Factor(c); g > peak {
				peak = g
			}
		}
		if peak != tc.peak {
			t.Fatalf("correlation %v: peak %v, want %v", tc.corr, peak, tc.peak)
		}
	}
}

// TestShapedStreamTracksRate: over a long window the arrival count must
// approximate the integral of RateAt — the generator and the reported
// rate must be the same process.
func TestShapedStreamTracksRate(t *testing.T) {
	s := &ShapedStream{
		BaseRate: 5, InstrsPerRequest: 1000, Jitter: 0.2, Seed: 11,
		Shapes: []RateShape{Diurnal{PeriodMCycles: 20, Swing: 0.5}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	const horizon = 100_000_000
	n := 0
	for s.NextArrival() < horizon {
		n++
	}
	// Integrate the reported rate over the horizon.
	var want float64
	const step = 100_000
	for c := int64(0); c < horizon; c += step {
		want += s.RateAt(c) * step / 1e6
	}
	if ratio := float64(n) / want; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("arrivals %d vs integrated rate %.0f (ratio %.3f)", n, want, ratio)
	}
}

// TestStreamByNameUnknown: unknown shapes must error, not default.
func TestStreamByNameUnknown(t *testing.T) {
	if _, err := StreamByName("tsunami", 1); err == nil {
		t.Fatal("unknown stream name accepted")
	}
}
