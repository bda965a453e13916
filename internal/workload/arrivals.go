package workload

import (
	"fmt"
	"math"

	"cash/internal/splitmix"
)

// ArrivalStream is an open-loop request arrival process: a deterministic,
// seeded, Reset-able generator of strictly ordered arrival times that
// the serving engine consumes one request ahead. The original sinusoidal
// *RequestStream satisfies it; ShapedStream composes richer shapes
// (diurnal cycles, flash crowds, correlated multi-tenant bursts) behind
// the same five methods. Determinism contract: after Reset, the same
// stream produces the same arrival sequence byte for byte.
type ArrivalStream interface {
	// Validate checks the stream parameters.
	Validate() error
	// Reset rewinds the stream to its initial state.
	Reset()
	// NextArrival returns the next arrival cycle (monotone non-decreasing).
	NextArrival() int64
	// Issued returns how many arrivals have been generated so far.
	Issued() int64
	// RateAt returns the instantaneous arrival rate in requests per
	// million cycles at the given cycle (for display and calibration).
	RateAt(cycle int64) float64
	// Work returns the instructions each request carries.
	Work() int64
}

// Work implements ArrivalStream for the original sinusoidal stream.
func (s *RequestStream) Work() int64 { return s.InstrsPerRequest }

// RateShape is one multiplicative modulation of a ShapedStream's base
// rate. Factor must be a pure function of the cycle (no mutable state),
// so shapes compose freely and the stream replays byte-identically.
type RateShape interface {
	// Factor returns the rate multiplier at the given cycle (≥ 0).
	Factor(cycle int64) float64
	// Validate checks the shape parameters.
	Validate() error
}

// ShapedStream generates arrivals at BaseRate modulated by the product
// of its Shapes' factors. The arrival process is the same reciprocal-
// rate gap generator RequestStream uses (optionally jittered), so the
// two are drop-in interchangeable for the serving engine.
type ShapedStream struct {
	// BaseRate is the unmodulated arrival rate in requests per million
	// cycles.
	BaseRate float64
	// InstrsPerRequest is the work each request carries.
	InstrsPerRequest int64
	// Jitter adds deterministic pseudo-random spread to arrival gaps,
	// as a fraction of the nominal gap (0 = perfectly regular).
	Jitter float64
	// Seed drives the jitter (and nothing else; shape randomness is
	// carried by each shape's own seed so shapes stay pure).
	Seed uint64
	// Shapes multiply into the rate. Empty = constant BaseRate.
	Shapes []RateShape

	r           splitmix.Rand
	init        bool
	lastArrival float64
	count       int64
}

// minRateFactor floors the composed rate so a shape factor of zero
// cannot stall the stream forever: the gap is capped at 1000× nominal.
const minRateFactor = 1e-3

// Validate checks the stream and every shape.
func (s *ShapedStream) Validate() error {
	if !(s.BaseRate > 0) || math.IsInf(s.BaseRate, 0) {
		return fmt.Errorf("workload: shaped stream base rate %v must be positive and finite", s.BaseRate)
	}
	if s.InstrsPerRequest <= 0 {
		return fmt.Errorf("workload: instrs per request %d must be positive", s.InstrsPerRequest)
	}
	if math.IsNaN(s.Jitter) || s.Jitter < 0 || s.Jitter >= 1 {
		return fmt.Errorf("workload: jitter %v must be in [0,1)", s.Jitter)
	}
	for i, sh := range s.Shapes {
		if sh == nil {
			return fmt.Errorf("workload: shape %d is nil", i)
		}
		if err := sh.Validate(); err != nil {
			return fmt.Errorf("workload: shape %d: %w", i, err)
		}
	}
	return nil
}

// RateAt returns the instantaneous composed rate at a cycle.
func (s *ShapedStream) RateAt(cycle int64) float64 {
	rate := s.BaseRate
	for _, sh := range s.Shapes {
		rate *= sh.Factor(cycle)
	}
	if floor := s.BaseRate * minRateFactor; rate < floor {
		rate = floor
	}
	return rate
}

// Reset rewinds the stream.
func (s *ShapedStream) Reset() {
	s.init = false
	s.lastArrival = 0
	s.count = 0
}

// NextArrival returns the next arrival cycle (monotone non-decreasing).
func (s *ShapedStream) NextArrival() int64 {
	if !s.init {
		s.r = splitmix.New(s.Seed ^ 0xA9A9A9)
		s.init = true
	}
	rate := s.RateAt(int64(s.lastArrival))
	gap := 1e6 / rate
	if s.Jitter > 0 {
		gap *= 1 + s.Jitter*(2*s.r.Float64()-1)
	}
	if gap < 1e-6 {
		gap = 1e-6
	}
	s.lastArrival += gap
	s.count++
	return int64(s.lastArrival)
}

// Issued returns how many arrivals have been generated.
func (s *ShapedStream) Issued() int64 { return s.count }

// Work returns the instructions each request carries.
func (s *ShapedStream) Work() int64 { return s.InstrsPerRequest }

// shapeHash derives a uniform [0,1) value from (seed, slot, salt) with
// a splitmix64 finalizer — the pure randomness every event-lattice
// shape draws from, so Factor needs no mutable cursor.
func shapeHash(seed, slot, salt uint64) float64 {
	return splitmix.Unit(splitmix.Mix(seed + slot*splitmix.Gamma + salt*0xff51afd7ed558ccd))
}

// Diurnal is a smooth daily load cycle, condensed to PeriodMCycles the
// way the paper condenses the Wikipedia oscillation: the factor swings
// 1±Swing sinusoidally, with an optional second harmonic that sharpens
// the peak into the morning/evening double hump real diurnal traffic
// shows.
type Diurnal struct {
	// PeriodMCycles is one "day" in millions of cycles.
	PeriodMCycles float64
	// Swing is the relative amplitude in [0, 1): factor ∈ [1-Swing, 1+Swing].
	Swing float64
	// Harmonic2 adds a second-harmonic fraction of the swing (0 = pure
	// sinusoid; 0.3 gives a realistic double-peaked day).
	Harmonic2 float64
	// PhaseRad offsets the cycle start.
	PhaseRad float64
}

// Validate checks the shape parameters.
func (d Diurnal) Validate() error {
	if !(d.PeriodMCycles > 0) || math.IsInf(d.PeriodMCycles, 0) {
		return fmt.Errorf("diurnal period %v must be positive and finite", d.PeriodMCycles)
	}
	if math.IsNaN(d.Swing) || d.Swing < 0 || d.Swing >= 1 {
		return fmt.Errorf("diurnal swing %v must be in [0,1)", d.Swing)
	}
	if math.IsNaN(d.Harmonic2) || d.Harmonic2 < 0 || d.Harmonic2 > 1 {
		return fmt.Errorf("diurnal harmonic %v must be in [0,1]", d.Harmonic2)
	}
	if math.IsNaN(d.PhaseRad) || math.IsInf(d.PhaseRad, 0) {
		return fmt.Errorf("diurnal phase %v must be finite", d.PhaseRad)
	}
	return nil
}

// Factor implements RateShape.
func (d Diurnal) Factor(cycle int64) float64 {
	theta := 2*math.Pi*float64(cycle)/(d.PeriodMCycles*1e6) + d.PhaseRad
	wave := math.Sin(theta)
	if d.Harmonic2 > 0 {
		wave = (wave + d.Harmonic2*math.Sin(2*theta)) / (1 + d.Harmonic2)
	}
	return 1 + d.Swing*wave
}

// FlashCrowd injects sudden load spikes: every EveryMCycles (with
// seeded spacing jitter) the rate ramps up to (1+Magnitude)× over
// RampMCycles, holds for HoldMCycles, and decays back over
// DecayMCycles. Event times are a pure function of (Seed, slot), so
// Factor is stateless and the shape replays identically.
type FlashCrowd struct {
	// EveryMCycles is the mean spacing between crowds.
	EveryMCycles float64
	// Magnitude is the peak extra rate multiple (factor 1+Magnitude).
	Magnitude float64
	// RampMCycles, HoldMCycles, DecayMCycles shape one crowd. Their sum
	// must not exceed EveryMCycles/2, keeping events disjoint.
	RampMCycles, HoldMCycles, DecayMCycles float64
	// Seed varies the event times.
	Seed uint64
}

// Validate checks the shape parameters.
func (f FlashCrowd) Validate() error {
	if !(f.EveryMCycles > 0) || math.IsInf(f.EveryMCycles, 0) {
		return fmt.Errorf("flash-crowd spacing %v must be positive and finite", f.EveryMCycles)
	}
	if math.IsNaN(f.Magnitude) || f.Magnitude < 0 || math.IsInf(f.Magnitude, 0) {
		return fmt.Errorf("flash-crowd magnitude %v must be non-negative and finite", f.Magnitude)
	}
	for _, d := range []float64{f.RampMCycles, f.HoldMCycles, f.DecayMCycles} {
		if math.IsNaN(d) || d < 0 || math.IsInf(d, 0) {
			return fmt.Errorf("flash-crowd durations %v/%v/%v must be non-negative and finite",
				f.RampMCycles, f.HoldMCycles, f.DecayMCycles)
		}
	}
	if f.RampMCycles+f.HoldMCycles+f.DecayMCycles > f.EveryMCycles/2 {
		return fmt.Errorf("flash-crowd duration %v exceeds half the spacing %v",
			f.RampMCycles+f.HoldMCycles+f.DecayMCycles, f.EveryMCycles)
	}
	return nil
}

// start returns event k's start cycle: slot k's lattice point plus a
// seeded offset within the first half of the slot, so consecutive
// events never overlap (durations are bounded by half a slot).
func (f FlashCrowd) start(k int64) float64 {
	return (float64(k) + 0.5*shapeHash(f.Seed, uint64(k), 1)) * f.EveryMCycles * 1e6
}

// Factor implements RateShape.
func (f FlashCrowd) Factor(cycle int64) float64 {
	if f.Magnitude == 0 {
		return 1
	}
	t := float64(cycle)
	k := int64(t / (f.EveryMCycles * 1e6))
	factor := 1.0
	// An event from the previous slot can still be decaying; check both.
	for _, j := range [2]int64{k - 1, k} {
		if j < 0 {
			continue
		}
		if g := f.eventFactor(t - f.start(j)); g > factor {
			factor = g
		}
	}
	return factor
}

// eventFactor is the factor contribution of one event at offset dt from
// its start.
func (f FlashCrowd) eventFactor(dt float64) float64 {
	switch {
	case dt < 0:
		return 1
	case dt < f.RampMCycles*1e6:
		return 1 + f.Magnitude*dt/(f.RampMCycles*1e6)
	case dt < (f.RampMCycles+f.HoldMCycles)*1e6:
		return 1 + f.Magnitude
	case dt < (f.RampMCycles+f.HoldMCycles+f.DecayMCycles)*1e6:
		rem := (f.RampMCycles+f.HoldMCycles+f.DecayMCycles)*1e6 - dt
		return 1 + f.Magnitude*rem/(f.DecayMCycles*1e6)
	default:
		return 1
	}
}

// TenantBursts models correlated multi-tenant load: Tenants independent
// sources each contribute 1/Tenants of the base rate, and burst events
// strike on a seeded lattice. With probability Correlation an event
// engulfs every tenant at once (the correlated burst that defeats
// per-tenant provisioning); otherwise it hits a single seeded tenant.
// The factor during an event is 1 + Magnitude × participants/Tenants.
type TenantBursts struct {
	// Tenants is how many co-located request sources share the stream.
	Tenants int
	// EveryMCycles is the mean spacing between burst events.
	EveryMCycles float64
	// BurstMCycles is each event's duration (≤ EveryMCycles/2).
	BurstMCycles float64
	// Magnitude is the full-participation extra rate multiple.
	Magnitude float64
	// Correlation in [0,1] is the probability an event is fleet-wide.
	Correlation float64
	// Seed varies event times, correlation draws and tenant choices.
	Seed uint64
}

// Validate checks the shape parameters.
func (b TenantBursts) Validate() error {
	if b.Tenants <= 0 {
		return fmt.Errorf("tenant bursts need at least one tenant, have %d", b.Tenants)
	}
	if !(b.EveryMCycles > 0) || math.IsInf(b.EveryMCycles, 0) {
		return fmt.Errorf("tenant-burst spacing %v must be positive and finite", b.EveryMCycles)
	}
	if math.IsNaN(b.BurstMCycles) || b.BurstMCycles < 0 || b.BurstMCycles > b.EveryMCycles/2 {
		return fmt.Errorf("tenant-burst duration %v must be in [0, half the spacing %v]", b.BurstMCycles, b.EveryMCycles)
	}
	if math.IsNaN(b.Magnitude) || b.Magnitude < 0 || math.IsInf(b.Magnitude, 0) {
		return fmt.Errorf("tenant-burst magnitude %v must be non-negative and finite", b.Magnitude)
	}
	if math.IsNaN(b.Correlation) || b.Correlation < 0 || b.Correlation > 1 {
		return fmt.Errorf("tenant-burst correlation %v must be in [0,1]", b.Correlation)
	}
	return nil
}

// Factor implements RateShape.
func (b TenantBursts) Factor(cycle int64) float64 {
	if b.Magnitude == 0 {
		return 1
	}
	t := float64(cycle)
	k := int64(t / (b.EveryMCycles * 1e6))
	factor := 1.0
	for _, j := range [2]int64{k - 1, k} {
		if j < 0 {
			continue
		}
		start := (float64(j) + 0.5*shapeHash(b.Seed, uint64(j), 1)) * b.EveryMCycles * 1e6
		if t < start || t >= start+b.BurstMCycles*1e6 {
			continue
		}
		share := 1.0 / float64(b.Tenants)
		if shapeHash(b.Seed, uint64(j), 2) < b.Correlation {
			share = 1 // fleet-wide burst
		}
		if g := 1 + b.Magnitude*share; g > factor {
			factor = g
		}
	}
	return factor
}

// StreamByName builds a named arrival stream for the serving studies:
//
//	"sine"    — the paper's Fig 9 oscillation (DefaultApacheStream)
//	"diurnal" — a condensed double-peaked daily cycle
//	"flash"   — steady base load with seeded flash crowds
//	"bursts"  — correlated multi-tenant burst mix
//
// The seed varies event placement for "flash" and "bursts" (0 keeps
// each shape's built-in default).
func StreamByName(name string, seed uint64) (ArrivalStream, error) {
	switch name {
	case "", "sine":
		return DefaultApacheStream(), nil
	case "diurnal":
		return &ShapedStream{
			BaseRate:         7.25,
			InstrsPerRequest: 20000,
			Jitter:           0.15,
			Seed:             seed,
			Shapes:           []RateShape{Diurnal{PeriodMCycles: 120, Swing: 0.75, Harmonic2: 0.3}},
		}, nil
	case "flash":
		return &ShapedStream{
			BaseRate:         6,
			InstrsPerRequest: 20000,
			Jitter:           0.15,
			Seed:             seed,
			Shapes: []RateShape{FlashCrowd{
				EveryMCycles: 40, Magnitude: 9,
				RampMCycles: 1, HoldMCycles: 3, DecayMCycles: 4,
				Seed: seed ^ 0xf1a5,
			}},
		}, nil
	case "bursts":
		return &ShapedStream{
			BaseRate:         6,
			InstrsPerRequest: 20000,
			Jitter:           0.15,
			Seed:             seed,
			Shapes: []RateShape{TenantBursts{
				Tenants: 8, EveryMCycles: 12, BurstMCycles: 3,
				Magnitude: 8, Correlation: 0.35,
				Seed: seed ^ 0xb0b5,
			}},
		}, nil
	default:
		return nil, fmt.Errorf("workload: unknown stream shape %q (have sine, diurnal, flash, bursts)", name)
	}
}
