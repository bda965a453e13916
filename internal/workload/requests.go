package workload

import (
	"fmt"
	"math"

	"cash/internal/splitmix"
)

// RequestStream models an open-loop request arrival process for the
// interactive-server experiments (Fig 9). The paper condenses a daily
// Wikipedia-style oscillation into a fast sinusoid so that a simulation
// covers several load swings; we do the same.
//
// The stream is defined in *cycles* of a reference clock so that it is
// independent of how fast the virtual core happens to run.
type RequestStream struct {
	// BaseRate and Amplitude define the oscillating arrival rate in
	// requests per million cycles: rate(t) = BaseRate + Amplitude *
	// sin(2π t / PeriodMCycles).
	BaseRate  float64
	Amplitude float64
	// PeriodMCycles is the oscillation period in millions of cycles.
	PeriodMCycles float64
	// InstrsPerRequest is the work each request carries.
	InstrsPerRequest int64
	// Jitter adds deterministic pseudo-random spread to arrival gaps,
	// as a fraction of the nominal gap (0 = perfectly regular).
	Jitter float64

	r    splitmix.Rand
	init bool
	// last issued arrival time in cycles.
	lastArrival float64
	count       int64
}

// DefaultApacheStream reproduces the Fig 9 setup: request rates
// oscillating between roughly 200 and 1400 requests/s over a condensed
// period, with a QoS requirement of 110K cycles per request. Treating
// the simulated clock as 1GHz, requests/s maps to requests per billion
// cycles; we express the same oscillation per million cycles.
func DefaultApacheStream() *RequestStream {
	return &RequestStream{
		BaseRate:         7.25, // requests per million cycles (mean)
		Amplitude:        5.75, // swings 1.5 .. 13
		PeriodMCycles:    60,   // several full swings per 240M-cycle run
		InstrsPerRequest: 20000,
		Jitter:           0.15,
	}
}

// Validate checks the stream parameters.
func (s *RequestStream) Validate() error {
	if s.BaseRate <= 0 {
		return fmt.Errorf("workload: request stream base rate %v must be positive", s.BaseRate)
	}
	if s.Amplitude < 0 || s.Amplitude >= s.BaseRate {
		return fmt.Errorf("workload: request stream amplitude %v must be in [0, base rate)", s.Amplitude)
	}
	if s.PeriodMCycles <= 0 {
		return fmt.Errorf("workload: request stream period %v must be positive", s.PeriodMCycles)
	}
	if s.InstrsPerRequest <= 0 {
		return fmt.Errorf("workload: instrs per request %d must be positive", s.InstrsPerRequest)
	}
	if s.Jitter < 0 || s.Jitter >= 1 {
		return fmt.Errorf("workload: jitter %v must be in [0,1)", s.Jitter)
	}
	return nil
}

// RateAt returns the instantaneous arrival rate, in requests per
// million cycles, at absolute cycle t.
func (s *RequestStream) RateAt(cycle int64) float64 {
	phase := 2 * math.Pi * float64(cycle) / (s.PeriodMCycles * 1e6)
	return s.BaseRate + s.Amplitude*math.Sin(phase)
}

// Reset rewinds the stream.
func (s *RequestStream) Reset() {
	s.init = false
	s.lastArrival = 0
	s.count = 0
}

// NextArrival returns the arrival cycle of the next request. Arrivals
// are strictly increasing. The gap between consecutive arrivals is the
// reciprocal of the instantaneous rate, optionally jittered.
func (s *RequestStream) NextArrival() int64 {
	if !s.init {
		s.r = splitmix.New(0xA9A9A9)
		s.init = true
	}
	rate := s.RateAt(int64(s.lastArrival)) // requests per 1e6 cycles
	gap := 1e6 / rate
	if s.Jitter > 0 {
		gap *= 1 + s.Jitter*(2*s.r.Float64()-1)
	}
	s.lastArrival += gap
	s.count++
	return int64(s.lastArrival)
}

// Issued returns how many arrivals have been generated so far.
func (s *RequestStream) Issued() int64 { return s.count }

// RequestPhase is the per-request computation model: each apache
// request executes the same steady-state service phase.
func RequestPhase(instrsPerRequest int64) Phase {
	p := ph("request", 1, mixSrv, 3.2, 512, 32, 0.5, 0.35, 64, 0.05)
	p.Instrs = instrsPerRequest
	return p
}
