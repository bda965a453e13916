// Package workload generates deterministic synthetic instruction traces
// that stand in for the paper's GEM5-driven benchmark suite (SPEC
// CINT2006, PARSEC, apache, postal; §V-B).
//
// Each application is a sequence of Phases. A Phase captures exactly the
// trace properties the CASH evaluation depends on: instruction mix,
// register dependency structure (the ILP ceiling, which determines how
// performance scales with Slices), memory working-set sizes and access
// locality (which determine how performance scales with L2 capacity),
// and branch predictability. Distinct phases have distinct parameters,
// so the optimal virtual-core configuration moves between phases — the
// property Fig 1 of the paper demonstrates and the CASH runtime exploits.
package workload

import (
	"fmt"
	"math"
	"slices"
)

// InstrMix gives the fraction of dynamic instructions in each class.
// Fields must be non-negative; Normalize scales them to sum to 1.
type InstrMix struct {
	ALU, Mul, Div, FPU, Load, Store, Branch float64
}

func (m InstrMix) sum() float64 {
	return m.ALU + m.Mul + m.Div + m.FPU + m.Load + m.Store + m.Branch
}

// Normalize returns the mix scaled so the fractions sum to 1.
func (m InstrMix) Normalize() InstrMix {
	s := m.sum()
	if s <= 0 {
		return InstrMix{ALU: 1}
	}
	m.ALU /= s
	m.Mul /= s
	m.Div /= s
	m.FPU /= s
	m.Load /= s
	m.Store /= s
	m.Branch /= s
	return m
}

// Validate reports a descriptive error for malformed mixes.
func (m InstrMix) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ALU", m.ALU}, {"Mul", m.Mul}, {"Div", m.Div}, {"FPU", m.FPU},
		{"Load", m.Load}, {"Store", m.Store}, {"Branch", m.Branch},
	} {
		// !(v >= 0) rather than v < 0 so NaN is rejected too.
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("workload: %s fraction %v is not a finite non-negative number", f.name, f.v)
		}
	}
	if s := m.sum(); !(s > 0) || math.IsInf(s, 0) {
		return fmt.Errorf("workload: instruction mix sums to %v", s)
	}
	return nil
}

// maxWorkingSetKB bounds a phase's data footprint to 1TB. Each phase
// owns a 256MB-aligned address region plus a disjoint code region; far
// larger footprints would overflow the 64-bit layout arithmetic (a
// 2^54KB hot set wraps its byte size to zero and turns address sampling
// into a mod-by-zero).
const maxWorkingSetKB = 1 << 30

// Phase describes one steady-state region of an application.
type Phase struct {
	// Name identifies the phase in reports ("p3", "encode-B", ...).
	Name string
	// Instrs is the phase's dynamic instruction count.
	Instrs int64
	// Mix is the instruction-class distribution.
	Mix InstrMix
	// MeanDepDist is the average register dependency distance in
	// instructions. Small values create long serial chains (low ILP);
	// large values expose parallelism that extra Slices can mine.
	MeanDepDist float64
	// DepFrac is the probability that an instruction's first source
	// register carries a true dependence on a recent producer.
	DepFrac float64
	// SecondSrcFrac is the probability that the second source also
	// carries a dependence (given the first does).
	SecondSrcFrac float64
	// WorkingSetKB is the phase's main data footprint. Accesses outside
	// the hot set fall uniformly (or streaming) within this region.
	WorkingSetKB int
	// HotSetKB is a small frequently-touched region (stack, top of the
	// heap) that mostly hits in the L1.
	HotSetKB int
	// HotFrac is the fraction of memory accesses that touch the hot set.
	HotFrac float64
	// MidSetKB is an optional intermediate working set (lookup tables,
	// per-frame state) between the hot set and the main working set; it
	// gives the L2 response a second capacity knee and is what creates
	// multiple local optima along the cache axis (Fig 1). Zero disables.
	MidSetKB int
	// MidFrac is the fraction of non-hot accesses that touch the mid set.
	MidFrac float64
	// StreamFrac is the fraction of non-hot accesses that walk the
	// working set sequentially with Stride, rather than at random.
	StreamFrac float64
	// Stride is the streaming access stride in bytes.
	Stride int64
	// MispredictRate is mispredictions per branch.
	MispredictRate float64
	// RegionID, when non-zero, makes this phase touch the address
	// region of phase RegionID-1 instead of its own — modelling phases
	// that revisit shared data (a video encoder's reference frames, a
	// compressor's recurring block buffers). Shared regions avoid
	// paying a full cold start at every phase transition.
	RegionID int
	// CodeKB, when non-zero, pins the phase's instruction footprint
	// instead of deriving it from the data working set. The derivation
	// (a fixed base plus a fraction of WorkingSetKB) matches real
	// applications, but couples the axes: a phase built to stress a
	// huge data stream drags in a maximal code region whose compulsory
	// fetch-warming alone spans most of a short run. Workloads that
	// need the instruction side stationary — the calibration corpus —
	// pin it here. Zero keeps the derived size.
	CodeKB int
}

// Validate checks the phase parameters for consistency.
func (p Phase) Validate() error {
	if p.Instrs <= 0 {
		return fmt.Errorf("workload: phase %q has non-positive length %d", p.Name, p.Instrs)
	}
	if err := p.Mix.Validate(); err != nil {
		return fmt.Errorf("phase %q: %w", p.Name, err)
	}
	if !(p.MeanDepDist >= 1) || math.IsInf(p.MeanDepDist, 0) {
		return fmt.Errorf("workload: phase %q MeanDepDist %v must be a finite number >= 1", p.Name, p.MeanDepDist)
	}
	if p.WorkingSetKB <= 0 || p.HotSetKB <= 0 {
		return fmt.Errorf("workload: phase %q has non-positive working-set sizes", p.Name)
	}
	if p.WorkingSetKB > maxWorkingSetKB {
		return fmt.Errorf("workload: phase %q working set %dKB exceeds the %dKB address-layout limit",
			p.Name, p.WorkingSetKB, maxWorkingSetKB)
	}
	if p.HotSetKB > p.WorkingSetKB {
		return fmt.Errorf("workload: phase %q hot set (%dKB) exceeds working set (%dKB)",
			p.Name, p.HotSetKB, p.WorkingSetKB)
	}
	if p.MidSetKB < 0 {
		return fmt.Errorf("workload: phase %q negative mid set %dKB", p.Name, p.MidSetKB)
	}
	if p.MidSetKB > 0 && p.HotSetKB+p.MidSetKB > p.WorkingSetKB {
		return fmt.Errorf("workload: phase %q hot+mid sets (%d+%dKB) exceed working set (%dKB)",
			p.Name, p.HotSetKB, p.MidSetKB, p.WorkingSetKB)
	}
	if !(p.MidFrac >= 0 && p.MidFrac <= 1) {
		return fmt.Errorf("workload: phase %q MidFrac=%v outside [0,1]", p.Name, p.MidFrac)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DepFrac", p.DepFrac}, {"SecondSrcFrac", p.SecondSrcFrac},
		{"HotFrac", p.HotFrac}, {"StreamFrac", p.StreamFrac},
		{"MispredictRate", p.MispredictRate},
	} {
		if !(f.v >= 0 && f.v <= 1) {
			return fmt.Errorf("workload: phase %q %s=%v outside [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.Stride <= 0 {
		return fmt.Errorf("workload: phase %q stride %d must be positive", p.Name, p.Stride)
	}
	if p.CodeKB < 0 {
		return fmt.Errorf("workload: phase %q negative code footprint %dKB", p.Name, p.CodeKB)
	}
	if p.CodeKB > 0 && p.CodeKB < hotCodeKB {
		return fmt.Errorf("workload: phase %q code footprint %dKB smaller than the %dKB hot loop body",
			p.Name, p.CodeKB, hotCodeKB)
	}
	return nil
}

// App is a named application: an ordered sequence of phases.
type App struct {
	Name   string
	Phases []Phase
}

// TotalInstrs returns the application's total dynamic instruction count.
func (a App) TotalInstrs() int64 {
	var n int64
	for _, p := range a.Phases {
		n += p.Instrs
	}
	return n
}

// Equal reports whether a and b are the same definition: the same name
// and the same phases, field for field, so they generate the same
// stream for any seed.
func (a App) Equal(b App) bool {
	return a.Name == b.Name && slices.Equal(a.Phases, b.Phases)
}

// Validate checks the whole application definition.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("workload: app with empty name")
	}
	if len(a.Phases) == 0 {
		return fmt.Errorf("workload: app %q has no phases", a.Name)
	}
	for _, p := range a.Phases {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("app %q: %w", a.Name, err)
		}
	}
	return nil
}

// Scale returns a copy of the application with every phase's instruction
// count multiplied by f (minimum 1). It is used to shrink workloads for
// fast tests and to stretch them for long-running experiments.
func (a App) Scale(f float64) App {
	scaled := App{Name: a.Name, Phases: make([]Phase, len(a.Phases))}
	for i, p := range a.Phases {
		n := int64(float64(p.Instrs) * f)
		if n < 1 {
			n = 1
		}
		p.Instrs = n
		scaled.Phases[i] = p
	}
	return scaled
}

// PhaseAt maps a global instruction index to its phase index.
// Indexes past the end return the last phase.
func (a App) PhaseAt(instr int64) int {
	var acc int64
	for i, p := range a.Phases {
		acc += p.Instrs
		if instr < acc {
			return i
		}
	}
	return len(a.Phases) - 1
}
