// Package isim is the fast simulation tier: a drop-in replacement for
// the cycle-level simulator's RunBudget that trades per-instruction
// timing fidelity for one to two orders of magnitude of throughput.
//
// Interval simulation (TierInterval) measures a short detailed pilot
// and a functional cache/branch probe at each phase entry, builds an
// analytic CPI model — the measured base rate corrected by
// per-miss-event penalties, floored at the Table I structural dispatch
// limit — and charges the rest of the phase against it without
// executing instructions.
//
// It satisfies the Sim interface the oracle consumes, so
// oracle.Characterize can select a tier per call. Accuracy against the
// cycle-level tier is a tested contract, not an aspiration: the
// calibration harness (isim/calib) replays golden cycle-level runs and
// gates |IPC_fast − IPC_cycle|/IPC_cycle < CalibTolerance per
// (app, config) cell. Paper figures stay on the cycle-level tier; the
// fast tier exists to make bulk characterisation sweeps affordable
// (ROADMAP items 1, 2, 4).
package isim

import (
	"fmt"

	"cash/internal/ssim"
	"cash/internal/workload"
)

// Tier selects the simulation fidelity of a characterisation.
type Tier int

const (
	// TierCycle is the cycle-level timestamped-dataflow simulator —
	// the authoritative tier every figure is produced on.
	TierCycle Tier = iota
	// TierInterval is the analytic interval model.
	TierInterval
)

// ParseTier maps a flag value to a Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "cycle":
		return TierCycle, nil
	case "interval":
		return TierInterval, nil
	}
	return 0, fmt.Errorf("unknown simulation tier %q (want cycle or interval)", s)
}

func (t Tier) String() string {
	switch t {
	case TierCycle:
		return "cycle"
	case TierInterval:
		return "interval"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// CalibTolerance is the calibration contract: the maximum relative IPC
// error the fast tier may show against the cycle-level tier on any golden
// (app, config) cell. The gate in isim/calib enforces it in make check
// and CI.
const CalibTolerance = 0.02

// Sim is the simulator shape the oracle's measurement loop consumes;
// *ssim.Sim and *Interval both satisfy it.
type Sim interface {
	RunBudget(src ssim.InstrSource, maxInstrs, maxCycles int64) (instrs, cycles int64)
}

// Source is the instruction stream contract the fast tier needs beyond
// plain generation: skipping spans without drawing them, and exposing
// the current phase so the per-phase models know when to rebuild.
// workload.Gen and workload.PhaseGen both satisfy it. The fast tier fed a
// source without these capabilities degrades to pure detailed
// execution.
type Source interface {
	ssim.InstrSource
	// Skip advances past up to n instructions without generating them,
	// returning how many were skipped (0 only at end of stream).
	Skip(n int64) int64
	// PhaseIndex identifies the phase the next instruction belongs to.
	PhaseIndex() int
	// CurrentRegions is the current phase's address layout, for cache
	// prefill.
	CurrentRegions() workload.Regions
	// PhaseRemaining is the instruction count left in the current phase
	// (effectively unbounded for infinite phase streams).
	PhaseRemaining() int64
}

// New wraps the detailed simulator in the requested tier. TierCycle
// returns the simulator itself: the cycle-level tier *is* the detailed
// simulator, byte-for-byte.
func New(t Tier, det *ssim.Sim) Sim {
	if t == TierInterval {
		return NewInterval(det)
	}
	return det
}

// Interface conformance, pinned at compile time.
var (
	_ Sim    = (*ssim.Sim)(nil)
	_ Sim    = (*Interval)(nil)
	_ Source = (*workload.Gen)(nil)
	_ Source = (*workload.PhaseGen)(nil)
)
