// Package cost implements the CASH pricing model (§VI-B): IaaS
// resources are rented at fine granularity with a linear price per unit
// area, anchored so that the minimal configuration (1 Slice + 64KB L2)
// costs what Amazon charged for a t2.micro ($0.013/hour).
//
// From the paper's Verilog-derived silicon areas, that anchor splits
// into $0.0098/hour per Slice and $0.0032/hour per 64KB L2 bank. As the
// paper stresses, absolute prices don't matter — all conclusions rest
// on cost *ratios* between architectures and resource managers.
package cost

import (
	"cmp"
	"fmt"
	"slices"

	"cash/internal/mem"
	"cash/internal/vcore"
)

// Pricing constants, in dollars per hour.
const (
	// PerSliceHour is the rental price of one Slice.
	PerSliceHour = 0.0098
	// PerBankHour is the rental price of one 64KB L2 bank.
	PerBankHour = 0.0032
)

// CyclesPerHour converts simulated cycles to rental time. We model the
// fabric's clock at 1GHz; again, only ratios matter.
const CyclesPerHour = 3600.0 * 1e9

// Model is the paper's price list; its methods price virtual-core
// configurations at PerSliceHour and PerBankHour.
type Model struct{}

// Default returns the paper's pricing model.
func Default() Model { return Model{} }

// Rate returns the configuration's rental rate in $/hour.
func (Model) Rate(c vcore.Config) float64 {
	return float64(c.Slices)*PerSliceHour + float64(c.L2KB/mem.L2BankKB)*PerBankHour
}

// Charge returns the dollars charged for occupying configuration c for
// the given number of cycles.
func (m Model) Charge(c vcore.Config, cycles int64) float64 {
	return m.Rate(c) * float64(cycles) / CyclesPerHour
}

// CheapestFirst returns the configuration space sorted by ascending
// rate. This is the search order used by allocators that scan for the
// cheapest feasible configuration. No two configurations share a rate:
// 9800s + 3200b = 9800s' + 3200b' means 49(s-s') = 16(b'-b), and with
// s in 1..8 that forces s = s'.
func (m Model) CheapestFirst() []vcore.Config {
	space := vcore.Space()
	slices.SortFunc(space, func(a, b vcore.Config) int { return cmp.Compare(m.Rate(a), m.Rate(b)) })
	return space
}

// String renders the model for reports.
func (Model) String() string {
	return fmt.Sprintf("$%.4f/Slice/hr + $%.4f/64KB/hr", PerSliceHour, PerBankHour)
}
