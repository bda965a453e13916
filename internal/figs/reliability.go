package figs

import (
	"fmt"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/experiment"
	"cash/internal/fault"
	"cash/internal/guard"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// Reliability is the robustness study this reproduction adds on top of
// the paper's evaluation: it hosts a tenant on a deliberately small
// fabric chip (no spare headroom once fully grown) and injects
// accelerated tile faults, comparing how CASH's adaptive allocation and
// static provisioning degrade. Fault rates are strikes per million
// cycles — orders of magnitude above realistic hardware, compressed so
// a short simulation sees several fault/repair arcs (§III-A's
// homogeneity argument is what makes remapping cheap).

// reliabilityChip keeps the chip small (8 Slices + 8 banks) so faults
// actually bite: a fully-grown tenant has no spare tiles and every
// strike forces a remap or a degradation.
const (
	reliabilityDim    = 4
	reliabilityQuanta = 40
)

// ReliabilityRow is one (allocator, fault-rate) outcome.
type ReliabilityRow struct {
	Allocator string
	// Rate is the injected strike rate (per million cycles).
	Rate          float64
	Cost          float64
	ViolationRate float64
	Stats         experiment.FaultStats
	// Backoffs is the CASH runtime's expansion-retry backoff count
	// (zero for the static baselines).
	Backoffs int64
	// Guard carries the guardrail trip counters for the CASH+guard row
	// (zero for every other policy).
	Guard guard.Stats
}

// Reliability runs the fault-injection comparison and prints the table.
// Rates are h.FaultRate and twice it, plus the fault-free control; the
// schedule derives from h.FaultSeed, so the study is reproducible. Each
// (allocator, rate) pair is one supervised cell: a failed cell prints a
// FAILED row (its "vs ok" baseline degrades to 1.00x for siblings when
// the fault-free control itself failed) and is absent from the returned
// rows.
func (h *Harness) Reliability() ([]ReliabilityRow, error) {
	baseRate := h.FaultRate
	if baseRate <= 0 {
		baseRate = 0.8
	}
	seed := h.FaultSeed
	if seed == 0 {
		seed = 17
	}
	const target = 0.3

	policies := []struct {
		name  string
		build func() alloc.Allocator
	}{
		{"CASH", func() alloc.Allocator {
			return cashrt.MustNew(target, h.Model, cashrt.Options{Seed: h.Seed})
		}},
		// The same runtime with the guardrail subsystem armed: the fault
		// storm exercises the watchdogs, and the trips column shows what
		// they caught.
		{"CASH+guard", func() alloc.Allocator {
			return cashrt.MustNew(target, h.Model, cashrt.Options{Seed: h.Seed, Guardrails: true})
		}},
		// Fully provisioned: the tenant owns every tile, so each strike
		// must degrade it — the worst case for static allocation.
		{"Static(8s/512KB)", func() alloc.Allocator {
			return alloc.Static{Cfg: vcore.Config{Slices: 8, L2KB: 512}}
		}},
		{"Static(2s/128KB)", func() alloc.Allocator {
			return alloc.Static{Cfg: vcore.Config{Slices: 2, L2KB: 128}}
		}},
	}
	rates := []float64{0, baseRate, 2 * baseRate}

	var cells []cell[ReliabilityRow]
	for _, p := range policies {
		for _, rate := range rates {
			cells = append(cells, cell[ReliabilityRow]{
				key: fmt.Sprintf("reliability/%s/%g", p.name, rate),
				run: func() (ReliabilityRow, error) {
					app, ok := workload.ByName("hmmer")
					if !ok {
						return ReliabilityRow{}, fmt.Errorf("figs: hmmer missing from the suite")
					}
					app = app.Scale(0.5 * h.Scale)
					opts := experiment.Opts{
						Target: target, Model: h.Model, Tolerance: 0.10,
						MaxQuanta:   reliabilityQuanta,
						FabricWidth: reliabilityDim, FabricHeight: reliabilityDim,
						Initial: vcore.Config{Slices: 2, L2KB: 128},
						Sims:    h.sims(ssim.SteerEarliest),
					}
					if rate > 0 {
						sched := fault.MustGenerate(fault.Spec{
							Rate:    rate,
							Horizon: int64(reliabilityQuanta) * 100_000 * 2,
							Width:   reliabilityDim, Height: reliabilityDim,
							Seed: seed,
						})
						opts.Faults = &sched
					} else {
						opts.Faults = &fault.Schedule{}
					}
					policy := p.build()
					res, err := h.runBatch(app, policy, opts)
					if err != nil {
						return ReliabilityRow{}, err
					}
					row := ReliabilityRow{
						Allocator: p.name, Rate: rate,
						Cost: res.TotalCost, ViolationRate: res.ViolationRate,
						Stats: res.FaultStats, Guard: res.Guard,
					}
					if rt, isCASH := policy.(*cashrt.Runtime); isCASH {
						row.Backoffs = rt.Backoffs
					}
					return row, nil
				},
			})
		}
	}
	outs := runTyped(h, cells)

	h.printf("Reliability: cost and QoS under injected tile faults (4x4 chip, accelerated rates)\n\n")
	h.printf("%-18s %-12s %10s %7s %7s %7s %7s %7s %8s %9s %6s\n",
		"allocator", "faults/Mcyc", "$", "vs ok", "viol%", "strikes", "remaps", "degr", "denials", "backoffs", "trips")

	var rows []ReliabilityRow
	i := 0
	for _, p := range policies {
		var faultFreeCost float64
		for _, rate := range rates {
			o := outs[i]
			i++
			if o.failed != "" {
				h.printf("%-18s %-12.2f %s\n", p.name, rate, o.failed)
				continue
			}
			row := o.val
			rows = append(rows, row)
			if rate == 0 {
				faultFreeCost = row.Cost
			}
			rel := 1.0
			if faultFreeCost > 0 {
				rel = row.Cost / faultFreeCost
			}
			h.printf("%-18s %-12.2f %10.3g %6.2fx %7.1f %7d %7d %7d %8d %9d %6d\n",
				row.Allocator, row.Rate, row.Cost, rel, 100*row.ViolationRate,
				row.Stats.Faults, row.Stats.Remaps, row.Stats.Degradations,
				row.Stats.Denials, row.Backoffs, row.Guard.Trips())
		}
	}
	h.printf("\n(strikes = applied tile faults; degr = forced shrinks; denials = refused expansions; trips = guardrail activations)\n")
	return rows, nil
}
