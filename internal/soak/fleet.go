package soak

import (
	"fmt"
	"path/filepath"

	"cash/internal/fault"
	"cash/internal/fleet"
	"cash/internal/supervise"
)

// The fleet suite kills K of N chips mid-run (plus hang, partition and
// mixed-fault variants) and asserts the control plane's contract:
//
//   - complete: every tenant cell eventually lands,
//   - exactly once: each cell lands once in the ledger and the journal
//     holds one final record per cell, however many orphaned or
//     duplicate deliveries the failures made,
//   - reconciled: granted = consumed + refunded at every envelope.
//
// The first run journals; the replay runs without the journal, whose
// dedup state is external input, and must reach the same digest.

// fleetShape sizes a fleet run: chips × slots hosting tenants × cells,
// with kill chips crashed by the kill-k scenario.
type fleetShape struct {
	chips, slots, tenants, cells, kill int
}

var fleetDefault = fleetShape{chips: 6, slots: 2, tenants: 10, cells: 4, kill: 2}

// fleetScenario builds a run's chip-fault schedule. With
// ~tenants×cells×meanDuration serial ticks of work over chips×slots
// slots, tick 6 lands well inside the first wave of leases.
type fleetScenario struct {
	name  string
	sched func(sh fleetShape, seed uint64) fault.ChipSchedule
}

var fleetScenarios = []fleetScenario{
	{name: "kill-k", sched: func(sh fleetShape, seed uint64) fault.ChipSchedule {
		// Two waves of kills: K chips at tick 6 and one more at tick 14,
		// so recovery itself is also hit by a failure.
		s := fault.KillK(sh.chips, sh.kill, 6)
		s.Events = append(s.Events, fault.ChipEvent{
			Tick: 14, Chip: (sh.chips - 1) - int(seed%uint64(sh.chips)), Kind: fault.ChipCrash, Duration: 25,
		})
		return s
	}},
	{name: "hang", sched: func(sh fleetShape, seed uint64) fault.ChipSchedule {
		// Hangs long enough for the detector to confirm death, so the
		// frozen attempts come back as orphans after re-placement.
		var s fault.ChipSchedule
		for i := 0; i < sh.chips; i += 2 {
			s.Events = append(s.Events, fault.ChipEvent{
				Tick: 5 + int64(i), Chip: i, Kind: fault.ChipHang, Duration: 18 + int64(seed%5),
			})
		}
		return s
	}},
	{name: "hbloss", sched: func(sh fleetShape, seed uint64) fault.ChipSchedule {
		// Partitions: chips keep executing while silent, manufacturing
		// false suspicions, false deaths, orphan and duplicate deliveries.
		var s fault.ChipSchedule
		for i := 1; i < sh.chips; i += 2 {
			s.Events = append(s.Events, fault.ChipEvent{
				Tick: 4 + int64(i), Chip: i, Kind: fault.ChipHBLoss, Duration: 16 + int64(seed%4),
			})
		}
		return s
	}},
	{name: "mixed", sched: func(sh fleetShape, seed uint64) fault.ChipSchedule {
		// Random crashes, hangs and partitions. A run lands its cells in
		// ~20-30 ticks, so 25 faults per 1000 chip-ticks (one every ~7
		// ticks on 6 chips) strikes while leases are live.
		s, err := fault.GenerateChipFaults(fault.ChipSpec{
			Chips: sh.chips, Horizon: 60, Rate: 25, Seed: seed,
		})
		if err != nil {
			panic(err) // unreachable: the spec is valid by construction
		}
		return s
	}},
}

// fleetSuite registers every fleet scenario at the given shape.
func fleetSuite(sh fleetShape) []scenario {
	var out []scenario
	for _, f := range fleetScenarios {
		out = append(out, scenario{suite: "fleet", name: f.name, seed: spreadSeed,
			run: func(seed uint64, dir string, replay bool) Result {
				journal := ""
				if !replay {
					journal = filepath.Join(dir, fmt.Sprintf("fleet-%s-%d.jsonl", f.name, seed))
				}
				_, o := runFleet(f, sh, seed, journal)
				return o
			}})
	}
	return out
}

// runFleet executes one fleet run, journaling to journal when it is
// non-empty. Its counters are the re-executions and orphan deliveries.
func runFleet(s fleetScenario, sh fleetShape, seed uint64, journal string) (res fleet.Result, o Result) {
	opts := fleet.Options{
		Chips:        sh.chips,
		SlotsPerChip: sh.slots,
		// An aggressive detector (confirmation after ~4 ticks of
		// silence) relative to 3-8 tick cells, so partitions and hangs
		// are regularly mistaken for deaths and the orphan/duplicate
		// paths get real traffic.
		Detector: fleet.AggressiveDetector,
		Work: fleet.SyntheticWork{
			TenantCount:    sh.tenants,
			CellsPerTenant: sh.cells,
			Seed:           seed,
		},
		Faults:   s.sched(sh, seed),
		MaxTicks: 2_000,
	}
	if journal != "" {
		meta := fmt.Sprintf("fleet-soak v1 %s seed=%d chips=%d", s.name, seed, sh.chips)
		j, err := supervise.OpenJournal(journal, meta, false)
		if err != nil {
			o.Violations = append(o.Violations, fmt.Sprintf("journal open: %v", err))
			return res, o
		}
		defer j.Close()
		opts.Journal = j
	}
	res, err := fleet.Run(opts)
	if err != nil {
		o.Violations = append(o.Violations, fmt.Sprintf("run: %v", err))
		return res, o
	}
	if !res.Complete {
		o.Violations = append(o.Violations,
			fmt.Sprintf("incomplete: %d/%d cells landed in %d ticks", res.Landed, res.Cells, res.Stats.Ticks))
	}
	if !res.ExactlyOnce {
		o.Violations = append(o.Violations, "exactly-once violated: a cell landed != 1 times")
	}
	if !res.Reconciled {
		o.Violations = append(o.Violations, "budget unreconciled: granted != consumed + refunded")
	}
	if opts.Journal != nil && opts.Journal.Completed("") != res.Cells {
		o.Violations = append(o.Violations,
			fmt.Sprintf("journal holds %d final records, want %d", opts.Journal.Completed(""), res.Cells))
	}
	o.Digest = fmt.Sprintf("%016x", res.Digest)
	o.Counters = []Counter{
		{"re-executions", res.Stats.ReExecutions},
		{"orphan deliveries", res.Stats.OrphanDeliveries},
	}
	return res, o
}
