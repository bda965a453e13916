package figs

import (
	"fmt"

	"cash/internal/fault"
	"cash/internal/fleet"
	"cash/internal/vcore"
)

// fleetRow is one scenario's supervised-cell payload for the fleet
// study.
type fleetRow struct {
	Scenario     string
	Ticks        int64
	Availability float64
	Cost         float64 // dollars actually consumed
	Refunded     float64 // dollars granted but returned
	Placements   int64
	ReExecutions int64
	Orphans      int64
	Dups         int64
	Suspicions   int64
	FalseSusp    int64
	Revocations  int64
	TTRp50       int64
	TTRp99       int64
	TTRMax       int64
	ExactlyOnce  bool
	Reconciled   bool
	ReplayOK     bool
	Digest       string
}

// fleetScenario is one chip-failure pattern under study.
type fleetScenario struct {
	key   string
	sched func(chips, kill int) fault.ChipSchedule
}

// FleetStudy runs the fleet control-plane artifact: N chips hosting M
// tenants of real CASH experiments (static sub-core rentals summarised
// per cell), taken through a healthy baseline and three failure
// patterns — crash-K, partition (heartbeat loss) and hang storm. Each
// scenario reports cost, re-execution count, availability and the tail
// of time-to-recovery, plus the control plane's own guarantees: every
// cell landed exactly once, every envelope reconciled (granted =
// consumed + refunded), and a second run of the same schedule produced
// a bit-identical digest.
func (h *Harness) FleetStudy() error {
	chips := h.FleetChips
	if chips == 0 {
		chips = 6
	}
	tenants := h.FleetTenants
	if tenants == 0 {
		tenants = 6
	}
	kill := h.FleetKill
	if kill == 0 {
		kill = 2
	}
	if kill >= chips {
		kill = chips - 1
	}

	apps := h.apps()
	if tenants > len(apps) {
		// Wrap the suite: tenant i runs app i mod len(apps); the cells
		// still differ because the journal key carries the tenant index.
		for i := len(apps); i < tenants; i++ {
			apps = append(apps, apps[i%len(apps)])
		}
	}
	apps = apps[:tenants]
	configs := []vcore.Config{
		{Slices: 1, L2KB: 64},
		{Slices: 1, L2KB: 256},
		{Slices: 2, L2KB: 512},
		{Slices: 4, L2KB: 1024},
	}
	work := &fleet.ExperimentWork{
		Apps:    apps,
		Configs: configs,
		Target:  0.25,
		Seed:    h.Seed,
	}

	h.printf("Fleet control plane: %d chips × %d tenants × %d cells (crash-K kills %d)\n\n",
		chips, tenants, len(configs), kill)

	scenarios := []fleetScenario{
		{key: "baseline", sched: func(_, _ int) fault.ChipSchedule { return fault.ChipSchedule{} }},
		{key: "crash-K", sched: func(chips, kill int) fault.ChipSchedule {
			return fault.KillK(chips, kill, 6)
		}},
		{key: "partition", sched: func(chips, _ int) fault.ChipSchedule {
			var s fault.ChipSchedule
			for i := 0; i < chips; i += 2 {
				s.Events = append(s.Events, fault.ChipEvent{
					Tick: 3, Chip: i, Kind: fault.ChipHBLoss, Duration: 12,
				})
			}
			return s
		}},
		{key: "hang-storm", sched: func(chips, _ int) fault.ChipSchedule {
			var s fault.ChipSchedule
			for i := 0; i < chips; i += 2 {
				s.Events = append(s.Events, fault.ChipEvent{
					Tick: 4 + int64(i), Chip: i, Kind: fault.ChipHang, Duration: 15,
				})
			}
			return s
		}},
	}

	var cells []cell[fleetRow]
	for _, sc := range scenarios {
		cells = append(cells, cell[fleetRow]{
			key: "fleet/" + sc.key,
			run: func() (fleetRow, error) {
				opts := fleet.Options{
					Chips:    chips,
					Work:     work,
					Detector: fleet.AggressiveDetector,
					Faults:   sc.sched(chips, kill),
				}
				res, err := fleet.Run(opts)
				if err != nil {
					return fleetRow{}, err
				}
				replay, err := fleet.Run(opts)
				if err != nil {
					return fleetRow{}, err
				}
				s := res.Stats
				return fleetRow{
					Scenario:     sc.key,
					Ticks:        s.Ticks,
					Availability: res.Availability,
					Cost:         fleet.Dollars(res.CostNanos),
					Refunded:     fleet.Dollars(s.RefundedNanos),
					Placements:   s.Placements,
					ReExecutions: s.ReExecutions,
					Orphans:      s.OrphanDeliveries,
					Dups:         s.DupDeliveries,
					Suspicions:   s.Detector.Suspicions,
					FalseSusp:    s.Detector.FalseSuspicions,
					Revocations:  s.Revocations,
					TTRp50:       res.TTRp50,
					TTRp99:       res.TTRp99,
					TTRMax:       res.TTRMax,
					ExactlyOnce:  res.ExactlyOnce,
					Reconciled:   res.Reconciled,
					ReplayOK:     res.Digest == replay.Digest,
					Digest:       fmt.Sprintf("%016x", res.Digest),
				}, nil
			},
		})
	}
	h.printf("%-11s %6s %6s %10s %10s %6s %7s %7s %5s %6s %6s  %-14s %s\n",
		"scenario", "ticks", "avail", "cost$", "refund$", "reexec", "orphans", "revoked", "susp", "ttr50", "ttr99", "guarantees", "digest")
	for i, o := range runTyped(h, cells) {
		if o.failed != "" {
			h.printf("# %-11s %s\n", scenarios[i].key, o.failed)
			continue
		}
		row := o.val
		guar := fmt.Sprintf("1x=%s $=%s rep=%s",
			mark(row.ExactlyOnce), mark(row.Reconciled), mark(row.ReplayOK))
		h.printf("%-11s %6d %6.3f %10.6f %10.6f %6d %7d %7d %5d %6d %6d  %-14s %s\n",
			row.Scenario, row.Ticks, row.Availability, row.Cost, row.Refunded,
			row.ReExecutions, row.Orphans, row.Revocations, row.Suspicions,
			row.TTRp50, row.TTRp99, guar, row.Digest)
	}
	h.printf("\n# guarantees: 1x = every cell landed exactly once, $ = granted=consumed+refunded per envelope, rep = byte-identical replay\n")
	h.Save()
	return nil
}

// mark renders a guarantee check.
func mark(ok bool) string {
	if ok {
		return "ok"
	}
	return "VIOLATED"
}
