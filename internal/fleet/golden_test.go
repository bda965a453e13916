package fleet

import (
	"fmt"
	"testing"

	"cash/internal/fault"
)

// goldenRuns pin fleet.Run's observable behaviour: the digest and every
// Stats counter of the healthy fleet and of each soak scenario, built
// as the fleet soak first built them, at one seed each (seed 14 for mixed, whose random schedule
// at that seed produces re-executions, orphans and duplicates). The values were
// recorded before the executor became a steppable core shared with
// cashd; any drift means the refactor changed what the fleet does.
var goldenRuns = []struct {
	scenario string // "" = healthy, no faults
	seed     uint64
	digest   uint64
	stats    string
}{
	{"", 1, 0xbb3cef8373693b6c,
		"{Ticks:19 Placements:40 ReExecutions:0 Revocations:0 DeathRevocations:0 ExpiryRevocations:0 RedundantCancels:0 DrainRevocations:0 Refunds:40 GrantedNanos:2618510 ConsumedNanos:2327578 RefundedNanos:290932 GrantDenials:0 Deliveries:40 OrphanDeliveries:0 DupDeliveries:0 Detector:{Suspicions:0 FalseSuspicions:0 Confirmations:0 Resurrections:0} Cuts:10}"},
	{"kill-k", 1, 0x3a1f0e2a262df98f,
		"{Ticks:32 Placements:52 ReExecutions:12 Revocations:12 DeathRevocations:12 ExpiryRevocations:0 RedundantCancels:0 DrainRevocations:0 Refunds:52 GrantedNanos:3419770 ConsumedNanos:2327578 RefundedNanos:1092192 GrantDenials:0 Deliveries:40 OrphanDeliveries:0 DupDeliveries:0 Detector:{Suspicions:3 FalseSuspicions:0 Confirmations:3 Resurrections:0} Cuts:10}"},
	{"hang", 1, 0x52c7261e2115cb4c,
		"{Ticks:32 Placements:46 ReExecutions:6 Revocations:6 DeathRevocations:6 ExpiryRevocations:0 RedundantCancels:0 DrainRevocations:0 Refunds:46 GrantedNanos:2985952 ConsumedNanos:2327578 RefundedNanos:658374 GrantDenials:0 Deliveries:46 OrphanDeliveries:0 DupDeliveries:6 Detector:{Suspicions:3 FalseSuspicions:0 Confirmations:3 Resurrections:3} Cuts:10}"},
	{"hbloss", 1, 0x9f76c4ff2e56335f,
		"{Ticks:26 Placements:45 ReExecutions:5 Revocations:10 DeathRevocations:5 ExpiryRevocations:0 RedundantCancels:5 DrainRevocations:0 Refunds:45 GrantedNanos:3034327 ConsumedNanos:1957961 RefundedNanos:1076366 GrantDenials:0 Deliveries:40 OrphanDeliveries:5 DupDeliveries:0 Detector:{Suspicions:3 FalseSuspicions:0 Confirmations:3 Resurrections:3} Cuts:10}"},
	{"mixed", 14, 0x953b86b224ff4276,
		"{Ticks:29 Placements:47 ReExecutions:7 Revocations:10 DeathRevocations:7 ExpiryRevocations:0 RedundantCancels:3 DrainRevocations:0 Refunds:47 GrantedNanos:3583265 ConsumedNanos:2230904 RefundedNanos:1352361 GrantDenials:0 Deliveries:41 OrphanDeliveries:3 DupDeliveries:1 Detector:{Suspicions:3 FalseSuspicions:0 Confirmations:3 Resurrections:2} Cuts:10}"},
}

func goldenOptions(t *testing.T, scenario string, seed uint64) Options {
	t.Helper()
	const chips = 6
	opts := Options{
		Chips:        chips,
		SlotsPerChip: 2,
		Detector:     AggressiveDetector,
		Work:         SyntheticWork{TenantCount: 10, CellsPerTenant: 4, Seed: seed},
		MaxTicks:     2_000,
	}
	switch scenario {
	case "":
	case "kill-k":
		opts.Faults = fault.KillK(chips, 2, 6)
		opts.Faults.Events = append(opts.Faults.Events, fault.ChipEvent{
			Tick: 14, Chip: (chips - 1) - int(seed%chips), Kind: fault.ChipCrash, Duration: 25,
		})
	case "hang":
		for i := 0; i < chips; i += 2 {
			opts.Faults.Events = append(opts.Faults.Events, fault.ChipEvent{
				Tick: 5 + int64(i), Chip: i, Kind: fault.ChipHang, Duration: 18 + int64(seed%5),
			})
		}
	case "hbloss":
		for i := 1; i < chips; i += 2 {
			opts.Faults.Events = append(opts.Faults.Events, fault.ChipEvent{
				Tick: 4 + int64(i), Chip: i, Kind: fault.ChipHBLoss, Duration: 16 + int64(seed%4),
			})
		}
	case "mixed":
		sched, err := fault.GenerateChipFaults(fault.ChipSpec{Chips: chips, Horizon: 60, Rate: 2.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = sched
	default:
		t.Fatalf("no soak scenario %q", scenario)
	}
	return opts
}

func TestRunGolden(t *testing.T) {
	for _, g := range goldenRuns {
		name := g.scenario
		if name == "" {
			name = "healthy"
		}
		t.Run(name, func(t *testing.T) {
			res := mustRun(t, goldenOptions(t, g.scenario, g.seed))
			assertContract(t, res)
			if stats := fmt.Sprintf("%+v", res.Stats); stats != g.stats {
				t.Errorf("stats drifted:\n got %s\nwant %s", stats, g.stats)
			}
			if res.Digest != g.digest {
				t.Errorf("digest %#016x, want %#016x", res.Digest, g.digest)
			}
		})
	}
}
