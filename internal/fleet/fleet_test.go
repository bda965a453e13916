package fleet

import (
	"fmt"
	"path/filepath"
	"testing"

	"cash/internal/fault"
	"cash/internal/supervise"
	"cash/internal/vcore"
)

func testWork(seed uint64) SyntheticWork {
	return SyntheticWork{TenantCount: 6, CellsPerTenant: 4, Seed: seed}
}

func testOptions(seed uint64) Options {
	return Options{Chips: 6, Work: testWork(seed), MaxTicks: 2_000}
}

func mustRun(t *testing.T, opts Options) Result {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertContract(t *testing.T, res Result) {
	t.Helper()
	if !res.Complete {
		t.Fatalf("incomplete: %d/%d cells in %d ticks", res.Landed, res.Cells, res.Stats.Ticks)
	}
	if !res.ExactlyOnce {
		t.Fatal("exactly-once violated")
	}
	if !res.Reconciled {
		t.Fatalf("budget unreconciled: granted %d, consumed %d, refunded %d",
			res.Stats.GrantedNanos, res.Stats.ConsumedNanos, res.Stats.RefundedNanos)
	}
	if res.Stats.GrantedNanos != res.Stats.ConsumedNanos+res.Stats.RefundedNanos {
		t.Fatalf("root identity broken: %d != %d + %d",
			res.Stats.GrantedNanos, res.Stats.ConsumedNanos, res.Stats.RefundedNanos)
	}
	for _, b := range res.Bills {
		if b.Granted != b.Consumed+b.Refunded {
			t.Fatalf("tenant %d identity broken: %d != %d + %d", b.Tenant, b.Granted, b.Consumed, b.Refunded)
		}
	}
}

func TestHealthyFleetCompletes(t *testing.T) {
	res := mustRun(t, testOptions(1))
	assertContract(t, res)
	if res.Stats.ReExecutions != 0 {
		t.Fatalf("healthy run re-executed %d cells", res.Stats.ReExecutions)
	}
	if res.Stats.Revocations != 0 {
		t.Fatalf("healthy run revoked %d leases", res.Stats.Revocations)
	}
	if res.Availability != 1 {
		t.Fatalf("healthy availability = %v", res.Availability)
	}
	// Every cell's grant included headroom, so every settle refunded.
	if res.Stats.Refunds < int64(res.Cells) {
		t.Fatalf("refunds = %d, want >= %d (headroom per cell)", res.Stats.Refunds, res.Cells)
	}
	if res.CostNanos <= 0 {
		t.Fatalf("cost = %d nanos", res.CostNanos)
	}
}

func TestKillKRecoversExactlyOnce(t *testing.T) {
	opts := testOptions(2)
	opts.Faults = fault.KillK(opts.Chips, 2, 5)
	res := mustRun(t, opts)
	assertContract(t, res)
	if res.Stats.DeathRevocations == 0 {
		t.Fatal("killing 2 chips mid-run produced no death revocations")
	}
	if res.Stats.ReExecutions == 0 {
		t.Fatal("killing 2 chips mid-run produced no re-executions")
	}
	if res.Availability >= 1 {
		t.Fatalf("availability = %v with 2 dead chips", res.Availability)
	}
	if res.TTRMax == 0 {
		t.Fatal("no time-to-recovery samples despite displacements")
	}
}

func TestHeartbeatLossMakesOrphansNotDoubleCharges(t *testing.T) {
	// Partition half the fleet long enough to be declared dead while
	// still executing: their deliveries arrive under revoked leases. The
	// detector must be fast relative to cell durations (3-8 ticks) or
	// every attempt settles before its lease can be revoked.
	opts := Options{
		Chips:    6,
		Work:     SyntheticWork{TenantCount: 10, CellsPerTenant: 4, Seed: 3},
		Detector: AggressiveDetector,
		MaxTicks: 2_000,
	}
	for i := 0; i < opts.Chips; i += 2 {
		opts.Faults.Events = append(opts.Faults.Events, fault.ChipEvent{
			Tick: 3, Chip: i, Kind: fault.ChipHBLoss, Duration: 12,
		})
	}
	res := mustRun(t, opts)
	assertContract(t, res)
	if res.Stats.Detector.Confirmations == 0 {
		t.Fatal("partition never confirmed as (false) death")
	}
	if res.Stats.OrphanDeliveries+res.Stats.DupDeliveries == 0 {
		t.Fatal("partitioned chips produced no orphan or duplicate deliveries")
	}
	if res.Stats.Detector.Resurrections == 0 {
		t.Fatal("partition healed but no chip resurrected")
	}
}

func TestHangExpiresLeases(t *testing.T) {
	opts := Options{Chips: 2, Work: testWork(4), MaxTicks: 2_000}
	opts.Faults.Events = append(opts.Faults.Events, fault.ChipEvent{
		Tick: 1, Chip: 0, Kind: fault.ChipHang, Duration: 40,
	})
	res := mustRun(t, opts)
	assertContract(t, res)
	if res.Stats.ExpiryRevocations+res.Stats.DeathRevocations == 0 {
		t.Fatal("hanging a chip caused no revocations")
	}
}

func TestRebootedChipRejoins(t *testing.T) {
	opts := Options{Chips: 3, Work: testWork(5), MaxTicks: 2_000}
	// Kill 2 of 3 with reboots: the fleet must squeeze through the
	// 1-chip bottleneck and then re-expand.
	opts.Faults.Events = []fault.ChipEvent{
		{Tick: 4, Chip: 0, Kind: fault.ChipCrash, Duration: 30},
		{Tick: 4, Chip: 1, Kind: fault.ChipCrash, Duration: 30},
	}
	res := mustRun(t, opts)
	assertContract(t, res)
	if res.Stats.Detector.Resurrections == 0 {
		t.Fatal("rebooted chips never resurrected in the detector")
	}
}

func TestReplayIsByteIdentical(t *testing.T) {
	for _, seed := range []uint64{1, 7, 99} {
		opts := testOptions(seed)
		opts.Faults = fault.KillK(opts.Chips, 2, 6)
		a := mustRun(t, opts)
		b := mustRun(t, opts)
		if a.Digest != b.Digest {
			t.Fatalf("seed %d: replay diverged: %016x vs %016x", seed, a.Digest, b.Digest)
		}
	}
	// Different work must (overwhelmingly) produce a different digest.
	a := mustRun(t, testOptions(1))
	b := mustRun(t, testOptions(2))
	if a.Digest == b.Digest {
		t.Fatal("different seeds produced identical digests")
	}
}

func TestJournalLandsEveryCellOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	j, err := supervise.OpenJournal(path, "fleet-test", false)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(6)
	opts.Faults = fault.KillK(opts.Chips, 2, 5)
	opts.Journal = j
	res := mustRun(t, opts)
	assertContract(t, res)
	if got := j.Completed(""); got != res.Cells {
		t.Fatalf("journal holds %d final records, want %d", got, res.Cells)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen for resume: every cell is final, nothing corrupt.
	j2, err := supervise.OpenJournal(path, "fleet-test", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Discarded != "" || j2.Skipped != 0 {
		t.Fatalf("journal not cleanly resumable: %q, %d skipped", j2.Discarded, j2.Skipped)
	}
	if got := j2.Completed(""); got != res.Cells {
		t.Fatalf("resumed journal holds %d records, want %d", got, res.Cells)
	}
}

// TestResumedJournalChargesOnlyNewLandings runs a fleet over a journal
// that already holds some of its cells. Those cells re-execute, but
// their landings lose the journal race and are refunded in full: the
// run charges only for the cells it journaled itself.
func TestResumedJournalChargesOnlyNewLandings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.jsonl")
	j, err := supervise.OpenJournal(path, "fleet-test", false)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(8)
	opts.Journal = j
	opts.MaxTicks = 6 // cut short: some cells land, the rest are drained
	first := mustRun(t, opts)
	if first.Landed == 0 || first.Complete {
		t.Fatalf("first run landed %d/%d cells, want some but not all", first.Landed, first.Cells)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := supervise.OpenJournal(path, "fleet-test", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var want Nanos
	w := opts.Work
	for tn := 0; tn < w.Tenants(); tn++ {
		for c := 0; c < w.Cells(tn); c++ {
			if _, final := j2.Lookup(CellKey(tn, c)); !final {
				want += priceTick(w.Config(tn, c)) * w.Duration(tn, c)
			}
		}
	}
	opts.Journal = j2
	opts.MaxTicks = 2_000
	res := mustRun(t, opts)
	assertContract(t, res)
	if res.Stats.ConsumedNanos != want || res.CostNanos != want {
		t.Fatalf("consumed %d nanos, want %d: the price of the %d cells this run journaled",
			res.Stats.ConsumedNanos, want, res.Cells-first.Landed)
	}
	if got := res.Stats.RedundantCancels; got != int64(first.Landed) {
		t.Fatalf("%d attempts refunded as already journaled, want %d", got, first.Landed)
	}
	if got := j2.Completed(""); got != res.Cells {
		t.Fatalf("journal holds %d final records, want %d", got, res.Cells)
	}
}

// uniformWork gives every tenant identical cells so envelope arithmetic
// is exact in the test.
type uniformWork struct {
	tenants, cells int
	dur            int64
}

func (w uniformWork) Tenants() int            { return w.tenants }
func (w uniformWork) Cells(int) int           { return w.cells }
func (w uniformWork) Duration(int, int) int64 { return w.dur }
func (w uniformWork) Config(int, int) vcore.Config {
	return vcore.Config{Slices: 1, L2KB: 64}
}
func (w uniformWork) Run(t, c int) (string, error) { return fmt.Sprintf("u%d.%d", t, c), nil }

func TestTightBudgetStallsThenRecovers(t *testing.T) {
	// Envelope limits are lifetime caps, so a completing run needs funds
	// for its full consumption — but grants carry ~12.5% headroom on
	// top. With each tenant's limit set to its exact consumption plus a
	// quarter-cell, only 3 of its 4 cells can hold grants concurrently:
	// admission stalls until an earlier settle refunds its headroom,
	// then proceeds, and the run still completes for exactly the nominal
	// price.
	work := uniformWork{tenants: 6, cells: 4, dur: 4}
	nominal := priceTick(work.Config(0, 0)) * work.dur
	opts := Options{
		Chips:       6,
		Work:        work,
		TenantFunds: 4*nominal + nominal/4,
		MaxTicks:    2_000,
	}
	opts.Funds = 6 * opts.TenantFunds
	res := mustRun(t, opts)
	assertContract(t, res)
	if res.Stats.GrantDenials == 0 {
		t.Fatal("tight tenant envelopes produced no grant denials")
	}
	if want := 24 * nominal; res.CostNanos != want {
		t.Fatalf("consumed %d nanos, want exactly %d", res.CostNanos, want)
	}
	if res.Stats.Cuts != 0 {
		t.Fatalf("exactly-subscribed tree was cut %d times", res.Stats.Cuts)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Options{Chips: 0, Work: testWork(1)}); err == nil {
		t.Fatal("zero chips accepted")
	}
	if _, err := Run(Options{Chips: 2}); err == nil {
		t.Fatal("nil work accepted")
	}
	if _, err := Run(Options{Chips: 2, Work: SyntheticWork{TenantCount: 1, CellsPerTenant: 1, MinTicks: -4, MaxTicks: -4}}); err == nil {
		t.Fatal("non-positive durations accepted")
	}
	bad := fault.ChipSchedule{Events: []fault.ChipEvent{{Tick: 1, Chip: 99, Kind: fault.ChipCrash}}}
	if _, err := Run(Options{Chips: 2, Work: testWork(1), Faults: bad}); err == nil {
		t.Fatal("out-of-range fault schedule accepted")
	}
}
