// Package fleet is the IaaS-provider control plane above the chip
// simulators: a deterministic simulated fleet of N chips hosting M
// tenants, governed by hierarchical budget envelopes and time-bounded
// leases. A controller admits tenant cells against the budget tree,
// hands each placement a lease with a deadline, monitors chips through
// a heartbeat failure detector, and on lease expiry or confirmed chip
// death revokes the lease, refunds the unconsumed grant, and re-places
// the work on survivors — with results deduplicated through a
// fleet-level journal so every cell lands exactly once however many
// chips die under it. The whole simulation is a single-threaded
// discrete-tick loop over a fake clock (one tick = one simulated
// second), so a run is a pure function of its options and replays
// byte-identically. A Fleet is steppable: Run drives one over a fixed
// grid, and the cashd daemon admits tenants as they are submitted and
// steps the same executor from its epoch timer, so pricing, grant
// headroom, placement and the settle/refund rules exist once, here.
package fleet

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"cash/internal/cost"
	"cash/internal/fault"
	"cash/internal/stats"
	"cash/internal/supervise"
	"cash/internal/vcore"
)

// TickCycles is how many core cycles one fleet tick represents: 1e9,
// i.e. one second at the paper's 1 GHz clock. Rental prices per tick
// follow from cost.Model.Charge over this many cycles.
const TickCycles = 1e9

// tickLen is the fake-clock duration of one tick.
const tickLen = time.Second

// Options configure a fleet run. Zero values select the defaults noted
// on each field.
type Options struct {
	// Chips is the fleet size. Required.
	Chips int
	// SlotsPerChip is how many cells a chip hosts at once (default 2).
	SlotsPerChip int
	// Work is the tenant grid to execute. Required.
	Work Work
	// Funds is the root envelope in nanodollars (default: enough to run
	// the grid ~4 times over, so refunds — not admission stalls —
	// dominate).
	Funds Nanos
	// TenantFunds caps each tenant's envelope (default Funds: tenants
	// oversubscribe the root on paper and CutToFit trims them).
	TenantFunds Nanos
	// Detector tunes failure detection.
	Detector DetectorConfig
	// Faults is the chip-fault schedule to inject.
	Faults fault.ChipSchedule
	// MaxTicks bounds the run (default 10_000).
	MaxTicks int64
	// Journal, when non-nil, receives one exactly-once record per cell
	// (keys from CellKey). A cell it already holds still executes, but
	// its lease is refunded rather than charged. The caller owns
	// open/close.
	Journal *supervise.Journal
}

func (o Options) withDefaults() Options {
	if o.SlotsPerChip == 0 {
		o.SlotsPerChip = 2
	}
	if o.MaxTicks == 0 {
		o.MaxTicks = 10_000
	}
	return o
}

// Stats counts control-plane events over a run.
type Stats struct {
	// Ticks is how long the run took in fleet ticks.
	Ticks int64
	// Placements counts leases issued; ReExecutions is the subset that
	// re-ran a cell already placed before (the re-execution count the
	// exactly-once machinery exists to absorb).
	Placements   int64
	ReExecutions int64
	// Revocations splits by cause: confirmed chip death, lease deadline
	// expiry, redundant attempts cancelled because their cell landed
	// elsewhere (through an orphan, or in the journal of an earlier
	// run), and the end-of-run drain of still-outstanding leases.
	Revocations       int64
	DeathRevocations  int64
	ExpiryRevocations int64
	RedundantCancels  int64
	DrainRevocations  int64
	// Refunds counts refund events; RefundedNanos / ConsumedNanos /
	// GrantedNanos are the money totals at the root envelope.
	Refunds       int64
	GrantedNanos  Nanos
	ConsumedNanos Nanos
	RefundedNanos Nanos
	// GrantDenials counts placements deferred for lack of budget.
	GrantDenials int64
	// Deliveries counts results handed to the controller;
	// OrphanDeliveries arrived under a revoked lease (charging nothing)
	// and DupDeliveries arrived for an already-landed cell.
	Deliveries       int64
	OrphanDeliveries int64
	DupDeliveries    int64
	// Detector holds the failure-detector transition counters.
	Detector DetectorStats
	// Cuts is how many structural budget cuts admission applied.
	Cuts int
}

// TenantBill is one tenant's budget reconciliation.
type TenantBill struct {
	Tenant   int
	Granted  Nanos
	Consumed Nanos
	Refunded Nanos
}

// Result is a completed fleet run.
type Result struct {
	Stats Stats
	// Cells and Landed size the grid and how much of it finished;
	// Complete means every cell landed within MaxTicks.
	Cells, Landed int
	Complete      bool
	// ExactlyOnce asserts the core guarantee: every cell landed exactly
	// once in the controller ledger (and journal, when one is attached),
	// duplicates notwithstanding.
	ExactlyOnce bool
	// Reconciled asserts the budget identity granted = consumed +
	// refunded at the root and every tenant envelope.
	Reconciled bool
	// Availability is the fraction of chip-ticks chips were up
	// (ground truth, not the detector's view).
	Availability float64
	// CostNanos is the total consumed budget (= root envelope consumed).
	CostNanos Nanos
	// Bills reconcile per tenant.
	Bills []TenantBill
	// TTRp50/TTRp99/TTRMax summarise time-to-recovery: ticks from a
	// cell's displacement (ground-truth chip failure where known, else
	// revocation) to its re-placement.
	TTRp50, TTRp99, TTRMax int64
	// Digest fingerprints the run for byte-identical replay checks.
	Digest uint64
}

// Landing is one cell result on its way to the books. Consumed is what
// the landing charges: the cell's nominal price when its lease is still
// active, zero for an orphan whose lease was already refunded.
type Landing struct {
	Tenant, Cell int
	Value        string
	Consumed     Nanos
}

// Recorder journals a landing before the fleet bills it, reporting
// whether this landing won the cell's record. False means the journal
// already held the cell, and the fleet then refunds the attempt in full
// instead of charging for the cell twice.
type Recorder func(Landing) (won bool, err error)

// Attempt is one placement executing under an active lease.
type Attempt struct {
	Tenant, Cell, Chip int
	Remaining          int64
}

// attempt is one executing placement: a lease plus remaining work.
type attempt struct {
	lease     *Lease
	remaining int64
}

// chipRun is a chip's ground-truth state (what actually happens, as
// opposed to what the detector believes).
type chipRun struct {
	up        bool  // not crashed
	rebootAt  int64 // when a rebooting crash comes back (0 = none pending)
	hungUntil int64
	hbOffTill int64
	slots     []*attempt
}

func (c *chipRun) executing(tick int64) bool { return c.up && tick >= c.hungUntil }
func (c *chipRun) beating(tick int64) bool {
	return c.executing(tick) && tick >= c.hbOffTill
}

// cellTrack is the controller's ledger entry for one cell.
type cellTrack struct {
	tenant, cell int
	duration     int64
	price        Nanos // nominal execution price: per-tick rent × duration

	placedOnce  bool
	lease       *Lease // active lease, nil when pending or landed
	landed      bool
	value       string
	landings    int   // ledger exactly-once count (should end at 1)
	displacedAt int64 // tick the current displacement began (-1 = none)
	crashedAt   int64 // ground-truth failure tick for TTR (-1 = none)
}

// tenantTrack is one admitted tenant: its envelope, where its cells
// come from, and where they sit in the ledger.
type tenantTrack struct {
	env    *Envelope
	work   Work
	src    int // the tenant's index within work
	base   int // ledger index of cell 0
	landed int
}

// Fleet is one fleet's controller state: chips, ledger, leases and
// books. Build with New, feed with Admit, drive with Step; Run does all
// three over a fixed grid.
type Fleet struct {
	opts   Options
	record Recorder
	clock  *supervise.FakeClock
	det    *Detector
	inj    *fault.ChipInjector

	root    *Envelope
	tenants []*tenantTrack

	chips   []chipRun
	cells   []*cellTrack // all cells in (tenant, cell) order
	pending []int        // indices into cells awaiting placement
	leases  map[int64]*Lease
	nextID  int64

	tick    int64
	landed  int
	upTicks int64
	ttr     stats.Histogram
	stats   Stats
}

// New builds an empty fleet of opts.Chips chips with opts.SlotsPerChip
// slots each, a root envelope holding opts.Funds, opts.Detector failure
// detection and opts.Faults injected. Work, TenantFunds, MaxTicks and
// Journal belong to Run and are ignored. Every landing goes through
// record.
func New(opts Options, record Recorder) (*Fleet, error) {
	opts = opts.withDefaults()
	if opts.Chips <= 0 {
		return nil, fmt.Errorf("fleet: invalid fleet size %d", opts.Chips)
	}
	if opts.SlotsPerChip <= 0 {
		return nil, fmt.Errorf("fleet: invalid slots per chip %d", opts.SlotsPerChip)
	}
	if record == nil {
		return nil, fmt.Errorf("fleet: no recorder")
	}
	inj, err := fault.NewChipInjector(opts.Faults, opts.Chips)
	if err != nil {
		return nil, err
	}

	f := &Fleet{
		opts:   opts,
		record: record,
		clock:  supervise.NewFakeClock(),
		inj:    inj,
		root:   NewRootEnvelope("fleet", opts.Funds),
		chips:  make([]chipRun, opts.Chips),
		leases: make(map[int64]*Lease),
	}
	for i := range f.chips {
		f.chips[i].up = true
	}
	f.det = NewDetector(opts.Chips, opts.Detector, f.clock.Now())
	return f, nil
}

// priceTick converts the $/cycle price list into nanodollars per fleet
// tick for a configuration.
func priceTick(cfg vcore.Config) Nanos {
	return Nanos(math.Round(cost.Default().Charge(cfg, TickCycles) * 1e9))
}

// Nominal is the execution price of tenant t's grid in w: what the
// tenant is charged once every cell has landed once.
func Nominal(w Work, t int) Nanos {
	var sum Nanos
	for c := 0; c < w.Cells(t); c++ {
		sum += priceTick(w.Config(t, c)) * w.Duration(t, c)
	}
	return sum
}

// buildCells validates and prices tenant t's cells in w.
func buildCells(w Work, t int) ([]*cellTrack, error) {
	cells := make([]*cellTrack, w.Cells(t))
	tracks := make([]cellTrack, len(cells)) // one allocation for the tenant's cells
	for c := range cells {
		dur := w.Duration(t, c)
		if dur <= 0 {
			return nil, fmt.Errorf("fleet: cell %s has duration %d", CellKey(t, c), dur)
		}
		cfg := w.Config(t, c)
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: cell %s: %w", CellKey(t, c), err)
		}
		tracks[c] = cellTrack{
			cell:        c,
			duration:    dur,
			price:       priceTick(cfg) * dur,
			displacedAt: -1,
			crashedAt:   -1,
		}
		cells[c] = &tracks[c]
	}
	return cells, nil
}

// grantFor is the lease grant for a cell of the given nominal
// execution price: the price plus ~12.5% headroom, so a clean landing
// still exercises a partial refund.
func grantFor(nominal Nanos) Nanos { return nominal + nominal/8 }

// deadlineFor is the lease deadline: nominal duration plus 50% slack
// plus a constant floor absorbing detector latency.
func (f *Fleet) deadlineFor(ct *cellTrack) int64 {
	return f.tick + ct.duration + ct.duration/2 + 6
}

// Run drives a fleet over opts.Work to completion (all cells landed)
// or MaxTicks, then drains it.
func Run(opts Options) (Result, error) {
	opts = opts.withDefaults()
	if opts.Work == nil {
		return Result{}, fmt.Errorf("fleet: no work")
	}
	if opts.MaxTicks <= 0 {
		return Result{}, fmt.Errorf("fleet: invalid max ticks %d", opts.MaxTicks)
	}
	w := opts.Work
	if opts.Funds == 0 {
		for t := 0; t < w.Tenants(); t++ {
			for cell := 0; cell < w.Cells(t); cell++ {
				opts.Funds += 4 * grantFor(priceTick(w.Config(t, cell))*w.Duration(t, cell))
			}
		}
	}
	if opts.TenantFunds == 0 {
		opts.TenantFunds = opts.Funds
	}

	f, err := New(opts, journalRecorder(opts.Journal))
	if err != nil {
		return Result{}, err
	}
	for t := 0; t < w.Tenants(); t++ {
		if _, err := f.Admit(fmt.Sprintf("tenant%02d", t), opts.TenantFunds, w, t, nil); err != nil {
			return Result{}, err
		}
	}
	if len(f.cells) == 0 {
		return Result{}, fmt.Errorf("fleet: empty work grid")
	}
	// Resolve paper oversubscription structurally before admission.
	f.stats.Cuts = len(f.root.CutToFit())

	// Tick 0 placements let the run start full.
	f.place()
	for f.tick < opts.MaxTicks && f.landed < len(f.cells) {
		if _, _, err := f.Step(); err != nil {
			return Result{}, err
		}
	}
	if err := f.Drain(); err != nil {
		return Result{}, err
	}
	return f.result(), nil
}

// journalRecorder lands each cell in j under CellKey; with no journal
// every landing wins.
func journalRecorder(j *supervise.Journal) Recorder {
	if j == nil {
		return func(Landing) (bool, error) { return true, nil }
	}
	return func(l Landing) (bool, error) {
		return j.RecordOnce(supervise.Entry{
			Status: supervise.StatusOK,
			Key:    CellKey(l.Tenant, l.Cell),
			Value:  []byte(fmt.Sprintf("%q", l.Value)),
		})
	}
}

// Admit adds tenant src of w under a new envelope named name with the
// given limit, queues its cells for placement and returns the tenant's
// index in the fleet. done lists (by Cell) cells that already landed in
// an earlier life: they land without executing, and their recorded
// spend is re-booked as granted and consumed so the books reconcile in
// this process too.
func (f *Fleet) Admit(name string, limit Nanos, w Work, src int, done []Landing) (int, error) {
	cells, err := buildCells(w, src)
	if err != nil {
		return 0, err
	}
	for _, d := range done {
		if d.Cell < 0 || d.Cell >= len(cells) {
			return 0, fmt.Errorf("fleet: tenant %s has no cell %d", name, d.Cell)
		}
	}
	t := len(f.tenants)
	tt := &tenantTrack{env: f.root.Child(name, limit), work: w, src: src, base: len(f.cells)}
	f.tenants = append(f.tenants, tt)
	for _, ct := range cells {
		ct.tenant = t
	}
	f.cells = append(f.cells, cells...)
	for _, d := range done {
		ct := cells[d.Cell]
		if ct.landed {
			continue
		}
		if err := tt.env.Grant(d.Consumed); err != nil {
			return 0, fmt.Errorf("fleet: re-booking %s cell %d: %w", name, d.Cell, err)
		}
		if err := tt.env.Settle(d.Consumed, d.Consumed); err != nil {
			return 0, fmt.Errorf("fleet: re-booking %s cell %d: %w", name, d.Cell, err)
		}
		f.land(ct, d.Value)
	}
	for i, ct := range cells {
		if !ct.landed {
			f.pending = append(f.pending, tt.base+i)
		}
	}
	return t, nil
}

// land enters a cell's result in the ledger.
func (f *Fleet) land(ct *cellTrack, value string) {
	ct.landed = true
	ct.value = value
	ct.landings++
	f.landed++
	f.tenants[ct.tenant].landed++
}

// Step advances the fleet one tick: due chip faults land, live chips
// heartbeat and run their attempts one tick, finished attempts deliver,
// the detector and lease deadlines revoke, and pending cells are placed
// to start executing on the next Step. It reports how many cells were
// placed and how many landed.
func (f *Fleet) Step() (placed, landed int, err error) {
	placements, before := f.stats.Placements, f.landed
	f.tick++
	f.clock.Advance(tickLen)
	now := f.clock.Now()

	f.applyFaults()
	for i := range f.chips {
		if f.chips[i].up {
			f.upTicks++
		}
		if f.chips[i].beating(f.tick) {
			f.det.Heartbeat(i, now)
		}
	}
	if err := f.execute(); err != nil {
		return 0, 0, err
	}
	for _, chip := range f.det.Check(now) {
		if err := f.revokeChip(chip); err != nil {
			return 0, 0, err
		}
	}
	if err := f.expireLeases(); err != nil {
		return 0, 0, err
	}
	f.place()
	return int(f.stats.Placements - placements), f.landed - before, nil
}

// applyFaults delivers due chip-fault events and reboots.
func (f *Fleet) applyFaults() {
	for i := range f.chips {
		c := &f.chips[i]
		if !c.up && c.rebootAt != 0 && f.tick >= c.rebootAt {
			// Reboot: chip returns empty. Attempts it held are gone; their
			// leases are (or will be) revoked by the detector or expiry.
			c.up, c.rebootAt = true, 0
			c.slots = c.slots[:0]
		}
	}
	for _, e := range f.inj.Advance(f.tick) {
		c := &f.chips[e.Chip]
		switch e.Kind {
		case fault.ChipCrash:
			if !c.up {
				continue
			}
			c.up = false
			if e.Duration > 0 {
				c.rebootAt = f.tick + e.Duration
			}
			// In-flight work is lost the instant the chip dies; that tick
			// is the ground truth a cell's time-to-recovery is measured
			// from, even though the controller only learns of it later.
			for _, a := range c.slots {
				ct := f.cellAt(a.lease.Tenant, a.lease.Cell)
				if !ct.landed && ct.crashedAt < 0 {
					ct.crashedAt = f.tick
				}
			}
			c.slots = c.slots[:0]
		case fault.ChipHang:
			if until := f.tick + e.Duration; until > c.hungUntil {
				c.hungUntil = until
			}
		case fault.ChipHBLoss:
			if until := f.tick + e.Duration; until > c.hbOffTill {
				c.hbOffTill = until
			}
		}
	}
}

// cellAt maps (tenant, cell) to the ledger entry.
func (f *Fleet) cellAt(tenant, cell int) *cellTrack {
	return f.cells[f.tenants[tenant].base+cell]
}

// execute advances every running attempt one tick and handles
// deliveries.
func (f *Fleet) execute() error {
	for i := range f.chips {
		c := &f.chips[i]
		if !c.executing(f.tick) {
			continue
		}
		kept := c.slots[:0]
		for _, a := range c.slots {
			a.remaining--
			if a.remaining > 0 {
				kept = append(kept, a)
				continue
			}
			if err := f.deliver(a); err != nil {
				return err
			}
		}
		c.slots = kept
	}
	return nil
}

// deliver lands (or deduplicates) one finished attempt's result.
func (f *Fleet) deliver(a *attempt) error {
	f.stats.Deliveries++
	l := a.lease
	ct := f.cellAt(l.Tenant, l.Cell)

	if ct.landed {
		// The cell already landed through another attempt: pure
		// duplicate. If this lease is somehow still active, refund it in
		// full — the tenant pays at most once per cell.
		f.stats.DupDeliveries++
		if l.State == LeaseActive {
			if err := f.revokeLease(l, &f.stats.RedundantCancels); err != nil {
				return err
			}
		}
		return nil
	}

	// First landing wins, whoever delivers it. The winning attempt of an
	// active lease is charged the actual execution price (the headroom
	// refunds); an orphan's lease was refunded when it was revoked.
	tt := f.tenants[l.Tenant]
	value, err := tt.work.Run(tt.src, l.Cell)
	if err != nil {
		return err
	}
	var consumed Nanos
	if l.State == LeaseActive {
		consumed = min(ct.price, l.Grant)
	}
	won, err := f.record(Landing{Tenant: l.Tenant, Cell: l.Cell, Value: value, Consumed: consumed})
	if err != nil {
		return err
	}
	f.land(ct, value)

	switch {
	case l.State == LeaseActive && won:
		if err := l.settle(consumed); err != nil {
			return err
		}
		if l.Grant > consumed {
			f.stats.Refunds++
		}
		ct.lease = nil
		delete(f.leases, l.ID)
	case l.State == LeaseActive:
		// The journal already held the cell (an earlier life landed it):
		// this attempt was redundant and charges nothing.
		if err := f.revokeLease(l, &f.stats.RedundantCancels); err != nil {
			return err
		}
		ct.lease = nil
	default:
		// An orphan delivery: the lease was revoked (and refunded) when
		// the chip was suspected dead or the deadline passed, but the
		// attempt kept running and finished first. The result lands; the
		// tenant is charged nothing for it.
		f.stats.OrphanDeliveries++
		// Any replacement attempt still running for this cell is now
		// redundant: cancel it so it cannot double-charge.
		if r := ct.lease; r != nil && r.State == LeaseActive {
			if err := f.revokeLease(r, &f.stats.RedundantCancels); err != nil {
				return err
			}
			f.removeAttempt(r)
			ct.lease = nil
		}
	}
	ct.displacedAt = -1
	return nil
}

// removeAttempt drops the attempt bound to a lease from its chip.
func (f *Fleet) removeAttempt(l *Lease) {
	c := &f.chips[l.Chip]
	kept := c.slots[:0]
	for _, a := range c.slots {
		if a.lease != l {
			kept = append(kept, a)
		}
	}
	c.slots = kept
}

// revokeLease refunds a lease in full and counts it against cause.
func (f *Fleet) revokeLease(l *Lease, cause *int64) error {
	if err := l.revoke(); err != nil {
		return err
	}
	f.stats.Revocations++
	f.stats.Refunds++
	*cause++
	delete(f.leases, l.ID)
	return nil
}

// revokeChip handles a confirmed chip death: every active lease bound
// to the chip is revoked and its cell re-queued. Attempts physically
// still on the chip (a hang or partition mistaken for death) are left
// running — if they finish they deliver as orphans.
func (f *Fleet) revokeChip(chip int) error {
	for _, l := range f.sortedActiveLeases() {
		if l.Chip != chip {
			continue
		}
		if err := f.revokeLease(l, &f.stats.DeathRevocations); err != nil {
			return err
		}
		f.requeue(l)
	}
	return nil
}

// expireLeases revokes active leases past their deadline and re-queues
// their cells.
func (f *Fleet) expireLeases() error {
	for _, l := range f.sortedActiveLeases() {
		if l.Deadline > f.tick {
			continue
		}
		if err := f.revokeLease(l, &f.stats.ExpiryRevocations); err != nil {
			return err
		}
		f.requeue(l)
	}
	return nil
}

// requeue marks a revoked lease's cell displaced and pending again.
func (f *Fleet) requeue(l *Lease) {
	ct := f.cellAt(l.Tenant, l.Cell)
	ct.lease = nil
	if ct.landed {
		return
	}
	if ct.displacedAt < 0 {
		// TTR is measured from the ground-truth failure when there is
		// one (the chip crash that actually lost the work); revocation
		// time otherwise.
		if ct.crashedAt >= 0 {
			ct.displacedAt = ct.crashedAt
			ct.crashedAt = -1
		} else {
			ct.displacedAt = f.tick
		}
	}
	f.pending = append(f.pending, f.tenants[l.Tenant].base+l.Cell)
}

// sortedActiveLeases snapshots active leases in ID order so iteration
// is deterministic while revocation mutates the map.
func (f *Fleet) sortedActiveLeases() []*Lease {
	out := make([]*Lease, 0, len(f.leases))
	for _, l := range f.leases {
		if l.State == LeaseActive {
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// place admits pending cells onto chips the detector believes alive,
// most-free-slots first, in (tenant, cell) order.
func (f *Fleet) place() {
	if len(f.pending) == 0 {
		return
	}
	sort.Ints(f.pending) // the ledger is in (tenant, cell) order
	var deferred []int
	for _, idx := range f.pending {
		ct := f.cells[idx]
		if ct.landed || ct.lease != nil {
			continue
		}
		chip := f.pickChip()
		if chip < 0 {
			deferred = append(deferred, idx)
			continue
		}
		env := f.tenants[ct.tenant].env
		grant := grantFor(ct.price)
		if err := env.Grant(grant); err != nil {
			f.stats.GrantDenials++
			deferred = append(deferred, idx)
			continue
		}
		f.nextID++
		l := &Lease{
			ID:     f.nextID,
			Tenant: ct.tenant, Cell: ct.cell,
			Chip:     chip,
			Grant:    grant,
			Deadline: f.deadlineFor(ct),
			State:    LeaseActive,
			envelope: env,
		}
		f.leases[l.ID] = l
		ct.lease = l
		f.chips[chip].slots = append(f.chips[chip].slots, &attempt{lease: l, remaining: ct.duration})
		f.stats.Placements++
		if ct.placedOnce {
			f.stats.ReExecutions++
		}
		ct.placedOnce = true
		if ct.displacedAt >= 0 {
			f.ttr.Record(f.tick - ct.displacedAt)
			ct.displacedAt = -1
		}
	}
	f.pending = deferred
}

// pickChip returns the believed-alive chip with the most free slots
// (ties to the lowest index), or -1 when none has room. The controller
// trusts the detector here: a crashed-but-unconfirmed chip can still be
// picked, and the misplacement is recovered through the usual
// death/expiry path.
func (f *Fleet) pickChip() int {
	best, bestFree := -1, 0
	for i := range f.chips {
		if f.det.State(i) == Dead {
			continue
		}
		if free := f.opts.SlotsPerChip - len(f.chips[i].slots); free > bestFree {
			best, bestFree = i, free
		}
	}
	return best
}

// Drain revokes every still-active lease, refunding its grant, so the
// books reconcile however execution ends (Run's MaxTicks exit, cashd's
// drain). The cells it interrupts stay unlanded.
func (f *Fleet) Drain() error {
	for _, l := range f.sortedActiveLeases() {
		if err := f.revokeLease(l, &f.stats.DrainRevocations); err != nil {
			return err
		}
		f.cellAt(l.Tenant, l.Cell).lease = nil
	}
	return nil
}

// Tick is how many Steps have run.
func (f *Fleet) Tick() int64 { return f.tick }

// Cells, Landed, Pending and Running count the ledger: every admitted
// cell, those landed, those awaiting placement, and those executing
// under an active lease.
func (f *Fleet) Cells() int   { return len(f.cells) }
func (f *Fleet) Landed() int  { return f.landed }
func (f *Fleet) Pending() int { return len(f.pending) }
func (f *Fleet) Running() int { return len(f.leases) }

// Root is the fleet's root envelope.
func (f *Fleet) Root() *Envelope { return f.root }

// Tenant returns tenant t's envelope and how many of its cells landed.
func (f *Fleet) Tenant(t int) (env *Envelope, landed int) {
	tt := f.tenants[t]
	return tt.env, tt.landed
}

// Cell returns a cell's landed value and nominal price.
func (f *Fleet) Cell(tenant, cell int) (value string, price Nanos, landed bool) {
	ct := f.cellAt(tenant, cell)
	return ct.value, ct.price, ct.landed
}

// Attempts lists the placements executing under active leases, in chip
// order.
func (f *Fleet) Attempts() []Attempt {
	var out []Attempt
	for i := range f.chips {
		for _, a := range f.chips[i].slots {
			if l := a.lease; l.State == LeaseActive {
				out = append(out, Attempt{Tenant: l.Tenant, Cell: l.Cell, Chip: i, Remaining: a.remaining})
			}
		}
	}
	return out
}

// result assembles the report and digest.
func (f *Fleet) result() Result {
	f.stats.Ticks = f.tick
	f.stats.Detector = f.det.Stats
	f.stats.GrantedNanos = f.root.Granted()
	f.stats.ConsumedNanos = f.root.Consumed()
	f.stats.RefundedNanos = f.root.Refunded()

	res := Result{
		Stats:     f.stats,
		Cells:     len(f.cells),
		Landed:    f.landed,
		CostNanos: f.root.Consumed(),
		TTRp50:    int64(f.ttr.Quantile(0.50)),
		TTRp99:    int64(f.ttr.Quantile(0.99)),
		TTRMax:    f.ttr.Max(),
	}
	res.Complete = res.Landed == res.Cells
	res.ExactlyOnce = res.Complete
	for _, ct := range f.cells {
		if ct.landings != 1 {
			res.ExactlyOnce = false
		}
	}
	res.Reconciled = f.root.Reconciled()
	for t, tt := range f.tenants {
		env := tt.env
		if !env.Reconciled() {
			res.Reconciled = false
		}
		res.Bills = append(res.Bills, TenantBill{
			Tenant:   t,
			Granted:  env.Granted(),
			Consumed: env.Consumed(),
			Refunded: env.Refunded(),
		})
	}
	if f.tick > 0 {
		res.Availability = float64(f.upTicks) / float64(int64(len(f.chips))*f.tick)
	} else {
		res.Availability = 1
	}
	res.Digest = f.digest(res)
	return res
}

// digest fingerprints the run: every stat, bill and cell value feeds an
// FNV-1a hash through a fixed-format serialisation, so two runs with
// equal digests behaved identically tick for tick.
func (f *Fleet) digest(res Result) uint64 {
	h := fnv.New64a()
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	s := res.Stats
	w("ticks=%d place=%d reexec=%d revoke=%d death=%d expiry=%d redun=%d drain=%d ",
		s.Ticks, s.Placements, s.ReExecutions, s.Revocations,
		s.DeathRevocations, s.ExpiryRevocations, s.RedundantCancels, s.DrainRevocations)
	w("refunds=%d granted=%d consumed=%d refunded=%d denials=%d ",
		s.Refunds, s.GrantedNanos, s.ConsumedNanos, s.RefundedNanos, s.GrantDenials)
	w("deliver=%d orphan=%d dup=%d cuts=%d ", s.Deliveries, s.OrphanDeliveries, s.DupDeliveries, s.Cuts)
	w("susp=%d false=%d confirm=%d resurrect=%d ",
		s.Detector.Suspicions, s.Detector.FalseSuspicions,
		s.Detector.Confirmations, s.Detector.Resurrections)
	w("landed=%d/%d avail=%.9f ttr=%d/%d/%d ",
		res.Landed, res.Cells, res.Availability, res.TTRp50, res.TTRp99, res.TTRMax)
	for _, b := range res.Bills {
		w("t%02d=%d/%d/%d ", b.Tenant, b.Granted, b.Consumed, b.Refunded)
	}
	for _, ct := range f.cells {
		w("%s n=%d v=%q ", CellKey(ct.tenant, ct.cell), ct.landings, ct.value)
	}
	return h.Sum64()
}
