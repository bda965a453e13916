package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cash/internal/cost"
	"cash/internal/fault"
	"cash/internal/fleet"
	"cash/internal/supervise"
)

// journalMeta fingerprints the daemon's journal format. It is a
// constant (not run-dependent) on purpose: every restart of cashd must
// resume the same journal, that being the whole point.
const journalMeta = "cashd/1"

// DefaultSocketPath returns the daemon socket location: $CASHD_SOCKET
// if set, else a file in the user cache directory (falling back to the
// system temp directory).
func DefaultSocketPath() string {
	if p := os.Getenv("CASHD_SOCKET"); p != "" {
		return p
	}
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "cashd.sock")
	}
	return filepath.Join(os.TempDir(), "cashd.sock")
}

// DefaultJournalPath returns the daemon journal location:
// $CASHD_JOURNAL if set, else a file in the user cache directory
// (falling back to the system temp directory). It is distinct from the
// harness journal (supervise.DefaultJournalPath) because the two hold
// different state machines.
func DefaultJournalPath() string {
	if p := os.Getenv("CASHD_JOURNAL"); p != "" {
		return p
	}
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "cashd-journal.jsonl")
	}
	return filepath.Join(os.TempDir(), "cashd-journal.jsonl")
}

// Options configure a daemon. Zero values select the defaults noted on
// each field.
type Options struct {
	// Socket is the Unix socket path to serve on. Required.
	Socket string
	// Journal is the crash-safe state journal path. Required.
	Journal string
	// Chips and SlotsPerChip size the hosted fleet (defaults 4, 2).
	Chips, SlotsPerChip int
	// QueueCap bounds the admission queue (default 64). Requests
	// arriving at capacity are shed with RETRY_AFTER — the same bounded
	// drop-at-cap discipline the serving reqRing applies to open-loop
	// request crowds, here applied to control-plane traffic.
	QueueCap int
	// Epoch is the tick interval of the execution loop (default 20ms).
	Epoch time.Duration
	// Funds is the root budget envelope in nanodollars (default $50);
	// it also caps each tenant envelope.
	Funds fleet.Nanos
	// Model prices configurations (default cost.Default()).
	Model cost.Model
	// DrainTimeout bounds a graceful drain; work still running when it
	// expires is refunded and abandoned to the next restart
	// (default 10s).
	DrainTimeout time.Duration
	// WireFaults, when enabled, wraps every accepted connection in a
	// seeded fault injector (chaos testing).
	WireFaults fault.WireSpec
	// Clock drives epochs, drain deadlines and injected delays
	// (default the wall clock).
	Clock supervise.Clock
	// Log, when non-nil, receives one line per notable event.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Chips == 0 {
		o.Chips = 4
	}
	if o.SlotsPerChip == 0 {
		o.SlotsPerChip = 2
	}
	if o.QueueCap == 0 {
		o.QueueCap = 64
	}
	if o.Epoch == 0 {
		o.Epoch = 20 * time.Millisecond
	}
	if o.Funds == 0 {
		o.Funds = 50_000_000_000
	}
	if o.Model == (cost.Model{}) {
		o.Model = cost.Default()
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = 10 * time.Second
	}
	if o.Clock == nil {
		o.Clock = supervise.RealClock()
	}
	return o
}

func (o Options) validate() error {
	if o.Socket == "" {
		return fmt.Errorf("daemon: no socket path")
	}
	if o.Journal == "" {
		return fmt.Errorf("daemon: no journal path")
	}
	if o.Chips <= 0 || o.SlotsPerChip <= 0 {
		return fmt.Errorf("daemon: invalid fleet size %dx%d", o.Chips, o.SlotsPerChip)
	}
	if o.QueueCap <= 0 {
		return fmt.Errorf("daemon: invalid queue capacity %d", o.QueueCap)
	}
	if o.Epoch <= 0 {
		return fmt.Errorf("daemon: invalid epoch interval %v", o.Epoch)
	}
	if o.DrainTimeout <= 0 {
		return fmt.Errorf("daemon: invalid drain timeout %v", o.DrainTimeout)
	}
	if err := o.Model.Validate(); err != nil {
		return err
	}
	return o.WireFaults.Validate()
}

// TenantSpec is a submit-tenant request body: a named grid of synthetic
// cells whose durations, configurations and payloads are pure functions
// of (Seed, cell index) — so re-executing a cell after a crash computes
// the identical result.
type TenantSpec struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	Seed  uint64 `json:"seed"`
}

// Validate rejects unusable specs.
func (s TenantSpec) Validate() error {
	if s.Name == "" || len(s.Name) > 64 {
		return fmt.Errorf("daemon: tenant name %q must be 1-64 characters", s.Name)
	}
	if strings.ContainsAny(s.Name, " \t\n\r") {
		return fmt.Errorf("daemon: tenant name %q contains whitespace", s.Name)
	}
	if s.Cells <= 0 || s.Cells > 4096 {
		return fmt.Errorf("daemon: tenant %q cell count %d outside [1, 4096]", s.Name, s.Cells)
	}
	return nil
}

// SubmitResult acknowledges a submit-tenant.
type SubmitResult struct {
	Name  string `json:"name"`
	Cells int    `json:"cells"`
	// EstimateNanos is the nominal execution price of the whole grid.
	EstimateNanos int64 `json:"estimate_nanos"`
	// Resubmitted marks an idempotent replay: the key had already been
	// applied (possibly before a crash) and this is the original ack.
	Resubmitted bool `json:"resubmitted,omitempty"`
}

// TenantSpend is one tenant's budget reconciliation.
type TenantSpend struct {
	Name        string `json:"name"`
	Granted     int64  `json:"granted"`
	Consumed    int64  `json:"consumed"`
	Refunded    int64  `json:"refunded"`
	Outstanding int64  `json:"outstanding"`
	Landed      int    `json:"landed"`
	Cells       int    `json:"cells"`
}

// SpendResult answers query-spend.
type SpendResult struct {
	RootGranted     int64         `json:"root_granted"`
	RootConsumed    int64         `json:"root_consumed"`
	RootRefunded    int64         `json:"root_refunded"`
	RootOutstanding int64         `json:"root_outstanding"`
	Tenants         []TenantSpend `json:"tenants"`
}

// RunningCell is one executing placement in query-alloc.
type RunningCell struct {
	Tenant    string `json:"tenant"`
	Cell      int    `json:"cell"`
	Chip      int    `json:"chip"`
	Remaining int64  `json:"remaining_ticks"`
}

// AllocResult answers query-alloc.
type AllocResult struct {
	Tick         int64         `json:"tick"`
	Chips        int           `json:"chips"`
	SlotsPerChip int           `json:"slots_per_chip"`
	Running      []RunningCell `json:"running"`
	Pending      int           `json:"pending"`
	Draining     bool          `json:"draining,omitempty"`
}

// HealthResult answers health.
type HealthResult struct {
	Tick        int64 `json:"tick"`
	Tenants     int   `json:"tenants"`
	CellsLanded int   `json:"cells_landed"`
	CellsTotal  int   `json:"cells_total"`
	Pending     int   `json:"pending"`
	Running     int   `json:"running"`
	Draining    bool  `json:"draining,omitempty"`
	// ConsumedNanos is the settled spend; Digest is the FNV-1a
	// fingerprint of the daemon's durable state (admitted tenants plus
	// landed cells), printed %016x. Two daemons whose digests agree
	// hold byte-identical state however differently they got there —
	// the chaos soak's replay check.
	ConsumedNanos int64  `json:"consumed_nanos"`
	Digest        string `json:"digest"`
	// Shed counts requests rejected with RETRY_AFTER at queue capacity.
	Shed int64 `json:"shed"`
}

// Epoch is one watch-epochs stream event.
type Epoch struct {
	Tick          int64 `json:"tick"`
	Placed        int   `json:"placed"`
	Completed     int   `json:"completed"`
	CellsLanded   int   `json:"cells_landed"`
	CellsTotal    int   `json:"cells_total"`
	ConsumedNanos int64 `json:"consumed_nanos"`
	Draining      bool  `json:"draining,omitempty"`
	// Final marks the stream's last event before the daemon exits.
	Final bool `json:"final,omitempty"`
}

// submitRecord is the journaled body of an applied submit.
type submitRecord struct {
	Spec TenantSpec `json:"spec"`
}

// cellRecord is the journaled body of a landed cell.
type cellRecord struct {
	Value    string `json:"value"`
	Consumed int64  `json:"consumed"`
}

// cellKey is the journal key of one cell.
func cellKey(name string, cell int) string { return fmt.Sprintf("cell %s c%04d", name, cell) }

const (
	submitKeyPrefix = "submit "
	cellKeyPrefix   = "cell "
)

// coreReq is one admitted request awaiting the core.
type coreReq struct {
	req Request
	c   *connState
}

// Server is a running cashd instance.
type Server struct {
	opts  Options
	clock supervise.Clock
	ln    net.Listener
	fw    *fault.WireFaults

	journal *supervise.Journal
	reqs    chan coreReq
	drainCh chan struct{}
	killCh  chan struct{}
	doneCh  chan struct{}

	connMu   sync.Mutex
	conns    map[*connState]struct{}
	nextConn uint64
	shed     atomic.Int64

	killOnce  sync.Once
	drainOnce sync.Once

	// Core-owned state: touched only by the core goroutine (after
	// Start's synchronous rebuild). fleet executes the cells; tenants
	// maps its tenant indices back to the submitted specs.
	fleet     *fleet.Fleet
	tenants   []TenantSpec
	byName    map[string]int
	submitted map[string]SubmitResult
	watchers  map[*connState]uint64
	draining  bool
	// drainDeadline fires DrainTimeout after draining starts.
	drainDeadline <-chan time.Time
	err           error
}

// Start opens (resuming) the journal, rebuilds state, binds the socket
// and launches the daemon.
func Start(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	s := &Server{
		opts:      opts,
		clock:     opts.Clock,
		reqs:      make(chan coreReq, opts.QueueCap),
		drainCh:   make(chan struct{}),
		killCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		conns:     make(map[*connState]struct{}),
		byName:    make(map[string]int),
		submitted: make(map[string]SubmitResult),
		watchers:  make(map[*connState]uint64),
	}
	f, err := fleet.New(fleet.Options{
		Chips: opts.Chips, SlotsPerChip: opts.SlotsPerChip, Funds: opts.Funds, Model: opts.Model,
	}, s.recordCell)
	if err != nil {
		return nil, err
	}
	s.fleet = f
	if opts.WireFaults.Enabled() {
		fw, err := fault.NewWireFaults(opts.WireFaults)
		if err != nil {
			return nil, err
		}
		s.fw = fw
	}

	j, err := supervise.OpenJournal(opts.Journal, journalMeta, true)
	if err != nil {
		return nil, err
	}
	s.journal = j
	if j.Discarded != "" {
		s.logf("journal %s discarded: %s (starting fresh)", opts.Journal, j.Discarded)
	}
	if err := s.rebuild(); err != nil {
		j.Close()
		return nil, err
	}

	ln, err := listenUnix(opts.Socket)
	if err != nil {
		j.Close()
		return nil, err
	}
	s.ln = ln

	go s.acceptLoop()
	go s.core()
	return s, nil
}

// listenUnix binds the socket, clearing a stale file left by a killed
// daemon — but only after proving no live daemon answers on it.
func listenUnix(path string) (net.Listener, error) {
	ln, err := net.Listen("unix", path)
	if err == nil {
		return ln, nil
	}
	if _, serr := os.Stat(path); serr != nil {
		return nil, fmt.Errorf("daemon: binding %s: %w", path, err)
	}
	if c, derr := net.DialTimeout("unix", path, 250*time.Millisecond); derr == nil {
		c.Close()
		return nil, fmt.Errorf("daemon: %s already serves a live daemon", path)
	}
	if rerr := os.Remove(path); rerr != nil {
		return nil, fmt.Errorf("daemon: clearing stale socket %s: %w", path, rerr)
	}
	return net.Listen("unix", path)
}

// Socket returns the socket path served on.
func (s *Server) Socket() string { return s.opts.Socket }

// JournalPath returns the journal backing the daemon.
func (s *Server) JournalPath() string { return s.opts.Journal }

// Wait blocks until the daemon exits (drain completed or Kill) and
// returns its terminal error.
func (s *Server) Wait() error {
	<-s.doneCh
	return s.err
}

// Drain asks the daemon to shut down gracefully: stop admitting
// mutations, finish (or time out) outstanding work, settle every
// envelope, compact the journal and exit. Safe to call more than once.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Kill simulates kill -9 for crash testing: the daemon abandons
// everything mid-flight — no drain, no settling, no compaction, no
// journal close — exactly the state a process death leaves behind.
// Only journal records already synced survive, which is the contract
// the restart path is built on.
func (s *Server) Kill() {
	s.killOnce.Do(func() { close(s.killCh) })
	s.ln.Close()
	s.closeConns()
	<-s.doneCh
	// A real kill -9 would close the fd without flushing anything; by
	// this point the core has exited so closing only releases the
	// descriptor — no buffered state exists to lose.
	s.journal.Close()
}

// logf writes one diagnostic line when a log sink is configured.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, "cashd: "+format+"\n", args...)
	}
}

// rebuild reconstructs core state from the resumed journal: admitted
// tenants from submit records, landed cells (with their settled spend)
// from cell records, everything else pending re-execution.
func (s *Server) rebuild() error {
	finals := s.journal.Finals()
	var cellRecords, rebooked int
	var done []fleet.Landing // reused: Admit does not keep it
	for _, e := range finals {
		if e.Status != supervise.StatusOK {
			continue
		}
		if strings.HasPrefix(e.Key, cellKeyPrefix) {
			cellRecords++
			continue
		}
		if !strings.HasPrefix(e.Key, submitKeyPrefix) {
			continue
		}
		var rec submitRecord
		if err := json.Unmarshal(e.Value, &rec); err != nil {
			return fmt.Errorf("daemon: corrupt submit record %q: %w", e.Key, err)
		}
		// The tenant's cells the journal already holds land again with
		// their recorded charge instead of re-executing.
		done = done[:0]
		for i := 0; i < rec.Spec.Cells; i++ {
			ce, ok := s.journal.Lookup(cellKey(rec.Spec.Name, i))
			if !ok || ce.Status != supervise.StatusOK {
				continue
			}
			var cr cellRecord
			if err := json.Unmarshal(ce.Value, &cr); err != nil {
				return fmt.Errorf("daemon: corrupt cell record %q: %w", ce.Key, err)
			}
			done = append(done, fleet.Landing{Cell: i, Value: cr.Value, Consumed: cr.Consumed})
		}
		if err := s.admit(rec.Spec, done); err != nil {
			return err
		}
		rebooked += len(done)
		idem := strings.TrimPrefix(e.Key, submitKeyPrefix)
		s.submitted[idem] = SubmitResult{
			Name: rec.Spec.Name, Cells: rec.Spec.Cells,
			EstimateNanos: ExpectedSpend(rec.Spec, s.opts.Model), Resubmitted: true,
		}
	}
	if rebooked != cellRecords {
		return fmt.Errorf("daemon: %d cell records have no admitted tenant", cellRecords-rebooked)
	}
	if n := len(s.tenants); n > 0 {
		s.logf("resumed %d tenants, %d cells landed, %d pending",
			n, s.fleet.Landed(), s.fleet.Pending())
	}
	return nil
}

// admit hands a tenant to the fleet: its own envelope, its cells
// priced and queued, the cells in done re-booked as landed.
func (s *Server) admit(spec TenantSpec, done []fleet.Landing) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, dup := s.byName[spec.Name]; dup {
		return fmt.Errorf("daemon: tenant %q already admitted", spec.Name)
	}
	t, err := s.fleet.Admit(spec.Name, s.opts.Funds, specWork(spec), 0, done)
	if err != nil {
		return err
	}
	s.tenants = append(s.tenants, spec)
	s.byName[spec.Name] = t
	return nil
}

// recordCell is the fleet's landing path: a cell's value and charge are
// journaled, and synced, before the fleet bills them.
func (s *Server) recordCell(l fleet.Landing) (bool, error) {
	rec, err := json.Marshal(cellRecord{Value: l.Value, Consumed: l.Consumed})
	if err != nil {
		return false, err
	}
	won, err := s.journal.RecordOnce(supervise.Entry{
		Status: supervise.StatusOK,
		Key:    cellKey(s.tenants[l.Tenant].Name, l.Cell),
		Value:  rec,
	})
	if err != nil {
		return false, fmt.Errorf("journaling cell: %w", err)
	}
	return won, nil
}

// specWork is a tenant's grid as fleet work: one tenant whose cells are
// pure functions of (Seed, cell index).
func specWork(spec TenantSpec) fleet.SyntheticWork {
	return fleet.SyntheticWork{TenantCount: 1, CellsPerTenant: spec.Cells, Seed: spec.Seed}
}

// ExpectedSpend computes, without a daemon, what executing a spec costs
// in nanodollars — the reconciliation target the chaos soak checks
// observed spend against.
func ExpectedSpend(spec TenantSpec, m cost.Model) fleet.Nanos {
	if m == (cost.Model{}) {
		m = cost.Default()
	}
	return fleet.Nominal(m, specWork(spec), 0)
}

// core is the single goroutine that owns all mutable daemon state.
func (s *Server) core() {
	defer close(s.doneCh)
	timer := s.clock.After(s.opts.Epoch)
	for {
		select {
		case <-s.killCh:
			return
		case <-s.drainCh:
			s.drainCh = nil // fires once
			s.startDrain()
		case <-s.drainDeadline:
			s.logf("drain timeout: abandoning %d running, %d pending cells", s.fleet.Running(), s.fleet.Pending())
			s.finishDrain()
			return
		case r := <-s.reqs:
			s.handle(r)
			// A drain request is acked before the daemon may exit on it:
			// quiescence counts from the next event on.
			if r.req.Method != MethodDrain && s.draining && s.quiesced() {
				s.finishDrain()
				return
			}
		case <-timer:
			timer = s.clock.After(s.opts.Epoch)
			s.tickEpoch()
			if s.draining && s.quiesced() {
				s.finishDrain()
				return
			}
		}
	}
}

// handle dispatches one admitted request on the core goroutine.
func (s *Server) handle(r coreReq) {
	switch r.req.Method {
	case MethodSubmit:
		s.handleSubmit(r)
	case MethodSpend:
		s.replyOK(r, s.spendResult())
	case MethodAlloc:
		s.replyOK(r, s.allocResult())
	case MethodHealth:
		s.replyOK(r, s.healthResult())
	case MethodWatch:
		s.watchers[r.c] = r.req.ID
		s.replyOK(r, s.epochEvent(0, 0))
	case MethodDrain:
		// Draining starts here, not when the core next selects drainCh,
		// so no request handled after this ack is admitted.
		s.startDrain()
		s.replyOK(r, map[string]bool{"draining": true})
	default:
		r.c.send(Response{ID: r.req.ID, Code: CodeBadRequest,
			Error: fmt.Sprintf("unknown method %q", r.req.Method)})
	}
}

// startDrain stops admitting mutations and starts the drain deadline.
// It runs on the core goroutine, for a Drain call or a drain request.
func (s *Server) startDrain() {
	if s.draining {
		return
	}
	s.draining = true
	s.drainDeadline = s.clock.After(s.opts.DrainTimeout)
	s.logf("draining (timeout %v)", s.opts.DrainTimeout)
}

// handleSubmit journals and admits a tenant. The ack is sent only after
// the journal record is synced: an acked submit survives kill -9.
func (s *Server) handleSubmit(r coreReq) {
	if s.draining {
		r.c.send(Response{ID: r.req.ID, Code: CodeDraining, Error: "daemon is draining"})
		return
	}
	if r.req.Idem == "" {
		r.c.send(Response{ID: r.req.ID, Code: CodeBadRequest,
			Error: "submit-tenant requires an idempotency key"})
		return
	}
	if ack, ok := s.submitted[r.req.Idem]; ok {
		// Retried (or duplicated) submit: return the original ack.
		ack.Resubmitted = true
		s.replyOK(r, ack)
		return
	}
	var spec TenantSpec
	if err := json.Unmarshal(r.req.Params, &spec); err != nil {
		r.c.send(Response{ID: r.req.ID, Code: CodeBadRequest, Error: err.Error()})
		return
	}
	if err := spec.Validate(); err != nil {
		r.c.send(Response{ID: r.req.ID, Code: CodeBadRequest, Error: err.Error()})
		return
	}
	if _, dup := s.byName[spec.Name]; dup {
		r.c.send(Response{ID: r.req.ID, Code: CodeBadRequest,
			Error: fmt.Sprintf("tenant %q already admitted under a different idempotency key", spec.Name)})
		return
	}
	value, err := json.Marshal(submitRecord{Spec: spec})
	if err != nil {
		r.c.send(Response{ID: r.req.ID, Code: CodeError, Error: err.Error()})
		return
	}
	won, err := s.journal.RecordOnce(supervise.Entry{
		Status: supervise.StatusOK,
		Key:    submitKeyPrefix + r.req.Idem,
		Value:  value,
	})
	if err != nil {
		s.fatal(fmt.Errorf("journaling submit: %w", err))
		r.c.send(Response{ID: r.req.ID, Code: CodeError, Error: "journal write failed"})
		return
	}
	if !won {
		// The key was journaled by a previous life but lost the
		// in-memory map (impossible after rebuild, defensively handled).
		r.c.send(Response{ID: r.req.ID, Code: CodeError, Error: "idempotency key collision"})
		return
	}
	if err := s.admit(spec, nil); err != nil {
		r.c.send(Response{ID: r.req.ID, Code: CodeError, Error: err.Error()})
		return
	}
	ack := SubmitResult{Name: spec.Name, Cells: spec.Cells, EstimateNanos: ExpectedSpend(spec, s.opts.Model)}
	s.submitted[r.req.Idem] = ack
	s.logf("admitted tenant %q: %d cells, estimate %d nanos", spec.Name, spec.Cells, ack.EstimateNanos)
	s.replyOK(r, ack)
}

// tickEpoch steps the hosted fleet one tick and streams the decision.
func (s *Server) tickEpoch() {
	placed, landed, err := s.fleet.Step()
	if err != nil {
		s.fatal(err)
		return
	}
	s.emit(s.epochEvent(placed, landed))
}

// quiesced reports whether no work is pending or running.
func (s *Server) quiesced() bool { return s.fleet.Pending() == 0 && s.fleet.Running() == 0 }

// finishDrain settles the world and exits: running grants refunded
// (their cells re-execute on the next restart), journal compacted to
// one record per key and closed, watchers told the stream is over.
func (s *Server) finishDrain() {
	if err := s.fleet.Drain(); err != nil {
		s.logf("drain refund: %v", err)
	}
	ev := s.epochEvent(0, 0)
	ev.Final = true
	s.emit(ev)
	if err := s.journal.Compact(); err != nil {
		s.logf("compact: %v", err)
	}
	if err := s.journal.Close(); err != nil {
		s.logf("journal close: %v", err)
	}
	s.ln.Close()
	s.closeConns()
	os.Remove(s.opts.Socket)
	s.logf("drained at tick %d: %d/%d cells landed", s.fleet.Tick(), s.fleet.Landed(), s.fleet.Cells())
}

// fatal records a terminal error and forces shutdown.
func (s *Server) fatal(err error) {
	s.logf("fatal: %v", err)
	if s.err == nil {
		s.err = err
	}
	s.killOnce.Do(func() { close(s.killCh) })
	s.ln.Close()
	s.closeConns()
}

// epochEvent snapshots the stream event for the current tick.
func (s *Server) epochEvent(placed, completed int) Epoch {
	return Epoch{
		Tick:          s.fleet.Tick(),
		Placed:        placed,
		Completed:     completed,
		CellsLanded:   s.fleet.Landed(),
		CellsTotal:    s.fleet.Cells(),
		ConsumedNanos: s.fleet.Root().Consumed(),
		Draining:      s.draining,
	}
}

// emit fans an epoch event out to every live watcher.
func (s *Server) emit(ev Epoch) {
	if len(s.watchers) == 0 {
		return
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return
	}
	for c, id := range s.watchers {
		if c.closed.Load() {
			delete(s.watchers, c)
			continue
		}
		c.send(Response{ID: id, Code: CodeOK, Event: true, Result: payload})
	}
}

func (s *Server) spendResult() SpendResult {
	root := s.fleet.Root()
	res := SpendResult{
		RootGranted:     root.Granted(),
		RootConsumed:    root.Consumed(),
		RootRefunded:    root.Refunded(),
		RootOutstanding: root.Outstanding(),
	}
	for _, n := range s.sortedNames() {
		t := s.byName[n]
		env, landed := s.fleet.Tenant(t)
		res.Tenants = append(res.Tenants, TenantSpend{
			Name:        n,
			Granted:     env.Granted(),
			Consumed:    env.Consumed(),
			Refunded:    env.Refunded(),
			Outstanding: env.Outstanding(),
			Landed:      landed,
			Cells:       s.tenants[t].Cells,
		})
	}
	return res
}

func (s *Server) allocResult() AllocResult {
	res := AllocResult{
		Tick:         s.fleet.Tick(),
		Chips:        s.opts.Chips,
		SlotsPerChip: s.opts.SlotsPerChip,
		Pending:      s.fleet.Pending(),
		Draining:     s.draining,
	}
	for _, a := range s.fleet.Attempts() {
		res.Running = append(res.Running, RunningCell{
			Tenant: s.tenants[a.Tenant].Name, Cell: a.Cell, Chip: a.Chip, Remaining: a.Remaining,
		})
	}
	sort.Slice(res.Running, func(i, j int) bool {
		a, b := res.Running[i], res.Running[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		return a.Cell < b.Cell
	})
	return res
}

func (s *Server) healthResult() HealthResult {
	return HealthResult{
		Tick:          s.fleet.Tick(),
		Tenants:       len(s.tenants),
		CellsLanded:   s.fleet.Landed(),
		CellsTotal:    s.fleet.Cells(),
		Pending:       s.fleet.Pending(),
		Running:       s.fleet.Running(),
		Draining:      s.draining,
		ConsumedNanos: s.fleet.Root().Consumed(),
		Digest:        fmt.Sprintf("%016x", s.digest()),
		Shed:          s.shed.Load(),
	}
}

// sortedNames lists the admitted tenants by name.
func (s *Server) sortedNames() []string {
	names := make([]string, 0, len(s.tenants))
	for _, spec := range s.tenants {
		names = append(names, spec.Name)
	}
	sort.Strings(names)
	return names
}

// digest fingerprints the daemon's durable state: admitted tenant
// specs plus every landed cell's value and charge, in sorted order. It
// is a pure function of what was submitted — independent of epoch
// timing, restart count and wire faults — so a chaos run and its
// replay must agree bit for bit once both complete.
func (s *Server) digest() uint64 {
	h := fnv.New64a()
	for _, n := range s.sortedNames() {
		t := s.byName[n]
		spec := s.tenants[t]
		fmt.Fprintf(h, "tenant %s cells=%d seed=%d ", n, spec.Cells, spec.Seed)
		for i := 0; i < spec.Cells; i++ {
			if value, price, landed := s.fleet.Cell(t, i); landed {
				fmt.Fprintf(h, "c%04d v=%q n=%d ", i, value, price)
			}
		}
	}
	fmt.Fprintf(h, "consumed=%d", s.fleet.Root().Consumed())
	return h.Sum64()
}

func (s *Server) replyOK(r coreReq, result any) {
	payload, err := json.Marshal(result)
	if err != nil {
		r.c.send(Response{ID: r.req.ID, Code: CodeError, Error: err.Error()})
		return
	}
	r.c.send(Response{ID: r.req.ID, Code: CodeOK, Result: payload})
}

// connState is one accepted connection: a reader goroutine feeding the
// core's bounded queue and a writer goroutine draining an outbound
// buffer, so a slow or dead client can never block the core.
type connState struct {
	srv    *Server
	conn   net.Conn
	out    chan []byte
	quit   chan struct{}
	closed atomic.Bool
}

func (c *connState) send(resp Response) {
	b, err := AppendFrame(nil, resp)
	if err != nil {
		return
	}
	select {
	case c.out <- b:
	default:
		// A consumer too slow to drain its buffer is cut off; clients
		// reconnect and retry.
		c.close()
	}
}

func (c *connState) close() {
	if c.closed.CompareAndSwap(false, true) {
		c.conn.Close()
		close(c.quit)
		c.srv.connMu.Lock()
		delete(c.srv.conns, c)
		c.srv.connMu.Unlock()
	}
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		idx := atomic.AddUint64(&s.nextConn, 1)
		if s.fw != nil {
			conn = newFaultConn(conn, s.fw.Fork(idx), s.clock)
		}
		c := &connState{srv: s, conn: conn, out: make(chan []byte, 64), quit: make(chan struct{})}
		s.connMu.Lock()
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		go c.writeLoop()
		go c.readLoop()
	}
}

func (s *Server) closeConns() {
	s.connMu.Lock()
	conns := make([]*connState, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	for _, c := range conns {
		c.close()
	}
}

func (c *connState) writeLoop() {
	for {
		select {
		case b := <-c.out:
			if _, err := c.conn.Write(b); err != nil {
				c.close()
				return
			}
		case <-c.quit:
			return
		}
	}
}

func (c *connState) readLoop() {
	defer c.close()
	br := bufio.NewReader(c.conn)
	for {
		var req Request
		if err := ReadFrame(br, &req); err != nil {
			return
		}
		select {
		case c.srv.reqs <- coreReq{req: req, c: c}:
		default:
			// Admission control: the core's queue is full, shed with an
			// explicit retry hint instead of queueing unboundedly.
			c.srv.shed.Add(1)
			hint := c.srv.opts.Epoch.Milliseconds() * 4
			if hint < 1 {
				hint = 1
			}
			c.send(Response{ID: req.ID, Code: CodeRetryAfter, RetryAfterMs: hint,
				Error: "request queue at capacity"})
		}
	}
}
