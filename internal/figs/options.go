package figs

import (
	"fmt"
	"io"
	"math"
	"time"

	"cash/internal/isim"
)

// Options are the knobs of an artifact run: the values that shape the
// report, then the supervision that runs it, which never changes a
// cell's value. Zero values select each study's defaults. The journal
// fingerprint (meta) covers every field above the supervision ones.
type Options struct {
	// Scale multiplies workload lengths (0 or 1.0 = the full
	// evaluation).
	Scale float64
	// Tier selects the simulation fidelity of oracle characterisation
	// sweeps: "cycle" (the default — the authoritative tier every paper
	// figure is produced on) or "interval". Reproduce sets DB.Tier from
	// it. The on-disk characterisation cache keys encode the tier, so
	// runs at different tiers never poison each other.
	Tier string

	// FaultRate is the reliability study's base strike rate in faults
	// per million cycles, and FaultSeed drives its fault schedule.
	FaultRate float64
	FaultSeed uint64

	// Stream picks the tail study's arrival shape (workload.StreamNames;
	// "" = "flash").
	Stream string
	// QueueCap bounds the serving queue in the tail study's bounded
	// variants (0 = 64).
	QueueCap int
	// Shed restricts the bounded variants to one shed policy
	// ("drop-newest" or "deadline"; "" compares both).
	Shed string
	// TailTarget is the tail study's SLO tail budget in cycles (0 = the
	// latency target).
	TailTarget int64

	// FleetChips, FleetTenants and FleetKill size the fleet study: chips
	// hosted (0 = 6), tenants admitted (0 = 6) and chips the crash-K
	// scenario kills mid-run (0 = 2; clamped to FleetChips-1).
	FleetChips   int
	FleetTenants int
	FleetKill    int

	// Supervision: how the cells run, never what they compute.

	// Jobs bounds how many cells run in parallel (<=1 = sequential).
	// The report is byte-identical regardless.
	Jobs int
	// SweepPar bounds the oracle characterisation sweep's intra-cell
	// worker budget: 0 draws from the process-wide shared pool (which
	// Jobs-level parallelism also draws from, so nesting the two cannot
	// oversubscribe the host), 1 forces a serial sweep, and any other
	// value builds a dedicated budget of that size. Reports and the
	// characterisation cache are byte-identical at every setting.
	SweepPar int
	// CellTimeout is the per-cell wall-clock budget (0 = none).
	CellTimeout time.Duration
	// MaxRetries grants failing cells extra attempts with jittered
	// exponential backoff.
	MaxRetries int
	// JournalPath is the crash-safe result journal ("" or "-" disables
	// it; see supervise.DefaultJournalPath).
	JournalPath string
	// Resume replays journal-completed cells from an interrupted run
	// instead of re-running them; the journal is discarded when its
	// fingerprint does not match this run.
	Resume bool
	// Log receives progress and diagnostics (characterisation timing,
	// journal reuse, retry notices), kept out of the report so it stays
	// byte-reproducible. nil discards them.
	Log io.Writer
}

// Validate rejects option values that would otherwise fail deep inside
// a study, or silently do nothing, before any work starts.
func (o Options) Validate() error {
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) || o.Scale < 0 {
		return fmt.Errorf("workload scale %v must be a non-negative finite factor", o.Scale)
	}
	if o.Tier != "" {
		if _, err := isim.ParseTier(o.Tier); err != nil {
			return err
		}
	}
	if math.IsNaN(o.FaultRate) || math.IsInf(o.FaultRate, 0) || o.FaultRate < 0 {
		return fmt.Errorf("fault rate %v must be a non-negative finite rate", o.FaultRate)
	}
	if o.QueueCap < 0 {
		return fmt.Errorf("queue cap %d is negative; the serving queue needs a non-negative capacity (0 = the study default)", o.QueueCap)
	}
	if o.Shed != "" && o.Stream == "" {
		return fmt.Errorf("shed policy %q requires a stream: a shed policy is meaningless without an arrival shape", o.Shed)
	}
	if o.FleetChips < 0 || o.FleetTenants < 0 || o.FleetKill < 0 {
		return fmt.Errorf("fleet chips/tenants/kill must be non-negative, got %d/%d/%d", o.FleetChips, o.FleetTenants, o.FleetKill)
	}
	if o.FleetChips > 0 && o.FleetKill >= o.FleetChips {
		return fmt.Errorf("fleet kill %d must be smaller than chips %d: killing the whole fleet leaves no survivors to re-place work on", o.FleetKill, o.FleetChips)
	}
	return nil
}
