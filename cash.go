// Package cash is a from-scratch reproduction of "CASH: Supporting IaaS
// Customers with a Sub-core Configurable Architecture" (Zhou, Hoffmann,
// Wentzlaff — ISCA 2016).
//
// CASH co-designs a sub-core configurable hardware architecture — a
// homogeneous fabric of Slices (simple out-of-order mini-cores) and L2
// cache banks that compose at runtime into virtual cores — with a
// cost-optimizing runtime that combines a deadbeat controller, a
// Kalman-filter phase estimator and a Q-learning configuration
// optimizer to meet a QoS target at minimal rental cost.
//
// This package is the public facade over the full system:
//
//   - NewSimulator builds SSim, the cycle-level timing simulator of the
//     CASH fabric (§V-A), for any virtual-core configuration.
//   - NewRuntime builds the CASH runtime (§IV, Algorithm 1); NewConvex,
//     RaceToIdle and Static provide the paper's baseline allocators.
//   - Run executes an application under an allocator on the simulated
//     fabric, with reconfiguration overheads, rental billing and QoS
//     accounting (§VI).
//   - NewOracle characterises applications over the whole configuration
//     space and derives optimal allocations (§V-C).
//   - Benchmarks returns the paper's 13-application workload suite.
//
// See examples/quickstart for the smallest end-to-end program, and
// cmd/cashsim to regenerate every table and figure of the paper.
package cash

import (
	"fmt"
	"io"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/daemon"
	"cash/internal/daemon/client"
	"cash/internal/experiment"
	"cash/internal/fault"
	"cash/internal/figs"
	"cash/internal/fleet"
	"cash/internal/guard"
	"cash/internal/isim"
	"cash/internal/isim/calib"
	"cash/internal/oracle"
	"cash/internal/par"
	"cash/internal/slice"
	"cash/internal/soak"
	"cash/internal/ssim"
	"cash/internal/supervise"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// Core architecture types.
type (
	// Config is one virtual-core configuration: a number of Slices and
	// an L2 size (§II-A: 1–8 Slices × 64KB–8MB).
	Config = vcore.Config
	// SliceConfig is the Slice microarchitecture (Table I).
	SliceConfig = slice.Config
	// Simulator is SSim, the cycle-level timing simulator (§V-A).
	Simulator = ssim.Sim
	// SteeringPolicy selects how instructions spread across Slices.
	SteeringPolicy = ssim.SteeringPolicy
)

// Steering policies.
const (
	SteerEarliest   = ssim.SteerEarliest
	SteerRoundRobin = ssim.SteerRoundRobin
)

// Workload types.
type (
	// App is a benchmark application: a sequence of phases.
	App = workload.App
	// Phase is one steady-state region of an application.
	Phase = workload.Phase
	// RequestStream is an open-loop arrival process (Fig 9).
	RequestStream = workload.RequestStream
	// Gen deterministically produces an application's dynamic
	// instruction stream; it feeds Simulator.Run directly.
	Gen = workload.Gen
)

// NewGen returns a deterministic instruction generator for an
// application; the same (app, seed) pair always yields the same stream.
func NewGen(app App, seed uint64) *Gen { return workload.NewGen(app, seed) }

// Runtime and allocator types.
type (
	// Runtime is the CASH runtime (§IV).
	Runtime = cashrt.Runtime
	// RuntimeOptions tune the runtime; the zero value is the paper's
	// design.
	RuntimeOptions = cashrt.Options
	// Allocator is a resource-allocation policy.
	Allocator = alloc.Allocator
	// RaceToIdle is the worst-case-provisioned baseline (§II-B).
	RaceToIdle = alloc.RaceToIdle
	// Static always uses one fixed configuration.
	Static = alloc.Static
	// PricingModel prices configurations (§VI-B).
	PricingModel = cost.Model
)

// GuardCommitted is the RuntimeOptions.GuardStyle that parks the
// runtime at the largest configuration after two consecutive QoS misses
// until the target is met twice in a row (the zero style is off).
const GuardCommitted = cashrt.GuardCommitted

// Experiment types.
type (
	// RunOptions configure an experiment run.
	RunOptions = experiment.Opts
	// Result is a completed experiment with time series and totals.
	Result = experiment.Result
	// Oracle is the brute-force characterisation database (§V-C).
	Oracle = oracle.DB
)

// Fault-injection types (robustness study). Set RunOptions.Faults to a
// schedule to host a run on a fabric chip with injected tile faults;
// Result.FaultStats reports what happened.
type (
	// FaultSchedule is a deterministic list of tile fault events.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled tile strike (optionally transient).
	FaultEvent = fault.Event
	// FaultSpec parameterises random schedule generation.
	FaultSpec = fault.Spec
	// FaultStats summarises injected-fault activity over a run.
	FaultStats = experiment.FaultStats
)

// GenerateFaults draws a random, reproducible fault schedule: the same
// spec always yields the same schedule.
func GenerateFaults(spec FaultSpec) (FaultSchedule, error) { return fault.Generate(spec) }

// GuardStats counts guardrail trips and recoveries over a run
// (control-loop robustness). Set RuntimeOptions.Guardrails to arm the
// watchdogs, whose thresholds are fixed (DESIGN.md §3d); Result.Guard
// reports their activity.
type GuardStats = guard.Stats

// Fleet control-plane types (robustness study). A fleet is N simulated
// chips hosting M tenants under hierarchical budget envelopes,
// time-bounded leases, heartbeat failure detection and exactly-once
// re-execution of displaced work.
type (
	// FleetOptions configure one fleet run.
	FleetOptions = fleet.Options
	// FleetResult is a completed fleet run: cost, availability,
	// re-execution counts, time-to-recovery tail and the control plane's
	// own guarantees (exactly-once, reconciled budgets, replay digest).
	FleetResult = fleet.Result
	// FleetStats counts control-plane activity over a run.
	FleetStats = fleet.Stats
	// FleetWork is the work a fleet hosts: M tenants × cells.
	FleetWork = fleet.Work
	// ChipFaultSchedule is a deterministic list of chip-level fault
	// events (crashes, hangs, heartbeat loss).
	ChipFaultSchedule = fault.ChipSchedule
	// ChipFaultEvent is one scheduled chip fault.
	ChipFaultEvent = fault.ChipEvent
)

// RunFleet executes one fleet run: admission against budget envelopes,
// leased placement, failure detection and exactly-once re-execution.
func RunFleet(opts FleetOptions) (FleetResult, error) { return fleet.Run(opts) }

// KillK returns a chip fault schedule that crashes k of n chips at the
// given tick, spread evenly across the fleet.
func KillK(chips, k int, tick int64) ChipFaultSchedule { return fault.KillK(chips, k, tick) }

// cashd is the fleet daemon: a long-lived server that owns a hosted
// fleet behind a Unix socket, journals every mutation before
// acknowledging it (kill -9 safe), sheds load at a bounded queue and
// drains gracefully on SIGTERM. See cmd/cashd for the binary and
// internal/daemon for the state machine.
type (
	// DaemonOptions configure a cashd instance.
	DaemonOptions = daemon.Options
	// DaemonServer is a running cashd instance.
	DaemonServer = daemon.Server
	// DaemonTenantSpec is a submit-tenant request body.
	DaemonTenantSpec = daemon.TenantSpec
	// DaemonEpoch is one watch-epochs stream event.
	DaemonEpoch = daemon.Epoch
	// DaemonClient is the retrying cashd client: capped exponential
	// backoff with deterministic jitter, retries only when safe
	// (idempotent reads always, mutations only under an idempotency
	// key).
	DaemonClient = client.Client
	// DaemonClientOptions configure a DaemonClient.
	DaemonClientOptions = client.Options
	// WireFaultSpec parameterises deterministic wire-level fault
	// injection (drop/delay/duplicate/truncate/reorder).
	WireFaultSpec = fault.WireSpec
)

// StartDaemon launches a cashd instance: journal resumed, socket
// bound, fleet loop running.
func StartDaemon(opts DaemonOptions) (*DaemonServer, error) { return daemon.Start(opts) }

// DialDaemon creates a retrying client for a cashd socket.
func DialDaemon(opts DaemonClientOptions) (*DaemonClient, error) { return client.Dial(opts) }

// DefaultDaemonSocketPath returns the conventional cashd socket
// location ($CASHD_SOCKET, else the user cache directory).
func DefaultDaemonSocketPath() string { return daemon.DefaultSocketPath() }

// DefaultDaemonJournalPath returns the conventional cashd journal
// location ($CASHD_JOURNAL, else the user cache directory).
func DefaultDaemonJournalPath() string { return daemon.DefaultJournalPath() }

// DefaultWireFaultSpec returns the chaos soak's wire fault mix for a
// seed: 5% drop, 5% delay, 4% duplicate, 3% truncate, 3% reorder.
func DefaultWireFaultSpec(seed uint64) WireFaultSpec { return fault.DefaultWireSpec(seed) }

// Chaos soak: guard, fleet and daemon suites over one seeds ×
// scenarios grid, each run replayed to an identical digest.
type (
	// SoakOptions configure a soak: seeds per scenario, the directory
	// for journals and sockets, and an optional scenario filter.
	SoakOptions = soak.Options
	// SoakReport is a completed soak with per-run outcomes.
	SoakReport = soak.Report
)

// RunSoak executes the chaos soak, asserting on every run no panics,
// no NaN in runtime state, breaker-bounded QoS-violation streaks, a
// bounded shedding server queue, exactly-once execution,
// nanodollar-exact books, a clean daemon drain and identical replay.
func RunSoak(opts SoakOptions) (SoakReport, error) { return soak.Run(opts) }

// SoakScenarios lists the soak's scenarios as suite/name.
func SoakScenarios() []string { return soak.Scenarios() }

// ConfigSpace returns the full 8×8 virtual-core configuration grid.
func ConfigSpace() []Config { return vcore.Space() }

// MinConfig and MaxConfig bound the configuration space.
func MinConfig() Config { return vcore.Min() }

// MaxConfig returns the largest configuration (8 Slices, 8MB L2).
func MaxConfig() Config { return vcore.Max() }

// DefaultSliceConfig returns Table I.
func DefaultSliceConfig() SliceConfig { return slice.DefaultConfig() }

// DefaultPricing returns the paper's pricing model ($0.0098/Slice/hr +
// $0.0032/64KB/hr, anchored to EC2 t2.micro).
func DefaultPricing() PricingModel { return cost.Default() }

// Benchmarks returns the paper's 13-application suite (§V-B).
func Benchmarks() []App { return workload.Apps() }

// Benchmark looks one application up by name ("x264", "mcf", ...).
func Benchmark(name string) (App, bool) { return workload.ByName(name) }

// NewSimulator builds a simulator for one virtual core in the given
// configuration with the Table I microarchitecture.
func NewSimulator(cfg Config) (*Simulator, error) {
	return ssim.New(cfg, slice.DefaultConfig(), ssim.SteerEarliest)
}

// NewRuntime builds the CASH runtime for a QoS target (an IPC floor for
// batch applications, or 1.0 for normalized-latency server QoS) under
// the default pricing model.
func NewRuntime(target float64, opts RuntimeOptions) (*Runtime, error) {
	return cashrt.New(target, cost.Default(), opts)
}

// NewConvex builds the convex-optimization baseline allocator (§VI-C),
// calibrated with the given average-case speedup model.
func NewConvex(target float64, avgSpeedup func(Config) float64) (*Runtime, error) {
	return cashrt.NewConvex(target, cost.Default(), avgSpeedup)
}

// Run executes an application under an allocator on the simulated CASH
// fabric and returns the cost/QoS outcome.
func Run(app App, policy Allocator, opts RunOptions) (Result, error) {
	return experiment.Run(app, policy, opts)
}

// NewOracle builds a characterisation database with the paper's
// defaults. Use LoadCache/SaveCache to persist the brute-force sweep.
func NewOracle() *Oracle { return oracle.NewDB() }

// ReproduceOptions tune Reproduce beyond the workload scale: the
// reliability, tail and fleet study knobs, the simulation tier, and the
// supervision of every artifact's cells (parallelism, timeouts,
// retries, the crash-safe result journal). A resumed journal is
// discarded unless every value-shaping option matches.
type ReproduceOptions = figs.Options

// DefaultJournalPath returns the conventional location of the result
// journal ($CASH_JOURNAL, else the user cache directory).
func DefaultJournalPath() string { return supervise.DefaultJournalPath() }

// RecordCalibGolden runs the golden cycle-level characterisation of the
// calibration corpus over the full configuration space and writes it to
// path, for later RunCalibGate calls. sweepPar bounds the sweep's
// worker budget (0 = the shared process-wide pool).
func RecordCalibGolden(path string, sweepPar int) error {
	return calib.RecordGolden(calibPool(sweepPar)).Save(path)
}

// RunCalibGate replays the calibration corpus on the interval tier
// against the goldens recorded at goldenPath and enforces the
// CalibTolerance contract, writing a summary (and, on failure, the full
// per-cell delta table) to w. It returns the gate error when any
// (app, config, phase) cell is out of tolerance.
func RunCalibGate(w io.Writer, goldenPath string, sweepPar int) error {
	g, err := calib.LoadGolden(goldenPath)
	if err != nil {
		return err
	}
	rep := g.Compare(calibPool(sweepPar))
	if err := rep.Gate(isim.CalibTolerance); err != nil {
		fmt.Fprint(w, rep.Table(isim.CalibTolerance))
		return err
	}
	fmt.Fprintf(w, "calib: %d cells within %.1f%% of the golden cycle-level IPC\n",
		len(rep.Cells), 100*isim.CalibTolerance)
	return nil
}

func calibPool(sweepPar int) *par.Pool {
	if sweepPar == 0 {
		return nil // the shared process-wide pool
	}
	return par.New(sweepPar)
}

// Artifacts lists the artifact names Reproduce accepts, ending with
// "all", which renders every other artifact in order.
func Artifacts() []string { return figs.ArtifactNames() }

// Reproduce regenerates a named artifact of the paper's evaluation (one
// of Artifacts), writing the report to w. scale shrinks the workloads
// (1.0 = the full evaluation).
func Reproduce(w io.Writer, artifact string, scale float64) error {
	return ReproduceWith(w, artifact, ReproduceOptions{Scale: scale})
}

// ReproduceWith is Reproduce with full options. It validates o before
// doing any work.
func ReproduceWith(w io.Writer, artifact string, o ReproduceOptions) error {
	return figs.Reproduce(w, artifact, o)
}
