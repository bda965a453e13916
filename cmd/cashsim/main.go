// Command cashsim regenerates the tables and figures of the CASH paper
// (Zhou, Hoffmann, Wentzlaff — ISCA 2016) on the simulated CASH fabric.
//
// Usage:
//
//	cashsim [flags] <artifact>
//	cashsim chaos [-seeds n] [-dir dir] [-out file]
//	cashsim calib [-record golden.gob] [-gate golden.gob] [-sweep-par n] [-out file]
//	cashsim daemon-<command> [-socket path] [command flags]
//
// The first argument picks the mode, and each mode parses only the
// flags it reads, so a flag given to another mode is a usage error.
// `cashsim -h` lists the artifacts and their flags; `cashsim <mode> -h`
// lists a mode's flags.
//
// -tier selects the simulation fidelity of the oracle characterisation
// sweeps: cycle (the default — the authoritative tier every paper
// figure is produced on) or interval (analytic per-phase model). The
// interval tier is held to the |IPC_fast − IPC_cycle| < 2% calibration
// contract (internal/isim/calib); the on-disk characterisation cache
// keys encode the tier, so runs at different tiers never poison each
// other.
//
// The fleet artifact is the fleet-scale control-plane study: N
// simulated chips host M tenants of real CASH experiments under
// hierarchical budget envelopes, time-bounded leases, heartbeat failure
// detection and exactly-once re-execution. It reports cost,
// availability, re-execution counts and the time-to-recovery tail for a
// healthy baseline plus crash-K, partition and hang-storm failure
// patterns, and checks the control plane's guarantees (exactly-once
// landing, budget reconciliation, byte-identical replay) inline. -chips,
// -tenants and -kill size the fleet and the crash scenario.
//
// The tail artifact is the open-loop serving study beyond Fig 9's
// means: bounded-queue load shedding under bursty arrival streams, with
// full tail quantiles (p50/p95/p99/p999), SLO-violation minutes and the
// guard subsystem's tail-latency breaker. -stream picks the arrival
// shape (sine, diurnal, flash, bursts), -queue-cap the admission bound,
// -shed the overload policy (drop-newest or deadline) and -tail-target
// the SLO tail budget in cycles.
//
// Every (app, policy) cell of every artifact runs under a supervised
// executor: a panicking, erroring or hanging cell renders as
// FAILED(reason) in the report while the remaining cells complete.
// -jobs runs cells in parallel (the report stays byte-identical),
// -cell-timeout bounds each cell's wall-clock time, and -max-retries
// grants failing cells extra attempts with jittered backoff.
//
// The brute-force characterisation sweep inside each cell is itself
// parallel: -sweep-par sets its worker budget (0, the default, draws
// from a process-wide budget shared with -jobs so the two compose
// without oversubscribing the host; 1 forces a serial sweep). The
// report and the on-disk characterisation cache are byte-identical at
// every setting — parallelism only changes wall-clock time.
//
// Completed cells are appended to a crash-safe journal (-journal, or
// $CASH_JOURNAL, or the user cache directory; "-" disables it). After
// an interrupted run, -resume replays journal-completed cells instead
// of re-running them, producing a report byte-identical to an
// uninterrupted run under the same options and seeds; a journal written
// under other options is discarded. Without -resume the journal is
// truncated and started fresh.
//
// The reliability artifact injects tile faults into a small fabric chip
// and reports how CASH and static provisioning degrade; -fault-rate
// (strikes per million cycles) and -fault-seed parameterise its
// reproducible schedule and print per-policy fault/remap/degradation
// counters.
//
// -cpuprofile and -memprofile write pprof profiles of the run (CPU
// samples during execution; a heap snapshot at exit) for use with
// `go tool pprof`; the simulator's fast path was tuned against these.
//
// The brute-force characterisation (§V-C) is cached on disk
// ($CASH_ORACLE_CACHE or the user cache directory), so repeated
// invocations are fast. -scale shrinks workloads proportionally; the
// cache is keyed by workload content, so different scales do not
// collide.
//
// chaos runs the chaos soak: every guard, fleet and daemon scenario
// over -seeds seeds, each run replayed to an identical digest; -dir
// keeps the runs' journals. calib -record records the golden
// cycle-level characterisation of the calibration corpus to a file, and
// calib -gate replays the interval tier against it and enforces the 2%
// gate, printing the per-cell delta table on failure; giving both
// records then gates. The daemon commands (daemon-submit daemon-alloc
// daemon-spend daemon-health daemon-watch daemon-drain) talk to the
// cashd at -socket (see cmd/cashd) through the retrying client;
// retried and duplicated daemon-submits under one -idem key apply
// exactly once.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"cash"
)

// Synopses of the flag-taking modes, shared by the usage texts.
const (
	chaosSynopsis = "cashsim chaos [-seeds n] [-dir dir] [-out file]"
	calibSynopsis = "cashsim calib [-record golden.gob] [-gate golden.gob] [-sweep-par n] [-out file]"
)

// command is one parsed invocation: its mode and what it runs.
type command struct {
	mode string // the artifact, "chaos", "calib" or a daemon command
	out  string // report file ("" = stdout)
	run  func(w io.Writer) error
}

func main() {
	cmd, err := parse(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // parse has already reported it
	}
	if err := cmd.execute(); err != nil {
		fmt.Fprintln(os.Stderr, "cashsim:", err)
		os.Exit(1)
	}
}

// execute runs the command, writing its report to -out or stdout.
func (c *command) execute() error {
	if c.out == "" {
		return c.run(os.Stdout)
	}
	f, err := os.Create(c.out)
	if err != nil {
		return err
	}
	defer f.Close()
	return c.run(f)
}

// parse dispatches on the first argument to the mode's own FlagSet.
// Every error, flag errors included, is reported on stderr before it is
// returned.
func parse(args []string, stderr io.Writer) (*command, error) {
	if len(args) > 0 {
		switch mode := args[0]; {
		case mode == "chaos":
			return parseChaos(args[1:], stderr)
		case mode == "calib":
			return parseCalib(args[1:], stderr)
		case strings.HasPrefix(mode, "daemon-"):
			return parseDaemon(mode, args[1:], stderr)
		}
	}
	return parseArtifact(args, stderr)
}

// newFlagSet builds a mode's FlagSet; synopsis heads its usage.
func newFlagSet(name, synopsis string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: %s\n", synopsis)
		fs.PrintDefaults()
	}
	return fs
}

// usageError reports a rejected invocation the way fs reports its own
// parse errors, and returns err.
func usageError(fs *flag.FlagSet, err error) error {
	fmt.Fprintf(fs.Output(), "cashsim: %v\nrun '%s -h' for usage\n", err, fs.Name())
	return err
}

// parseFlags parses a mode that takes no positional arguments.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return usageError(fs, fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}
	return nil
}

// parseArtifact parses an artifact run; its flags bind straight into
// the reproduce options.
func parseArtifact(args []string, stderr io.Writer) (*command, error) {
	fs := newFlagSet("cashsim", "", stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), `usage: cashsim [flags] <artifact>
       %s
       %s
       cashsim daemon-<command> [-socket path] [command flags]

artifacts: %s
daemon commands (talk to a running cashd): %s
run 'cashsim <mode> -h' for the flags of chaos, calib or a daemon command

artifact flags:
`, chaosSynopsis, calibSynopsis, strings.Join(cash.Artifacts(), " "), daemonCommands)
		fs.PrintDefaults()
	}
	var o cash.ReproduceOptions
	fs.Float64Var(&o.Scale, "scale", 1.0, "workload scale factor (1.0 = full evaluation)")
	fs.StringVar(&o.Tier, "tier", "cycle", "oracle sweep simulation tier: cycle or interval (figures stay authoritative on cycle)")
	fs.Float64Var(&o.FaultRate, "fault-rate", 0, "reliability study: strikes per million cycles (0 = default)")
	fs.Uint64Var(&o.FaultSeed, "fault-seed", 0, "reliability study: fault-schedule seed (0 = default)")
	fs.StringVar(&o.Stream, "stream", "", `tail study: arrival shape (sine diurnal flash bursts; "" = default)`)
	fs.IntVar(&o.QueueCap, "queue-cap", 0, "tail study: bounded queue capacity (0 = default; must not be negative)")
	fs.StringVar(&o.Shed, "shed", "", `tail study: shed policy (drop-newest deadline; "" compares both; requires -stream)`)
	fs.Int64Var(&o.TailTarget, "tail-target", 0, "tail study: SLO tail budget in cycles (0 = the latency target)")
	fs.IntVar(&o.FleetChips, "chips", 0, "fleet study: simulated chips (0 = default, 6)")
	fs.IntVar(&o.FleetTenants, "tenants", 0, "fleet study: admitted tenants (0 = default, 6)")
	fs.IntVar(&o.FleetKill, "kill", 0, "fleet study: chips the crash-K scenario kills (0 = default, 2)")
	fs.IntVar(&o.Jobs, "jobs", 1, "cells to run in parallel (report stays byte-identical)")
	fs.IntVar(&o.SweepPar, "sweep-par", 0, "oracle sweep workers per cell (0 = shared host budget, 1 = serial; results stay byte-identical)")
	fs.DurationVar(&o.CellTimeout, "cell-timeout", 0, "per-cell wall-clock budget (0 = none)")
	fs.IntVar(&o.MaxRetries, "max-retries", 0, "extra attempts for failing cells (jittered backoff)")
	fs.StringVar(&o.JournalPath, "journal", cash.DefaultJournalPath(), `crash-safe result journal ("-" disables)`)
	fs.BoolVar(&o.Resume, "resume", false, "replay journal-completed cells from an interrupted run")
	verbose := fs.Bool("v", false, "print supervision diagnostics (retries, journal reuse) to stderr")
	cmd := &command{}
	fs.StringVar(&cmd.out, "out", "", "write the report to a file instead of stdout")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to a file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to a file (go tool pprof)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() == 0:
		return nil, usageError(fs, errors.New("missing artifact"))
	case fs.NArg() > 1:
		return nil, usageError(fs, fmt.Errorf("unexpected argument %q after artifact %q", fs.Arg(1), fs.Arg(0)))
	case !slices.Contains(cash.Artifacts(), fs.Arg(0)):
		return nil, usageError(fs, fmt.Errorf("unknown artifact %q", fs.Arg(0)))
	}
	if err := o.Validate(); err != nil {
		return nil, usageError(fs, err)
	}
	if *verbose {
		o.Log = stderr
	}
	cmd.mode = fs.Arg(0)
	cmd.run = func(w io.Writer) error {
		stop, err := startProfiles(*cpuProfile, *memProfile)
		if err != nil {
			return err
		}
		defer stop()
		start := time.Now()
		if err := cash.ReproduceWith(w, cmd.mode, o); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "cashsim: %s done in %v\n", cmd.mode, time.Since(start).Round(time.Millisecond))
		return nil
	}
	return cmd, nil
}

// parseChaos parses a chaos soak run.
func parseChaos(args []string, stderr io.Writer) (*command, error) {
	fs := newFlagSet("cashsim chaos", chaosSynopsis, stderr)
	var o cash.SoakOptions
	fs.IntVar(&o.Seeds, "seeds", 0, "seeds per scenario (0 = the soak default)")
	fs.StringVar(&o.Dir, "dir", "", "keep the runs' journals in this directory (default: a removed temp dir)")
	cmd := &command{mode: "chaos"}
	fs.StringVar(&cmd.out, "out", "", "write the soak report to a file instead of stdout")
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	cmd.run = func(w io.Writer) error {
		start := time.Now()
		rep, err := cash.RunSoak(o)
		if err != nil {
			return err
		}
		fmt.Fprint(w, rep.Summary())
		fmt.Fprintf(stderr, "cashsim: chaos soak done in %v\n", time.Since(start).Round(time.Millisecond))
		if !rep.Passed() {
			return errors.New("chaos soak failed")
		}
		return nil
	}
	return cmd, nil
}

// parseCalib parses a calibration record and/or gate run.
func parseCalib(args []string, stderr io.Writer) (*command, error) {
	fs := newFlagSet("cashsim calib", calibSynopsis, stderr)
	record := fs.String("record", "", "record the golden cycle-level calibration runs to this path")
	gate := fs.String("gate", "", "run the fast-tier calibration gate against golden runs recorded at this path (after -record, if both are given)")
	sweepPar := fs.Int("sweep-par", 0, "sweep workers (0 = shared host budget, 1 = serial)")
	cmd := &command{mode: "calib"}
	fs.StringVar(&cmd.out, "out", "", "write the gate report to a file instead of stdout")
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if *record == "" && *gate == "" {
		return nil, usageError(fs, errors.New("calib needs -record, -gate or both"))
	}
	if *gate != "" && *record == "" {
		if _, err := os.Stat(*gate); err != nil {
			return nil, usageError(fs, fmt.Errorf("-gate %s: golden runs not present (%v); record them first with -record %s", *gate, err, *gate))
		}
	}
	cmd.run = func(w io.Writer) error {
		start := time.Now()
		if *record != "" {
			if err := cash.RecordCalibGolden(*record, *sweepPar); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "cashsim: calibration goldens recorded to %s in %v\n",
				*record, time.Since(start).Round(time.Millisecond))
		}
		if *gate != "" {
			if err := cash.RunCalibGate(w, *gate, *sweepPar); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "cashsim: calibration gate done in %v\n",
				time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	return cmd, nil
}

// startProfiles enables the requested pprof outputs. The returned stop
// function flushes them.
func startProfiles(cpu, mem string) (stop func(), err error) {
	var cpuF *os.File
	if cpu != "" {
		cpuF, err = os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem == "" {
			return
		}
		f, err := os.Create(mem)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cashsim: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cashsim: memprofile:", err)
		}
	}, nil
}
