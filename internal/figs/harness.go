// Package figs regenerates every table and figure of the paper's
// evaluation (§II and §VI). Each experiment is a method on Harness that
// prints the same rows/series the paper reports; cmd/cashsim and the
// repository's benchmark suite are thin wrappers around this package.
package figs

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cash/internal/alloc"
	"cash/internal/cost"
	"cash/internal/experiment"
	"cash/internal/oracle"
	"cash/internal/par"
	"cash/internal/slice"
	"cash/internal/ssim"
	"cash/internal/supervise"
	"cash/internal/workload"
)

// Harness runs the evaluation under its Options.
type Harness struct {
	Options
	DB  *oracle.DB
	Out io.Writer
	// Seed drives the CASH runtime's exploration.
	Seed uint64
	// CachePath persists the oracle characterisation ("" = default
	// location; "-" disables persistence).
	CachePath string
	// CellHook, when set, runs at the start of every supervised cell —
	// test instrumentation for injecting panics and hangs.
	CellHook func(key string)

	logMu       sync.Mutex
	journal     *supervise.Journal
	journalOnce sync.Once
	sweepOnce   sync.Once
	simPools    sync.Map // ssim.SteeringPolicy → *ssim.SimPool
	memo        memo
}

// New builds a harness writing to out, loading any cached
// characterisation data.
func New(out io.Writer) *Harness {
	h := &Harness{
		Options:   Options{Scale: 1.0},
		DB:        oracle.NewDB(),
		Out:       out,
		Seed:      7,
		CachePath: oracle.DefaultCachePath(),
	}
	if h.CachePath != "-" {
		// Cache load failures only cost re-simulation, but silent ones
		// hide corruption — surface them.
		if err := h.DB.LoadCache(h.CachePath); err != nil {
			fmt.Fprintf(out, "# warning: oracle cache load: %v\n", err)
		}
	}
	return h
}

// Save persists the characterisation cache.
func (h *Harness) Save() {
	if h.CachePath != "-" {
		if err := h.DB.SaveCache(h.CachePath); err != nil {
			// One visible line in the report beats a silently cold cache.
			h.logMu.Lock()
			fmt.Fprintf(h.Out, "# warning: oracle cache save: %v\n", err)
			h.logMu.Unlock()
		}
	}
}

// Close releases the result journal, if one was opened.
func (h *Harness) Close() error {
	if h.journal != nil {
		err := h.journal.Close()
		h.journal = nil
		return err
	}
	return nil
}

func (h *Harness) printf(format string, args ...any) {
	fmt.Fprintf(h.Out, format, args...)
}

// logf writes a diagnostic line to h.Log (safe from parallel cells).
func (h *Harness) logf(format string, args ...any) {
	if h.Log == nil {
		return
	}
	h.logMu.Lock()
	fmt.Fprintf(h.Log, format, args...)
	h.logMu.Unlock()
}

// app returns a workload scaled for this harness.
func (h *Harness) app(name string) (workload.App, error) {
	a, ok := workload.ByName(name)
	if !ok {
		return workload.App{}, fmt.Errorf("figs: unknown application %q", name)
	}
	if h.Scale != 1.0 {
		a = a.Scale(h.Scale)
	}
	return a, nil
}

// apps returns the full scaled suite.
func (h *Harness) apps() []workload.App {
	out := workload.Apps()
	if h.Scale != 1.0 {
		for i := range out {
			out[i] = out[i].Scale(h.Scale)
		}
	}
	return out
}

// sims returns the harness's shared simulator pool for a steering
// policy, so parallel cells recycle simulator state instead of
// rebuilding the memory hierarchy per run.
func (h *Harness) sims(pol ssim.SteeringPolicy) *ssim.SimPool {
	if v, ok := h.simPools.Load(pol); ok {
		return v.(*ssim.SimPool)
	}
	v, _ := h.simPools.LoadOrStore(pol, ssim.NewSimPool(slice.DefaultConfig(), pol))
	return v.(*ssim.SimPool)
}

// characterize sweeps an app and persists the cache. Progress goes to
// the diagnostic log: wall times are environment noise that would break
// the report's byte-reproducibility.
func (h *Harness) characterize(app workload.App) {
	h.sweepOnce.Do(func() {
		// SweepPar 0 leaves DB.Pool nil, which resolves to the shared
		// process budget; a nonzero setting gets a dedicated budget of
		// exactly that size (1 = serial baseline).
		if h.DB.Pool == nil && h.SweepPar != 0 {
			h.DB.Pool = par.New(h.SweepPar)
		}
	})
	start := time.Now()
	h.DB.CharacterizeApp(app)
	if d := time.Since(start); d > time.Second {
		h.logf("# characterized %s (%v)\n", app.Name, d.Round(time.Millisecond))
		h.Save()
	}
}

// setup computes the per-app experimental frame shared by Fig 2/7/8/10
// and Table III.
type appSetup struct {
	App       workload.App
	Target    float64
	OptCost   float64
	WorstCase alloc.RaceToIdle
	Oracle    *alloc.OraclePolicy
}

func (h *Harness) setup(app workload.App) (appSetup, error) {
	h.characterize(app)
	target := h.DB.QoSTarget(app)
	optCost, err := h.DB.OptimalCost(app, target, cost.Default())
	if err != nil {
		return appSetup{}, err
	}
	wc, err := h.DB.WorstCaseConfig(app, target, cost.Default())
	if err != nil {
		return appSetup{}, err
	}
	perPhase, phaseQoS, err := h.DB.BestPerPhase(app, target, cost.Default())
	if err != nil {
		return appSetup{}, err
	}
	return appSetup{
		App:       app,
		Target:    target,
		OptCost:   optCost,
		WorstCase: alloc.RaceToIdle{WorstCase: wc, TargetQoS: target},
		Oracle:    &alloc.OraclePolicy{PerPhase: perPhase, PhaseQoS: phaseQoS, TargetQoS: target},
	}, nil
}

// setupNamed is setup for the suite's app called name.
func (h *Harness) setupNamed(name string) (appSetup, error) {
	app, err := h.app(name)
	if err != nil {
		return appSetup{}, err
	}
	return h.setup(app)
}

// run executes one (app, policy) experiment with the harness defaults
// for artifact, through the experiment memo (memo.go).
func (h *Harness) run(artifact string, s appSetup, p policy) (experiment.Result, error) {
	return h.runShared(artifact, s.App, p, experiment.Opts{
		Target:    s.Target,
		Tolerance: 0.10,
		Sims:      h.sims(ssim.SteerEarliest),
	})
}

// runBatch runs one batch experiment, replaying the app's stream from
// the process-wide trace store (DESIGN.md §3e): a figure runs each app
// under several policies, all on the same seed, so its runs share one
// recording of the stream, the app's cold oracle sweep included. A run
// whose trace does not fit the budget generates its stream; the replay
// is instruction-for-instruction the generated stream, so no result
// depends on which happened.
func (h *Harness) runBatch(app workload.App, policy alloc.Allocator, opts experiment.Opts) (experiment.Result, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = experiment.DefaultSeed
	}
	tr, release := workload.HoldTrace(app, seed)
	defer release()
	opts.Trace = tr
	return experiment.Run(app, policy, opts)
}
