package figs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/experiment"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// The experiment memo runs each distinct policy run once per pass
// (DESIGN.md §3c, "One run per experiment"). Fig 10's FineGrain,race
// and CASH columns, Fig 8's x264 runs, Fig 2's race-to-idle and convex
// runs and the ablations' default row repeat Fig 7's cells; the memo
// serves such a run to the second artifact instead of simulating it
// again. Every cell still runs as a supervised unit and is journaled
// under its own key with its own payload; only the experiment inside
// the cell comes from the memo.
//
// An entry is keyed by every input that shapes the result, each named
// explicitly rather than read back out of a built allocator: the
// harness fingerprint (meta), the app (its name in the key, the whole
// definition compared on a hit), the policy spec and the run options.
// The keys are the spec strings themselves, so distinct experiments
// cannot collide.
//
// An artifact never receives an entry twice: one already among an
// entry's receivers runs the experiment again and becomes its only
// receiver. A repeated call of an artifact thus recomputes every
// experiment it makes, and comparing two calls compares two
// computations, not a replay.

// A policy is an allocator and its spec: a string built from the values
// the allocator is constructed from. The memo keys on the spec, so two
// policies share a run only when they are built from the same values; a
// matching name alone never does.
type policy struct {
	alloc.Allocator
	spec string
}

// modelSpec names a pricing model exactly (cost.Model's String rounds).
func modelSpec(m cost.Model) string {
	return fmt.Sprintf("slice=%v bank=%v", m.SliceHour, m.BankHour)
}

// raceToIdle is the race-to-idle baseline r.
func raceToIdle(r alloc.RaceToIdle) policy {
	return policy{r, fmt.Sprintf("race-to-idle cfg=%v target=%v margin=%v", r.WorstCase, r.TargetQoS, r.Margin)}
}

// oraclePolicy is the per-phase oracle o.
func oraclePolicy(o *alloc.OraclePolicy) policy {
	return policy{o, fmt.Sprintf("oracle target=%v per-phase=%v phase-qos=%v", o.TargetQoS, o.PerPhase, o.PhaseQoS)}
}

// cash is the CASH runtime for target under o. The spec prints every
// field of o, so an option added to cashrt.Options joins the key
// without a change here.
func (h *Harness) cash(target float64, o cashrt.Options) policy {
	return policy{cashrt.MustNew(target, h.Model, o),
		fmt.Sprintf("cash target=%v model=%s opts=%+v", target, modelSpec(h.Model), o)}
}

// cashDefault is the default CASH runtime for target.
func (h *Harness) cashDefault(target float64) policy {
	return h.cash(target, cashrt.Options{Seed: h.Seed})
}

// coarseAdaptive is Fig 10's CoarseGrain,adaptive runtime for target.
func (h *Harness) coarseAdaptive(target float64) (policy, error) {
	rt, err := cashrt.NewCoarseAdaptive(target, h.Model, h.Seed)
	return policy{rt, fmt.Sprintf("coarse-adaptive target=%v model=%s seed=%d", target, modelSpec(h.Model), h.Seed)}, err
}

// convex is the convex baseline for an app. Its spec spells out the
// calibration the envelope is built from: the app's average speedup at
// every configuration.
func (h *Harness) convex(s appSetup) (policy, error) {
	avg := h.DB.AvgSpeedup(s.App)
	rt, err := cashrt.NewConvex(s.Target, h.Model, avg)
	var b strings.Builder
	fmt.Fprintf(&b, "convex target=%v model=%s speedup=", s.Target, modelSpec(h.Model))
	for _, c := range vcore.Space() {
		fmt.Fprintf(&b, "%v,", avg(c))
	}
	return policy{rt, b.String()}, err
}

// optsSpec names every experiment.Opts field that shapes a result.
// Trace and Sims change only where a run reads its stream and gets its
// simulator, never a result bit, so they are left out; the memo's
// callers set no EpochHook.
func optsSpec(o experiment.Opts) string {
	faults := "none"
	if o.Faults != nil {
		faults = fmt.Sprintf("%+v", o.Faults.Events)
	}
	return fmt.Sprintf("tau=%d target=%v model=%s steer=%d initial=%v tol=%v seed=%d quanta=%d fabric=%dx%d faults=%s",
		o.Tau, o.Target, modelSpec(o.Model), o.Policy, o.Initial, o.Tolerance,
		cmp.Or(o.Seed, experiment.DefaultSeed), o.MaxQuanta, o.FabricWidth, o.FabricHeight, faults)
}

// memoKey names one experiment.
type memoKey struct {
	harness, app, policy, opts string
}

type memoEntry struct {
	app workload.App
	res experiment.Result
	// receivers are the artifacts the result has been given to.
	receivers []string
}

// memo is a harness's experiment memo. The zero value is ready.
type memo struct {
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	// runs counts experiments computed, served those given from an
	// entry.
	runs, served int
}

// do returns the result of experiment k on app for artifact: an
// entry's, when another artifact computed it, or else run's, which
// replaces the entry. Receivers share the entry's Samples and must not
// modify them. A failed run stores nothing.
func (m *memo) do(artifact string, k memoKey, app workload.App, run func() (experiment.Result, error)) (experiment.Result, error) {
	m.mu.Lock()
	if e := m.entries[k]; e != nil && e.app.Equal(app) && !slices.Contains(e.receivers, artifact) {
		e.receivers = append(e.receivers, artifact)
		m.served++
		m.mu.Unlock()
		return e.res, nil
	}
	m.runs++
	m.mu.Unlock()
	res, err := run()
	if err != nil {
		return res, err
	}
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[memoKey]*memoEntry)
	}
	m.entries[k] = &memoEntry{app: app, res: res, receivers: []string{artifact}}
	m.mu.Unlock()
	return res, nil
}

// runShared makes one batch experiment for artifact through the memo.
func (h *Harness) runShared(artifact string, app workload.App, p policy, opts experiment.Opts) (experiment.Result, error) {
	k := memoKey{harness: h.meta(), app: app.Name, policy: p.spec, opts: optsSpec(opts)}
	return h.memo.do(artifact, k, app, func() (experiment.Result, error) {
		return h.runBatch(app, p.Allocator, opts)
	})
}
