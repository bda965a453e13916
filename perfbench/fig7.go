package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime"
	"time"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/experiment"
	"cash/internal/figs"
	"cash/internal/oracle"
	"cash/internal/par"
	"cash/internal/slice"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// fig7Scale shrinks the 13-app suite so that one cold cycle-level
// sweep takes seconds, not minutes: the whole run must fit the
// benchmark's time budget with several set-ups in it.
const fig7Scale = 0.006

// fig7Setups is how many cold sweeps a run makes; setup_s is their
// median.
const fig7Setups = 3

// fig7Suite is the scaled 13-application suite, as figs builds it.
func fig7Suite() []workload.App {
	apps := workload.Apps()
	for i := range apps {
		apps[i] = apps[i].Scale(fig7Scale)
	}
	return apps
}

// fig7Sweep characterises the suite at the cycle tier into a fresh
// in-memory oracle, serially. Each app's sweep is one oracle.sweep
// span under root.
func fig7Sweep(seed uint64, tr *tracer) *oracle.DB {
	db := oracle.NewDB()
	db.Seed = seed
	db.Pool = par.New(1)
	root := tr.begin("setup", 0, 0)
	for i, app := range fig7Suite() {
		id := tr.begin("oracle.sweep", root, i+1)
		db.CharacterizeApp(app)
		tr.end(id)
	}
	tr.end(root)
	return db
}

// fig7Harness is a figs harness on db that can read no user cache:
// figs.New loads oracle.DefaultCachePath() before the caller can opt
// out, so CASH_ORACLE_CACHE is pinned to "-" first, and the database
// is swapped for the benchmark's own.
func fig7Harness(db *oracle.DB, seed uint64) (*figs.Harness, error) {
	if err := os.Setenv("CASH_ORACLE_CACHE", "-"); err != nil {
		return nil, err
	}
	h := figs.New(io.Discard)
	h.DB = db
	h.CachePath = "-"
	h.Scale = fig7Scale
	h.Seed = seed
	h.SweepPar = 1
	h.Jobs = 1
	return h, nil
}

// fig7Artifact is what the paper artifact reports.
type fig7Artifact struct {
	Fig7, Fig10 figs.Fig7Result
}

// figsPass is the timed operation of fig7: Fig 7, Table III and
// Fig 10, rendered, on the warm database.
func figsPass(h *figs.Harness) (fig7Artifact, error) {
	r7, err := h.Fig7()
	if err != nil {
		return fig7Artifact{}, err
	}
	h.Table3(r7)
	r10, err := h.Fig10()
	if err != nil {
		return fig7Artifact{}, err
	}
	return fig7Artifact{r7, r10}, nil
}

// fig7Exact are the artifact's modelled outcomes.
type fig7Exact struct {
	CostVsOpt, ViolPct float64
}

func fig7ExactOf(a fig7Artifact) fig7Exact {
	gm := a.Fig7.Geomeans()
	var v float64
	for _, app := range a.Fig7.Apps {
		v += a.Fig7.Data["CASH"][app].ViolationRate
	}
	return fig7Exact{CostVsOpt: gm["CASH"] / gm["Optimal"], ViolPct: 100 * v / float64(len(a.Fig7.Apps))}
}

// digest fingerprints every cell of an artifact, bit for bit.
func (a fig7Artifact) digest() string {
	h := fnv.New64a()
	for _, r := range []figs.Fig7Result{a.Fig7, a.Fig10} {
		for _, al := range r.Allocators {
			for _, app := range r.Apps {
				v := r.Data[al][app]
				fmt.Fprintf(h, "%s/%s %x %x\n", app, al, math.Float64bits(v.Cost), math.Float64bits(v.ViolationRate))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// cellCount is how many (app, allocator) cells an artifact holds.
func cellCount(a fig7Artifact) int {
	return len(a.Fig7.Apps)*len(a.Fig7.Allocators) + len(a.Fig10.Apps)*len(a.Fig10.Allocators)
}

// checkArtifact rejects an artifact with a missing cell or a
// non-finite or non-positive cost.
func checkArtifact(a fig7Artifact) error {
	for _, r := range []figs.Fig7Result{a.Fig7, a.Fig10} {
		for _, al := range r.Allocators {
			for _, app := range r.Apps {
				v, ok := r.Data[al][app]
				if !ok {
					return fmt.Errorf("cell %s/%s failed", app, al)
				}
				if !(v.Cost > 0) || math.IsInf(v.Cost, 0) || v.ViolationRate < 0 || v.ViolationRate > 1 {
					return fmt.Errorf("cell %s/%s: cost %v, violation rate %v", app, al, v.Cost, v.ViolationRate)
				}
			}
		}
	}
	return nil
}

// sameArtifact reports the first cell where two artifacts differ in
// any bit.
func sameArtifact(want, got fig7Artifact) error {
	pairs := [][2]figs.Fig7Result{{want.Fig7, got.Fig7}, {want.Fig10, got.Fig10}}
	for _, p := range pairs {
		w, g := p[0], p[1]
		for _, al := range w.Allocators {
			for _, app := range w.Apps {
				a, b := w.Data[al][app], g.Data[al][app]
				if math.Float64bits(a.Cost) != math.Float64bits(b.Cost) ||
					math.Float64bits(a.ViolationRate) != math.Float64bits(b.ViolationRate) {
					return fmt.Errorf("cell %s/%s: artifact cost %v viol %v, direct cost %v viol %v",
						app, al, a.Cost, a.ViolationRate, b.Cost, b.ViolationRate)
				}
			}
		}
		gw, gg := w.Geomeans(), g.Geomeans()
		for _, al := range w.Allocators {
			if math.Float64bits(gw[al]) != math.Float64bits(gg[al]) {
				return fmt.Errorf("geomean %s: artifact %v, direct %v", al, gw[al], gg[al])
			}
		}
	}
	return nil
}

// layerCounts accumulates what the direct pass's layer calls did.
type layerCounts struct {
	runs, instrs, reconfigs, stall int64
	decide                         decideStats
}

// directPass reproduces the artifact by calling the oracle, the
// allocators and experiment.Run directly, the way figs does for every
// cell: one cell span per (app, allocator) holding its oracle queries
// and its run. With a nil tracer it records nothing and wraps nothing.
func directPass(db *oracle.DB, seed uint64, sims *ssim.SimPool, tr *tracer, lc *layerCounts) (fig7Artifact, error) {
	model := cost.Default()
	art := fig7Artifact{
		Fig7:  figs.Fig7Result{Allocators: []string{"Optimal", "ConvexOptimization", "RaceToIdle", "CASH"}, Data: map[string]map[string]figs.AppResult{}},
		Fig10: figs.Fig7Result{Allocators: []string{"CoarseGrain,race", "CoarseGrain,adaptive", "FineGrain,race", "CASH"}, Data: map[string]map[string]figs.AppResult{}},
	}
	for _, r := range []*figs.Fig7Result{&art.Fig7, &art.Fig10} {
		for _, a := range r.Allocators {
			r.Data[a] = map[string]figs.AppResult{}
		}
	}
	big, _ := cashrt.BigLittle()
	root := tr.begin("pass", 0, 0)
	defer tr.end(root)
	group := 0
	for _, r := range []*figs.Fig7Result{&art.Fig7, &art.Fig10} {
		for _, app := range fig7Suite() {
			r.Apps = append(r.Apps, app.Name)
			for _, allocator := range r.Allocators {
				group++
				cell := tr.begin("cell", root, group)
				res, err := directCell(db, model, seed, sims, app, allocator, big, tr, cell, group, lc)
				tr.end(cell)
				if err != nil {
					return art, fmt.Errorf("cell %s/%s: %w", app.Name, allocator, err)
				}
				r.Data[allocator][app.Name] = res
			}
		}
	}
	return art, nil
}

// directCell is one figs cell: the per-app set-up queries, then the
// run under the chosen allocator ("Optimal" is the oracle's analytic
// minimum and runs nothing).
func directCell(db *oracle.DB, model cost.Model, seed uint64, sims *ssim.SimPool, app workload.App,
	allocator string, big vcore.Config, tr *tracer, cell, group int, lc *layerCounts) (figs.AppResult, error) {
	q := tr.begin("oracle.query", cell, group)
	db.CharacterizeApp(app)
	target := db.QoSTarget(app)
	optCost, err := db.OptimalCost(app, target, model)
	if err != nil {
		tr.end(q)
		return figs.AppResult{}, err
	}
	wc, err := db.WorstCaseConfig(app, target, model)
	if err != nil {
		tr.end(q)
		return figs.AppResult{}, err
	}
	if _, _, err := db.BestPerPhase(app, target, model); err != nil {
		tr.end(q)
		return figs.AppResult{}, err
	}
	worst := alloc.RaceToIdle{WorstCase: wc, TargetQoS: target}
	var policy alloc.Allocator
	switch allocator {
	case "Optimal":
		tr.end(q)
		return figs.AppResult{Cost: optCost}, nil
	case "ConvexOptimization":
		policy, err = cashrt.NewConvex(target, model, db.AvgSpeedup(app))
	case "RaceToIdle", "FineGrain,race":
		policy = worst
	case "CoarseGrain,race":
		policy = alloc.RaceToIdle{WorstCase: big, TargetQoS: target}
	case "CoarseGrain,adaptive":
		policy, err = cashrt.NewCoarseAdaptive(target, model, seed)
	default: // CASH
		policy = cashrt.MustNew(target, model, cashrt.Options{Seed: seed})
	}
	tr.end(q)
	if err != nil {
		return figs.AppResult{}, err
	}
	run := tr.begin("experiment.run", cell, group)
	if tr != nil {
		lc.decide.tr, lc.decide.parent, lc.decide.group = tr, run, group
		policy = timed(policy, &lc.decide)
	}
	out, err := experiment.Run(app, policy, experiment.Opts{
		Target:    target,
		Model:     model,
		Tolerance: 0.10,
		Sims:      sims,
	})
	tr.end(run)
	if err != nil {
		return figs.AppResult{}, err
	}
	lc.runs++
	lc.instrs += out.TotalInstrs
	lc.reconfigs += out.ReconfigCount
	lc.stall += out.StallCycles
	return figs.AppResult{Cost: out.TotalCost, ViolationRate: out.ViolationRate}, nil
}

func runFig7(cfg runConfig) (outcome, error) {
	serialSim()
	out := outcome{Metrics: map[string]float64{}}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}

	// Set-up: cold sweeps into fresh databases; the last one is used.
	var setups []float64
	var db *oracle.DB
	for i := 0; i < fig7Setups; i++ {
		// Each set-up starts from a collected heap, so the previous
		// database's simulators are not still resident.
		db = nil
		runtime.GC()
		t0 := time.Now()
		db = fig7Sweep(cfg.Seed, tr)
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupTrace := tr.spansSince(0)
	h, err := fig7Harness(db, cfg.Seed)
	if err != nil {
		return out, err
	}

	// Every figs pass must render the identical artifact.
	var ref fig7Artifact
	figsOnce := func(i int) error {
		a, err := figsPass(h)
		if err != nil {
			return err
		}
		out.Attempted += cellCount(a)
		if err := checkArtifact(a); err != nil {
			out.Failed += cellCount(a)
			return err
		}
		if i == 0 {
			ref = a
		} else if err := sameArtifact(ref, a); err != nil {
			return fmt.Errorf("figs pass %d differs from pass 0: %w", i, err)
		}
		return nil
	}

	if !cfg.Trace {
		pt, err := timePasses(cfg.Seconds, 3, func(i int) (float64, float64, error) {
			return measured(func() error { return figsOnce(i) })
		})
		if err != nil {
			out.Check = err
		}
		out.Metrics["setup_s"] = median(setups)
		out.Metrics["wall_s"] = median(pt.Wall)
		out.Metrics["cpu_s"] = median(pt.CPU)
		out.Digest = ref.digest()
		logf("fig7 seed %d: %d passes, artifact digest %s", cfg.Seed, len(pt.Wall), out.Digest)
		return out, nil
	}

	// Traced run: one figs pass as the reference artifact, then
	// untraced and traced direct passes alternating.
	if err := figsOnce(0); err != nil {
		out.Check = err
		return out, nil
	}
	sims := ssim.NewSimPool(slice.DefaultConfig(), ssim.SteerEarliest)
	counts := map[int]*layerCounts{}
	run, err := alternate(cfg.Seconds, 3, tr, func(i int, t *tracer) (float64, error) {
		lc := &layerCounts{}
		counts[i] = lc
		t0 := time.Now()
		a, err := directPass(db, cfg.Seed, sims, t, lc)
		wall := time.Since(t0).Seconds()
		out.Attempted += cellCount(a)
		if err == nil {
			err = sameArtifact(ref, a)
		}
		if err != nil {
			out.Failed += cellCount(a)
			return 0, fmt.Errorf("direct pass %d: %w", i, err)
		}
		return wall, nil
	})
	if err != nil {
		out.Check = err
		return out, nil
	}
	k, b, err := run.medianPass()
	if err != nil {
		out.Check = err
		return out, nil
	}
	lc := counts[k]
	sw, err := breakdownOf(setupTrace)
	if err != nil {
		return out, err
	}
	var instrs int64
	for _, app := range fig7Suite() {
		instrs += app.TotalInstrs()
	}
	m := out.Metrics
	out.Digest = ref.digest()
	ex := fig7ExactOf(ref)
	m["cost_vs_opt"] = ex.CostVsOpt
	m["viol_pct"] = ex.ViolPct
	m["oracle.sweep_s"] = sw.Total["oracle.sweep"] / fig7Setups
	m["oracle.configs"] = float64(db.Entries())
	m["oracle.minstr_per_s"] = float64(instrs) * 64 / m["oracle.sweep_s"] / 1e6
	m["oracle.query_s"] = b.Self["oracle.query"]
	m["experiment.run_s"] = b.Total["experiment.run"]
	m["experiment.runs"] = float64(lc.runs)
	m["experiment.minstr_per_s"] = float64(lc.instrs) / m["experiment.run_s"] / 1e6
	m["experiment.self_s"] = b.Self["experiment.run"]
	m["experiment.reconfigs"] = float64(lc.reconfigs)
	m["experiment.stall_kcyc"] = float64(lc.stall) / 1e3
	m["alloc.decide_s"] = b.Self["alloc.decide"]
	m["alloc.decides"] = float64(lc.decide.N)
	if lc.decide.CashN > 0 {
		m["cashrt.decide_us"] = lc.decide.CashD.Seconds() * 1e6 / float64(lc.decide.CashN)
	}
	m["figs.other_s"] = b.Self["pass"] + b.Self["cell"]
	m["trace.overhead_pct"] = run.overheadPct()
	logf("fig7 seed %d: traced pass %.4fs = oracle %.4f + experiment %.4f + alloc %.4f + other %.4f",
		cfg.Seed, b.Roots, m["oracle.query_s"], m["experiment.self_s"], m["alloc.decide_s"], m["figs.other_s"])
	return out, tr.dump(traceFile(cfg, "fig7"))
}
