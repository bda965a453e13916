package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"cash/internal/isim"
	"cash/internal/isim/calib"
	"cash/internal/oracle"
	"cash/internal/par"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// sweepScale sizes the calibration corpus for one cold interval-tier
// sweep of both apps over all 64 configurations per pass.
const sweepScale = 0.02

// sweepSetups is how many times a run builds the corpus; setup_s is
// the median.
const sweepSetups = 5000

// sweepCorpus is the scaled, validated calibration corpus.
func sweepCorpus() ([]workload.App, error) {
	apps := calib.Corpus()
	for i := range apps {
		apps[i] = apps[i].Scale(sweepScale)
		if err := apps[i].Validate(); err != nil {
			return nil, err
		}
	}
	return apps, nil
}

// sweepPass characterises every corpus app cold at the interval tier,
// serially, one span per app ("isim.fit", "isim.stream"), and returns
// a digest of every Char.
func sweepPass(apps []workload.App, seed uint64, tr *tracer, i int) (uint64, int, error) {
	db := oracle.NewDB()
	db.Tier = isim.TierInterval
	db.Seed = seed
	db.Pool = par.New(1)
	root := tr.begin("pass", 0, i+1)
	defer tr.end(root)
	for _, app := range apps {
		id := tr.begin(sweepSpan(app), root, i+1)
		db.CharacterizeApp(app)
		tr.end(id)
	}
	h := fnv.New64a()
	var buf [8]byte
	for _, app := range apps {
		for _, c := range vcore.Space() {
			ch := db.Characterize(app, c)
			for _, xs := range [][]float64{ch.Avg, ch.MinQ} {
				for _, x := range xs {
					if !(x > 0) || math.IsInf(x, 0) {
						return 0, 0, fmt.Errorf("%s on %s: IPC %v", app.Name, c, x)
					}
					bits := math.Float64bits(x)
					for b := range buf {
						buf[b] = byte(bits >> (8 * b))
					}
					h.Write(buf[:])
				}
			}
		}
	}
	return h.Sum64(), db.Entries(), nil
}

// sweepSpan names an app's span after the isim regime it exercises.
func sweepSpan(app workload.App) string {
	if app.Name == "calib-fit" {
		return "isim.fit"
	}
	return "isim.stream"
}

func runSweepInterval(cfg runConfig) (outcome, error) {
	serialSim()
	out := outcome{Metrics: map[string]float64{}}
	var setups []float64
	var apps []workload.App
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		a, err := sweepCorpus()
		if err != nil {
			return out, err
		}
		apps = a
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Every pass must produce the identical characterisation.
	var digest uint64
	var configs int
	pass := func(i int, tr *tracer) (wall, cpu float64, err error) {
		var d uint64
		var n int
		wall, cpu, err = measured(func() error {
			var err error
			d, n, err = sweepPass(apps, cfg.Seed, tr, i)
			return err
		})
		out.Attempted += 64 * len(apps)
		if err != nil {
			out.Failed += 64 * len(apps)
			return 0, 0, err
		}
		if i == 0 {
			digest, configs = d, n
		} else if d != digest || n != configs {
			return 0, 0, fmt.Errorf("pass %d digest %016x over %d configs, pass 0 %016x over %d", i, d, n, digest, configs)
		}
		return wall, cpu, nil
	}

	if !cfg.Trace {
		pt, err := timePasses(cfg.Seconds, 3, func(i int) (float64, float64, error) { return pass(i, nil) })
		if err != nil {
			out.Check = err
		}
		out.Metrics["setup_s"] = median(setups)
		out.Metrics["wall_s"] = median(pt.Wall)
		out.Metrics["cpu_s"] = median(pt.CPU)
		out.Digest = fmt.Sprintf("%016x", digest)
		logf("sweep-interval seed %d: %d passes, digest %016x over %d configs", cfg.Seed, len(pt.Wall), digest, configs)
		return out, nil
	}

	tr := newTracer()
	run, err := alternate(cfg.Seconds, 3, tr, func(i int, t *tracer) (float64, error) {
		wall, _, err := pass(i, t)
		return wall, err
	})
	if err != nil {
		out.Check = err
		return out, nil
	}
	_, b, err := run.medianPass()
	if err != nil {
		out.Check = err
		return out, nil
	}
	var instrs int64
	for _, app := range apps {
		instrs += app.TotalInstrs()
	}
	m := out.Metrics
	m["oracle.configs"] = float64(configs)
	m["isim.fit_s"] = b.Self["isim.fit"]
	m["isim.stream_s"] = b.Self["isim.stream"]
	m["isim.minstr_per_s"] = float64(instrs) * 64 / (m["isim.fit_s"] + m["isim.stream_s"]) / 1e6
	m["figs.other_s"] = b.Self["pass"]
	m["trace.overhead_pct"] = run.overheadPct()
	out.Digest = fmt.Sprintf("%016x", digest)
	logf("sweep-interval seed %d: digest %016x over %d configs", cfg.Seed, digest, configs)
	return out, tr.dump(traceFile(cfg, "sweep-interval"))
}
