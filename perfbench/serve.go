package main

import (
	"fmt"
	"time"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/experiment"
	"cash/internal/slice"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// Serving parameters: the tail study's deadline variant (64-deep queue,
// deadline shedding, 110K-cycle budget) on the flash-crowd stream.
const (
	serveHorizon   = 40_000_000
	serveQueueCap  = 64
	serveTargetLat = 110_000
	serveSetups    = 200
)

// serveSetup is everything a serving pass needs before it starts.
type serveSetup struct {
	stream workload.ArrivalStream
	policy *cashrt.Runtime
	sims   *ssim.SimPool
}

// newServeSetup builds the guarded CASH server runtime, the seeded
// arrival stream and a simulator pool already holding the simulator
// the run starts on.
func newServeSetup(seed uint64) (serveSetup, error) {
	stream, err := workload.StreamByName("flash", seed)
	if err != nil {
		return serveSetup{}, err
	}
	if err := stream.Validate(); err != nil {
		return serveSetup{}, err
	}
	policy, err := cashrt.New(1.0, cost.Default(), cashrt.Options{
		Seed: seed, SingleConfig: true,
		GuardStyle: cashrt.GuardCommitted, Margin: 0.15,
		Guardrails: true,
	})
	if err != nil {
		return serveSetup{}, err
	}
	sims := ssim.NewSimPool(slice.DefaultConfig(), ssim.SteerEarliest)
	sim, err := sims.Acquire(vcore.Min())
	if err != nil {
		return serveSetup{}, err
	}
	sims.Release(sim)
	return serveSetup{stream: stream, policy: policy, sims: sims}, nil
}

// serveExact are a serving pass's modelled outcomes.
type serveExact struct {
	Issued, Served, Shed, TimedOut int64
	MaxQueue, Starved              int
	P99, SLOMin                    float64
	TailTrips                      int64
}

func (e serveExact) shedPct() float64 {
	return 100 * float64(e.Shed+e.TimedOut) / float64(e.Issued)
}

// servePass runs one open-loop serving run on a fresh setup.
func servePass(s serveSetup, seed uint64, st *decideStats) (serveExact, error) {
	opts := experiment.ServerOpts{
		Arrivals:            s.stream,
		TargetLatencyCycles: serveTargetLat,
		Horizon:             serveHorizon,
		QueueCap:            serveQueueCap,
		Shed:                experiment.ShedDeadline,
	}
	opts.Opts.Tolerance = 0.10
	opts.Opts.Model = cost.Default()
	opts.Opts.Seed = seed
	opts.Opts.Sims = s.sims
	var policy alloc.Allocator = s.policy
	if st != nil {
		policy = timed(policy, st)
	}
	res, err := experiment.RunServer(policy, opts)
	if err != nil {
		return serveExact{}, err
	}
	e := serveExact{
		Issued: s.stream.Issued(), Served: res.Served, Shed: res.Shed, TimedOut: res.TimedOut,
		MaxQueue: res.MaxQueueDepth, Starved: res.StarvedSamples,
		P99: res.P99, SLOMin: res.SLOViolationMinutes, TailTrips: res.Guard.TailTrips,
	}
	if e.Served+e.Shed+e.TimedOut > e.Issued {
		return e, fmt.Errorf("served %d + shed %d + timed out %d exceed issued %d", e.Served, e.Shed, e.TimedOut, e.Issued)
	}
	if e.MaxQueue > serveQueueCap {
		return e, fmt.Errorf("queue reached %d, over its cap %d", e.MaxQueue, serveQueueCap)
	}
	if e.Served == 0 {
		return e, fmt.Errorf("served nothing")
	}
	return e, nil
}

// arrivalsAlone draws the pass's arrival stream up to the horizon on
// its own, outside the engine.
func arrivalsAlone(seed uint64) (int64, time.Duration, error) {
	stream, err := workload.StreamByName("flash", seed)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	stream.Reset()
	var n int64
	for stream.NextArrival() <= serveHorizon {
		n++
	}
	return n, time.Since(t0), nil
}

func runServeFlash(cfg runConfig) (outcome, error) {
	serialSim()
	out := outcome{Metrics: map[string]float64{}}

	// Set-up takes milliseconds, so it is repeated and its median kept.
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		if _, err := newServeSetup(cfg.Seed); err != nil {
			return out, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	// Each pass gets a fresh set-up, outside its timing: a runtime
	// learns, so reusing one would make every pass different.
	var ref serveExact
	pass := func(i int, st *decideStats, tr *tracer) (wall, cpu float64, err error) {
		s, err := newServeSetup(cfg.Seed)
		if err != nil {
			return 0, 0, err
		}
		out.Attempted++
		var e serveExact
		wall, cpu, err = measured(func() error {
			root := tr.begin("pass", 0, i+1)
			defer tr.end(root)
			run := tr.begin("experiment.server", root, i+1)
			defer tr.end(run)
			if st != nil {
				st.tr, st.parent, st.group = tr, run, i+1
			}
			e, err = servePass(s, cfg.Seed, st)
			return err
		})
		if err != nil {
			out.Failed++
			return 0, 0, err
		}
		if i == 0 {
			ref = e
		} else if e != ref {
			return 0, 0, fmt.Errorf("pass %d outcome %+v differs from pass 0 %+v", i, e, ref)
		}
		return wall, cpu, nil
	}

	if !cfg.Trace {
		pt, err := timePasses(cfg.Seconds, 3, func(i int) (float64, float64, error) { return pass(i, nil, nil) })
		if err != nil {
			out.Check = err
		}
		out.Metrics["setup_s"] = median(setups)
		out.Metrics["wall_s"] = median(pt.Wall)
		out.Metrics["cpu_s"] = median(pt.CPU)
		out.Digest = fmt.Sprintf("%+v", ref)
		logf("serve-flash seed %d: %d passes, outcome %s", cfg.Seed, len(pt.Wall), out.Digest)
		return out, nil
	}

	tr := newTracer()
	decides := map[int]*decideStats{}
	run, err := alternate(cfg.Seconds, 3, tr, func(i int, t *tracer) (float64, error) {
		var st *decideStats
		if t != nil {
			st = &decideStats{}
			decides[i] = st
		}
		wall, _, err := pass(i, st, t)
		return wall, err
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
	st := decides[k]
	arrivals, arrivalsD, err := arrivalsAlone(cfg.Seed)
	if err != nil {
		return out, err
	}

	m := out.Metrics
	m["lat_p99_kcyc"] = ref.P99 / 1e3
	m["slo_viol_min"] = ref.SLOMin
	m["shed_pct"] = ref.shedPct()
	m["experiment.server_s"] = b.Self["experiment.server"]
	m["experiment.served"] = float64(ref.Served)
	m["experiment.shed"] = float64(ref.Shed)
	m["experiment.timed_out"] = float64(ref.TimedOut)
	m["experiment.max_queue"] = float64(ref.MaxQueue)
	m["experiment.starved"] = float64(ref.Starved)
	m["experiment.runs"] = 1
	m["alloc.decide_s"] = b.Self["alloc.decide"]
	m["alloc.decides"] = float64(st.N)
	if st.CashN > 0 {
		m["cashrt.decide_us"] = st.CashD.Seconds() * 1e6 / float64(st.CashN)
	}
	m["guard.tail_trips"] = float64(ref.TailTrips)
	m["workload.arrivals"] = float64(arrivals)
	m["workload.arrivals_s"] = arrivalsD.Seconds()
	m["figs.other_s"] = b.Self["pass"]
	m["trace.overhead_pct"] = run.overheadPct()
	out.Digest = fmt.Sprintf("%+v", ref)
	logf("serve-flash seed %d: outcome %s", cfg.Seed, out.Digest)
	return out, tr.dump(traceFile(cfg, "serve-flash"))
}
