package figs

import (
	"cmp"
	"errors"
	"slices"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/experiment"
	"cash/internal/qlearn"
	"cash/internal/ssim"
	"cash/internal/stats"
	"cash/internal/vcore"
)

// calibrateServerProvision finds the cheapest static configuration that
// keeps the apache latency target with almost no violations — the
// worst-case provision race-to-idle is granted.
func (h *Harness) calibrateServerProvision(mkOpts func() experiment.ServerOpts) (vcore.Config, error) {
	var lastErr error
	for _, cfg := range h.Model.CheapestFirst() {
		// Skip clearly-undersized configurations to bound calibration
		// time: a single request must at least fit the latency budget.
		if cfg.Slices < 2 {
			continue
		}
		opts := mkOpts()
		opts.Horizon /= 4
		res, err := experiment.RunServer(alloc.Static{Cfg: cfg}, opts)
		if err != nil {
			lastErr = err
			continue
		}
		if res.ViolationRate < 0.02 {
			return cfg, nil
		}
	}
	if lastErr != nil {
		return vcore.Config{}, lastErr
	}
	return vcore.Max(), nil
}

// seriesRow is one policy's supervised-cell payload for Fig 2/8.
type seriesRow struct {
	Name          string
	Target        float64
	OptCost       float64
	TotalCost     float64
	ViolationRate float64
	TotalCycles   int64
	// Cost and Perf are the resampled display series.
	Cost []float64
	Perf []float64
}

// timeSeries renders the cost-rate and normalized-performance series of
// several allocators on one application — the machinery behind Fig 2
// (Optimal vs Race-to-Idle vs ConvexOptimization) and Fig 8 (the same
// with CASH). Each (app, policy) pair is one supervised cell; a failed
// policy degrades to a FAILED line while the others still render.
// prefix names the artifact to the experiment memo.
func (h *Harness) timeSeries(prefix, appName, title string, policyKeys []string,
	mk func(s appSetup, key string) (policy, error), width int) error {
	var cells []cell[seriesRow]
	for _, key := range policyKeys {
		cells = append(cells, cell[seriesRow]{key: prefix + "/" + appName + "/" + key, run: func() (seriesRow, error) {
			s, err := h.setupNamed(appName)
			if err != nil {
				return seriesRow{}, err
			}
			p, err := mk(s, key)
			if err != nil {
				return seriesRow{}, err
			}
			res, err := h.run(prefix, s, p)
			if err != nil {
				return seriesRow{}, err
			}
			cr := make([]float64, len(res.Samples))
			pf := make([]float64, len(res.Samples))
			for i, sm := range res.Samples {
				cr[i] = sm.CostRate
				pf[i] = sm.QoS / s.Target
			}
			return seriesRow{
				Name:          p.Name(),
				Target:        s.Target,
				OptCost:       s.OptCost,
				TotalCost:     res.TotalCost,
				ViolationRate: res.ViolationRate,
				TotalCycles:   res.TotalCycles,
				Cost:          stats.Resample(cr, width),
				Perf:          stats.Resample(pf, width),
			}, nil
		}})
	}
	rows := runTyped(h, cells)

	if first := slices.IndexFunc(rows, func(o outcome[seriesRow]) bool { return o.failed == "" }); first < 0 {
		h.printf("%s\n", title)
	} else {
		h.printf("%s (QoS target %.3f IPC)\n\n", title, rows[first].val.Target)
	}
	var names []string
	var costSeries, perfSeries [][]float64
	for i, o := range rows {
		if o.failed != "" {
			h.printf("# %-20s %s\n", policyKeys[i], o.failed)
			continue
		}
		row := o.val
		names = append(names, row.Name)
		costSeries = append(costSeries, row.Cost)
		perfSeries = append(perfSeries, row.Perf)
		h.printf("# %-20s total=$%.3g (%.2fx optimal)  violations=%.1f%%  cycles=%.0fM\n",
			row.Name, row.TotalCost, row.TotalCost/row.OptCost,
			100*row.ViolationRate, float64(row.TotalCycles)/1e6)
	}
	if len(names) == 0 {
		h.Save()
		return nil
	}
	h.printf("\nCost Rate ($/hour) vs time:\n%s\n",
		stats.RenderSeries(names, costSeries, 12))
	h.printf("Normalized Performance (1.0 = QoS target) vs time:\n%s\n",
		stats.RenderSeries(names, perfSeries, 12))
	h.Save()
	return nil
}

// Fig2 regenerates the motivational comparison of §II-B: optimal,
// race-to-idle and convex-optimization resource allocation on x264.
func (h *Harness) Fig2() error {
	return h.timeSeries("fig2", "x264",
		"Figure 2: fine-grain resource allocators on x264",
		[]string{"Optimal", "RaceToIdle", "ConvexOptimization"},
		func(s appSetup, key string) (policy, error) {
			switch key {
			case "Optimal":
				return oraclePolicy(s.Oracle), nil
			case "RaceToIdle":
				return raceToIdle(s.WorstCase), nil
			default:
				return h.convex(s)
			}
		}, 96)
}

// Fig8 regenerates the x264 time series of §VI-D: convex optimization,
// race-to-idle and CASH.
func (h *Harness) Fig8() error {
	return h.timeSeries("fig8", "x264",
		"Figure 8: time series for x264",
		[]string{"ConvexOptimization", "RaceToIdle", "CASH"},
		func(s appSetup, key string) (policy, error) {
			switch key {
			case "ConvexOptimization":
				return h.convex(s)
			case "RaceToIdle":
				return raceToIdle(s.WorstCase), nil
			default:
				return h.cashDefault(s.Target), nil
			}
		}, 96)
}

// serverRow is one policy's supervised-cell payload for Fig 9.
type serverRow struct {
	Name          string
	TotalCost     float64
	MeanLatency   float64
	ViolationRate float64
	Served        int64
	// Rate, Cost and Lat are the resampled display series.
	Rate []float64
	Cost []float64
	Lat  []float64
}

// Fig9 regenerates the apache experiment of §VI-D: an oscillating
// open-loop request stream with a per-request latency QoS (110K cycles).
// The race-to-idle provision calibration and each policy run are
// separate supervised cells; if calibration fails, the race-to-idle
// cell fails with a dependency error and the adaptive policies still
// render.
func (h *Harness) Fig9() error {
	h.printf("Figure 9: apache under an oscillating request load (QoS: 110K cycles/request)\n\n")

	serverOpts := func() experiment.ServerOpts {
		o := experiment.ServerOpts{TargetLatencyCycles: 110_000}
		o.Opts.Tolerance = 0.10
		o.Opts.Model = h.Model
		o.Opts.Sims = h.sims(ssim.SteerEarliest)
		if h.Scale != 1.0 {
			o.Horizon = int64(240_000_000 * h.Scale)
		}
		return o
	}

	// The latency-QoS controllers regulate q = targetLat/latency toward
	// 1.0. The race-to-idle server provisions the cheapest configuration
	// that holds the latency target at peak load, found by calibration
	// (the a-priori knowledge the paper grants race-to-idle).
	cal := runTyped(h, []cell[vcore.Config]{{key: "fig9/calibrate", run: func() (vcore.Config, error) {
		return h.calibrateServerProvision(serverOpts)
	}}})[0]
	h.printf("# race-to-idle provision: %s\n", cmp.Or(cal.failed, cal.val.String()))

	// Server QoS is a latency ratio, not a throughput: the batch
	// runtime's race-to-obligation plans are meaningless here, so the
	// CASH server variant uses whole-quantum configurations with the
	// demand-escalation guard and extra control headroom.
	policyKeys := []string{"RaceToIdle", "ConvexOptimization", "CASH"}
	mk := func(key string) (alloc.Allocator, error) {
		switch key {
		case "RaceToIdle":
			if cal.failed != "" {
				return nil, errors.New("dependency: provision calibration failed")
			}
			return alloc.RaceToIdle{WorstCase: cal.val, TargetQoS: 1.0}, nil
		case "ConvexOptimization":
			return cashrt.NewConvex(1.0, h.Model, qlearn.Prior)
		default:
			return cashrt.MustNew(1.0, h.Model, cashrt.Options{
				Seed: h.Seed, SingleConfig: true, GuardStyle: cashrt.GuardCommitted, Margin: 0.15,
			}), nil
		}
	}
	var cells []cell[serverRow]
	for _, key := range policyKeys {
		cells = append(cells, cell[serverRow]{key: "fig9/apache/" + key, run: func() (serverRow, error) {
			policy, err := mk(key)
			if err != nil {
				return serverRow{}, err
			}
			res, err := experiment.RunServer(policy, serverOpts())
			if err != nil {
				return serverRow{}, err
			}
			rr := make([]float64, len(res.Samples))
			cr := make([]float64, len(res.Samples))
			nl := make([]float64, len(res.Samples))
			for i, sm := range res.Samples {
				rr[i] = sm.RequestRate
				cr[i] = sm.CostRate
				nl[i] = sm.NormLatency
			}
			return serverRow{
				Name:          policy.Name(),
				TotalCost:     res.TotalCost,
				MeanLatency:   res.MeanLatency,
				ViolationRate: res.ViolationRate,
				Served:        res.Served,
				Rate:          stats.Resample(rr, 96),
				Cost:          stats.Resample(cr, 96),
				Lat:           stats.Resample(nl, 96),
			}, nil
		}})
	}

	var names []string
	var rateS, costS, latS [][]float64
	for i, o := range runTyped(h, cells) {
		if o.failed != "" {
			h.printf("# %-20s %s\n", policyKeys[i], o.failed)
			continue
		}
		row := o.val
		names = append(names, row.Name)
		rateS = append(rateS, row.Rate)
		costS = append(costS, row.Cost)
		latS = append(latS, row.Lat)
		h.printf("# %-20s total=$%.3g  mean latency=%.0f cycles  violations=%.1f%%  served=%d\n",
			row.Name, row.TotalCost, row.MeanLatency, 100*row.ViolationRate, row.Served)
	}
	if len(names) == 0 {
		h.Save()
		return nil
	}
	h.printf("\nRequest Rate (reqs per Mcycle) vs time:\n%s\n",
		stats.RenderSeries(names[:1], rateS[:1], 8))
	h.printf("Cost Rate ($/hour) vs time:\n%s\n", stats.RenderSeries(names, costS, 12))
	h.printf("Normalized Request Latency (1.0 = target) vs time:\n%s\n",
		stats.RenderSeries(names, latS, 12))
	h.Save()
	return nil
}
