package figs

import (
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/experiment"
	"cash/internal/ssim"
	"cash/internal/stats"
	"cash/internal/workload"
)

// tailRow is one queue-policy variant's supervised-cell payload for the
// tail-latency study.
type tailRow struct {
	Name                string
	P50, P95, P99, P999 float64
	MeanLatency         float64
	ViolationRate       float64
	SLOMinutes          float64
	TailViolations      int
	Starved             int
	Served              int64
	Shed                int64
	TimedOut            int64
	MaxQueueDepth       int
	TailTrips           int64
	TotalCost           float64
	// NormTail is the resampled per-quantum p99-over-target series.
	NormTail []float64
}

// tailVariant is one serving configuration under study.
type tailVariant struct {
	key      string
	queueCap int
	shed     experiment.ShedPolicy
}

// TailStudy runs the open-loop serving study beyond Fig 9's means: the
// CASH server allocator (guardrails armed) against a bursty arrival
// stream, compared across queue policies — unbounded (the pre-shedding
// behaviour), bounded drop-newest, and bounded deadline shedding. Each
// run reports full tail quantiles (p50/p95/p99/p999), SLO-violation
// minutes, shed/timeout counts and the tail breaker's trip counters —
// the serving metrics mean-based monitoring misses, because a saturated
// quantum completes few or no requests and so contributes little or
// nothing to any mean.
func (h *Harness) TailStudy() error {
	streamName := h.Stream
	if streamName == "" {
		streamName = "flash"
	}
	queueCap := h.QueueCap
	if queueCap == 0 {
		queueCap = 64
	}
	const targetLat = 110_000
	tailTarget := h.TailTarget
	if tailTarget == 0 {
		tailTarget = targetLat
	}

	h.printf("Tail-latency study: open-loop serving under %q arrivals (QoS: %dK cycles/request, tail SLO: p99 ≤ %dK)\n\n",
		streamName, targetLat/1000, tailTarget/1000)

	variants := []tailVariant{
		{key: "unbounded", queueCap: -1, shed: experiment.ShedDropNewest},
		{key: "drop-newest", queueCap: queueCap, shed: experiment.ShedDropNewest},
		{key: "deadline", queueCap: queueCap, shed: experiment.ShedDeadline},
	}
	if h.Shed != "" {
		pol, err := experiment.ShedPolicyByName(h.Shed)
		if err != nil {
			return err
		}
		variants = []tailVariant{
			variants[0],
			{key: pol.String(), queueCap: queueCap, shed: pol},
		}
	}

	var cells []cell[tailRow]
	for _, v := range variants {
		cells = append(cells, cell[tailRow]{
			key: "tail/" + streamName + "/" + v.key,
			run: func() (tailRow, error) {
				stream, err := workload.StreamByName(streamName, h.Seed)
				if err != nil {
					return tailRow{}, err
				}
				opts := experiment.ServerOpts{
					Arrivals:            stream,
					TargetLatencyCycles: targetLat,
					TailTargetCycles:    tailTarget,
					QueueCap:            v.queueCap,
					Shed:                v.shed,
				}
				opts.Opts.Tolerance = 0.10
				opts.Opts.Sims = h.sims(ssim.SteerEarliest)
				if h.Scale != 1.0 {
					opts.Horizon = int64(240_000_000 * h.Scale)
				}
				policy := cashrt.MustNew(1.0, cost.Default(), cashrt.Options{
					Seed: h.Seed, SingleConfig: true,
					GuardStyle: cashrt.GuardCommitted, Margin: 0.15,
					Guardrails: true,
				})
				res, err := experiment.RunServer(policy, opts)
				if err != nil {
					return tailRow{}, err
				}
				nt := make([]float64, len(res.Samples))
				for i, sm := range res.Samples {
					nt[i] = sm.P99 / float64(tailTarget)
				}
				return tailRow{
					Name:           v.key,
					P50:            res.P50,
					P95:            res.P95,
					P99:            res.P99,
					P999:           res.P999,
					MeanLatency:    res.MeanLatency,
					ViolationRate:  res.ViolationRate,
					SLOMinutes:     res.SLOViolationMinutes,
					TailViolations: res.TailViolations,
					Starved:        res.StarvedSamples,
					Served:         res.Served,
					Shed:           res.Shed,
					TimedOut:       res.TimedOut,
					MaxQueueDepth:  res.MaxQueueDepth,
					TailTrips:      res.Guard.TailTrips,
					TotalCost:      res.TotalCost,
					NormTail:       stats.Resample(nt, 96),
				}, nil
			},
		})
	}
	h.printf("%-12s %8s %8s %8s %8s  %9s %7s %9s %7s %6s %6s\n",
		"queue", "p50", "p95", "p99", "p999", "SLO-sec", "shed", "timedout", "starved", "depth", "trips")
	var names []string
	var tailS [][]float64
	for i, o := range runTyped(h, cells) {
		if o.failed != "" {
			h.printf("# %-12s %s\n", variants[i].key, o.failed)
			continue
		}
		row := o.val
		names = append(names, row.Name)
		tailS = append(tailS, row.NormTail)
		h.printf("%-12s %7.0fK %7.0fK %7.0fK %7.0fK  %9.4f %7d %9d %7d %6d %6d\n",
			row.Name, row.P50/1000, row.P95/1000, row.P99/1000, row.P999/1000,
			row.SLOMinutes*60, row.Shed, row.TimedOut, row.Starved, row.MaxQueueDepth, row.TailTrips)
		h.printf("# %-12s served=%d  mean=%.0f cycles  mean-violations=%.1f%%  total=$%.3g\n",
			"", row.Served, row.MeanLatency, 100*row.ViolationRate, row.TotalCost)
	}
	if len(names) > 0 {
		h.printf("\nQuantum p99 latency (1.0 = tail SLO) vs time:\n%s\n",
			stats.RenderSeries(names, tailS, 12))
	}
	h.Save()
	return nil
}
