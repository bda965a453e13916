package figs

import (
	"fmt"
	"strings"

	"cash/internal/cashrt"
	"cash/internal/experiment"
	"cash/internal/ssim"
	"cash/internal/supervise"
)

// ablationRow is one variant's supervised-cell payload.
type ablationRow struct {
	Cost          float64
	ViolationRate float64
	Reconfigs     int64
}

// ablationFrame is the shared setup cell's payload.
type ablationFrame struct {
	Target  float64
	OptCost float64
}

// Ablations quantifies the design choices DESIGN.md calls out by
// re-running the x264 experiment with individual mechanisms disabled or
// replaced. Each row reports cost relative to the oracle optimum and
// the QoS violation rate. Every variant is one supervised cell, so a
// panicking or hanging variant degrades to a FAILED row.
func (h *Harness) Ablations() error {
	type variant struct {
		name  string
		opts  cashrt.Options
		steer ssim.SteeringPolicy
	}
	base := cashrt.Options{Seed: h.Seed}
	variants := []variant{
		{"CASH (default)", base, ssim.SteerEarliest},
		{"no learning (frozen prior)", with(base, func(o *cashrt.Options) { o.DisableLearning = true }), ssim.SteerEarliest},
		{"no Kalman (fixed base)", with(base, func(o *cashrt.Options) { o.DisableKalman = true }), ssim.SteerEarliest},
		{"single-config quanta", with(base, func(o *cashrt.Options) { o.SingleConfig = true }), ssim.SteerEarliest},
		{"no snap updates", with(base, func(o *cashrt.Options) { o.NoSnap = true }), ssim.SteerEarliest},
		{"rescale both directions", with(base, func(o *cashrt.Options) { o.RescaleMode = 1 }), ssim.SteerEarliest},
		{"rescale off", with(base, func(o *cashrt.Options) { o.RescaleMode = 2 }), ssim.SteerEarliest},
		{"committed QoS guard", with(base, func(o *cashrt.Options) { o.GuardStyle = cashrt.GuardCommitted }), ssim.SteerEarliest},
		{"idle-tail probes (every 3)", with(base, func(o *cashrt.Options) { o.ProbePeriod = 3 }), ssim.SteerEarliest},
		{"round-robin steering", base, ssim.SteerRoundRobin},
	}

	units := []supervise.Unit{{Key: "ablations/setup", Run: func() (any, error) {
		app, err := h.app("x264")
		if err != nil {
			return nil, err
		}
		s, err := h.setup(app)
		if err != nil {
			return nil, err
		}
		return ablationFrame{Target: s.Target, OptCost: s.OptCost}, nil
	}}}
	for _, v := range variants {
		v := v
		units = append(units, supervise.Unit{
			Key: "ablations/" + v.name,
			Run: func() (any, error) {
				app, err := h.app("x264")
				if err != nil {
					return nil, err
				}
				s, err := h.setup(app)
				if err != nil {
					return nil, err
				}
				rt := cashrt.MustNew(s.Target, h.Model, v.opts)
				res, err := h.runBatch(s.App, rt, experiment.Opts{
					Target:    s.Target,
					Model:     h.Model,
					Tolerance: 0.10,
					Policy:    v.steer,
					Sims:      h.sims(v.steer),
				})
				if err != nil {
					return nil, err
				}
				return ablationRow{
					Cost:          res.TotalCost,
					ViolationRate: res.ViolationRate,
					Reconfigs:     res.ReconfigCount,
				}, nil
			},
		})
	}
	reps := h.runCells(units)

	if !reps[0].OK() {
		// Every variant shares the setup; without it there is nothing
		// to normalise against.
		h.printf("Ablations on x264: %s\n", failureLabel(reps[0]))
		return nil
	}
	var frame ablationFrame
	if err := reps[0].Decode(&frame); err != nil {
		return err
	}
	h.printf("Ablations on x264 (QoS target %.3f IPC, optimal cost $%.3g)\n\n", frame.Target, frame.OptCost)
	h.printf("%-28s %-10s %-8s %s\n", "variant", "cost/opt", "viol%", "reconfigs")
	for i, v := range variants {
		rep := reps[i+1]
		if !rep.OK() {
			h.printf("%-28s %s\n", v.name, failureLabel(rep))
			continue
		}
		var row ablationRow
		if err := rep.Decode(&row); err != nil {
			return err
		}
		line := fmt.Sprintf("%-28s %-10.2f %-8.1f %d",
			v.name, row.Cost/frame.OptCost, 100*row.ViolationRate, row.Reconfigs)
		h.printf("%s\n", strings.TrimRight(line, " "))
	}
	h.Save()
	return nil
}

func with(o cashrt.Options, f func(*cashrt.Options)) cashrt.Options {
	f(&o)
	return o
}
