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

	// The setup cell and the variant cells differ in type but run as one
	// supervised batch, so x264's trace stays live across all of them.
	units := []supervise.Unit{cell[ablationFrame]{key: "ablations/setup", run: func() (ablationFrame, error) {
		s, err := h.setupNamed("x264")
		return ablationFrame{Target: s.Target, OptCost: s.OptCost}, err
	}}.unit()}
	for _, v := range variants {
		units = append(units, cell[ablationRow]{key: "ablations/" + v.name, run: func() (ablationRow, error) {
			s, err := h.setupNamed("x264")
			if err != nil {
				return ablationRow{}, err
			}
			res, err := h.runShared("ablations", s.App, h.cash(s.Target, v.opts), experiment.Opts{
				Target:    s.Target,
				Model:     h.Model,
				Tolerance: 0.10,
				Policy:    v.steer,
				Sims:      h.sims(v.steer),
			})
			return ablationRow{
				Cost:          res.TotalCost,
				ViolationRate: res.ViolationRate,
				Reconfigs:     res.ReconfigCount,
			}, err
		}}.unit())
	}
	reps := h.runCells(units)

	frame := decode[ablationFrame](h, reps[0])
	if frame.failed != "" {
		// Every variant shares the setup; without it there is nothing
		// to normalise against.
		h.printf("Ablations on x264: %s\n", frame.failed)
		return nil
	}
	h.printf("Ablations on x264 (QoS target %.3f IPC, optimal cost $%.3g)\n\n", frame.val.Target, frame.val.OptCost)
	h.printf("%-28s %-10s %-8s %s\n", "variant", "cost/opt", "viol%", "reconfigs")
	for i, v := range variants {
		o := decode[ablationRow](h, reps[i+1])
		if o.failed != "" {
			h.printf("%-28s %s\n", v.name, o.failed)
			continue
		}
		line := fmt.Sprintf("%-28s %-10.2f %-8.1f %d",
			v.name, o.val.Cost/frame.val.OptCost, 100*o.val.ViolationRate, o.val.Reconfigs)
		h.printf("%s\n", strings.TrimRight(line, " "))
	}
	h.Save()
	return nil
}

func with(o cashrt.Options, f func(*cashrt.Options)) cashrt.Options {
	f(&o)
	return o
}
