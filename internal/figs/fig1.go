package figs

import (
	"fmt"
	"io"

	"cash/internal/stats"
	"cash/internal/vcore"
)

// Fig1 regenerates Fig 1: the per-phase IPC contours of x264 over every
// virtual-core configuration (1–8 Slices × 64KB–8MB L2), the phase
// breakdown (Fig 1k), and the local-optima analysis the paper's
// motivation rests on — that optima move between phases and that many
// phases have local optima distinct from the global one. The whole
// figure is one supervised cell: its text is journaled, so a resumed
// suite replays it byte-for-byte.
func (h *Harness) Fig1() error {
	h.textCell("fig1/x264", "Figure 1", h.fig1Render)
	h.Save()
	return nil
}

// fig1Render writes the figure to w.
func (h *Harness) fig1Render(w io.Writer) error {
	app, err := h.app("x264")
	if err != nil {
		return err
	}
	h.characterize(app)
	printf := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	cols := make([]string, 0)
	for _, l2 := range vcore.L2Steps() {
		if l2 >= 1024 {
			cols = append(cols, fmt.Sprintf("%dM", l2/1024))
		} else {
			cols = append(cols, fmt.Sprintf("%dK", l2))
		}
	}
	rowLabel := func(i int) string { return fmt.Sprintf("%d slices", i+1) }

	type phaseSummary struct {
		name       string
		best       vcore.Config
		bestIPC    float64
		localCount int
	}
	summaries := make([]phaseSummary, 0, len(app.Phases))

	printf("Figure 1: x264 phase contours (IPC over configuration space)\n")
	printf("Shading: brighter = higher IPC, normalized per phase (white = optimum).\n\n")
	for pi, p := range app.Phases {
		grid := h.DB.Grid(app, pi)
		printf("(%c) Phase %d — %s\n", 'a'+pi, pi+1, p.Name)
		printf("%s\n", stats.RenderGrid(grid, rowLabel, cols))

		opt := h.DB.LocalOptima(app, pi, 0.01)
		best, bestIPC := vcore.Config{}, 0.0
		extra := 0
		for _, lo := range opt {
			if lo.Global {
				best, bestIPC = lo.Cfg, lo.IPC
			} else {
				extra++
			}
		}
		summaries = append(summaries, phaseSummary{
			name: p.Name, best: best, bestIPC: bestIPC, localCount: extra,
		})
		if extra > 0 {
			printf("local optima distinct from the global optimum:")
			for _, lo := range opt {
				if !lo.Global {
					printf(" %s(%.2f)", lo.Cfg, lo.IPC)
				}
			}
			printf("\n")
		}
		printf("\n")
	}

	printf("(k) Phase breakdown\n")
	printf("%-16s %-12s %-8s %s\n", "phase", "optimal cfg", "IPC", "extra local optima")
	withLocal := 0
	prev := vcore.Config{}
	moves := 0
	for i, s := range summaries {
		printf("%-16s %-12s %-8.3f %d\n", s.name, s.best.String(), s.bestIPC, s.localCount)
		if s.localCount > 0 {
			withLocal++
		}
		if i > 0 && s.best != prev {
			moves++
		}
		prev = s.best
	}
	printf("\nphases with local optima distinct from global: %d of %d\n", withLocal, len(summaries))
	printf("consecutive-phase optimum moves: %d of %d transitions\n", moves, len(summaries)-1)
	return nil
}
