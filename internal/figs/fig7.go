package figs

import (
	"fmt"
	"strings"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/stats"
)

// AppResult is one (application, allocator) outcome for the bar charts.
type AppResult struct {
	Cost          float64
	ViolationRate float64
}

// Fig7Result collects Fig 7's full data: per-app cost and violation
// rate for Optimal, ConvexOptimization, RaceToIdle and CASH. Cells that
// failed under supervision are simply absent from Data.
type Fig7Result struct {
	Apps       []string
	Allocators []string
	// Data[allocator][app]
	Data map[string]map[string]AppResult
}

// Geomeans returns the geometric-mean cost per allocator (Table III's
// first column), over the apps whose cell completed.
func (r Fig7Result) Geomeans() map[string]float64 {
	out := make(map[string]float64, len(r.Allocators))
	for _, a := range r.Allocators {
		vals := make([]float64, 0, len(r.Apps))
		for _, app := range r.Apps {
			if v, ok := r.Data[a][app]; ok {
				vals = append(vals, v.Cost)
			}
		}
		out[a] = stats.Geomean(vals)
	}
	return out
}

// fig7Allocators is the comparison set of §VI-C in figure order.
var fig7Allocators = []string{"Optimal", "ConvexOptimization", "RaceToIdle", "CASH"}

// appPolicyGrid runs one supervised cell per (app, allocator) pair and
// folds the results into a Fig7Result. build maps an allocator name to
// its policy for a given setup ("Optimal" is analytic: a policy with a
// nil allocator reports s.OptCost directly). A failed cell is absent
// from Data; its label is in the returned map, keyed "app/allocator".
// prefix names the artifact to the experiment memo.
func (h *Harness) appPolicyGrid(prefix string, allocators []string,
	build func(s appSetup, allocator string) (policy, error)) (Fig7Result, map[string]string) {
	res := Fig7Result{Allocators: allocators, Data: make(map[string]map[string]AppResult)}
	for _, a := range allocators {
		res.Data[a] = make(map[string]AppResult)
	}
	var cells []cell[AppResult]
	for _, app := range h.apps() {
		res.Apps = append(res.Apps, app.Name)
		for _, a := range allocators {
			cells = append(cells, cell[AppResult]{key: prefix + "/" + app.Name + "/" + a, run: func() (AppResult, error) {
				s, err := h.setup(app)
				if err != nil {
					return AppResult{}, err
				}
				p, err := build(s, a)
				if err != nil || p.Allocator == nil { // nil: the analytic optimum
					return AppResult{Cost: s.OptCost}, err
				}
				out, err := h.run(prefix, s, p)
				return AppResult{Cost: out.TotalCost, ViolationRate: out.ViolationRate}, err
			}})
		}
	}
	failed := make(map[string]string)
	for i, o := range runTyped(h, cells) {
		app, a := res.Apps[i/len(allocators)], allocators[i%len(allocators)]
		if o.failed != "" {
			failed[app+"/"+a] = o.failed
			continue
		}
		res.Data[a][app] = o.val
	}
	return res, failed
}

// cellColumn renders one report column: the value when the cell
// completed, FAILED(reason) when it did not.
func cellColumn(res Fig7Result, failed map[string]string,
	allocator, app string, format func(AppResult) string) string {
	if label, ok := failed[app+"/"+allocator]; ok {
		return label
	}
	return format(res.Data[allocator][app])
}

// Fig7 regenerates Fig 7: total cost and QoS violations for the whole
// 13-application suite under the four fine-grain resource allocators.
// The Optimal row is the oracle's analytic minimum (zero violations by
// construction, §V-C).
func (h *Harness) Fig7() (Fig7Result, error) {
	res, failed := h.appPolicyGrid("fig7", fig7Allocators,
		func(s appSetup, allocator string) (policy, error) {
			switch allocator {
			case "Optimal":
				return policy{}, nil
			case "ConvexOptimization":
				return h.convex(s)
			case "RaceToIdle":
				return raceToIdle(s.WorstCase), nil
			default: // CASH
				return h.cashDefault(s.Target), nil
			}
		})

	h.printf("Figure 7: cost and QoS violations per application (lower is better)\n\n")
	h.printf("%-12s %-10s | %-22s | %-22s | %-22s\n",
		"app", "Optimal $", "Convex $ (viol%)", "RaceToIdle $ (viol%)", "CASH $ (viol%)")
	optCol := func(v AppResult) string { return fmt.Sprintf("%-10.3g", v.Cost) }
	polCol := func(v AppResult) string {
		return fmt.Sprintf("%8.3g (%5.1f%%)     ", v.Cost, 100*v.ViolationRate)
	}
	for _, app := range res.Apps {
		row := fmt.Sprintf("%-12s %s | %s | %s | %s",
			app,
			cellColumn(res, failed, "Optimal", app, optCol),
			cellColumn(res, failed, "ConvexOptimization", app, polCol),
			cellColumn(res, failed, "RaceToIdle", app, polCol),
			cellColumn(res, failed, "CASH", app, polCol))
		h.printf("%s\n", strings.TrimRight(row, " "))
	}
	h.Save()

	gm := res.Geomeans()
	h.printf("\n%-12s %-10.3g | %8.3g               | %8.3g               | %8.3g\n",
		"geomean", gm["Optimal"], gm["ConvexOptimization"], gm["RaceToIdle"], gm["CASH"])
	return res, nil
}

// Table3 regenerates Table III: geometric-mean cost and ratio to
// optimal per allocator.
func (h *Harness) Table3(res Fig7Result) {
	gm := res.Geomeans()
	opt := gm["Optimal"]
	h.printf("\nTable III: cost comparison for different resource allocators\n")
	h.printf("%-22s %-16s %s\n", "", "Geometric Mean", "Ratio to Optimal")
	order := []string{"Optimal", "ConvexOptimization", "RaceToIdle", "CASH"}
	for _, a := range order {
		ratio := 0.0
		if opt > 0 {
			ratio = gm[a] / opt
		}
		h.printf("%-22s $%-15.4g %.2f\n", a, gm[a], ratio)
	}
}

// fig10Allocators is Fig 10's comparison set in figure order.
var fig10Allocators = []string{"CoarseGrain,race", "CoarseGrain,adaptive", "FineGrain,race", "CASH"}

// Fig10 regenerates Fig 10 (§VI-E): the 13 applications on combinations
// of coarse- and fine-grain architectures with race-to-idle and
// adaptive management. The coarse-grain machine offers only a big core
// (8 Slices, 4MB) and a little core (1 Slice, 128KB).
func (h *Harness) Fig10() (Fig7Result, error) {
	big, _ := cashrt.BigLittle()
	res, failed := h.appPolicyGrid("fig10", fig10Allocators,
		func(s appSetup, allocator string) (policy, error) {
			switch allocator {
			// Coarse-grain race-to-idle cannot change core type: it
			// holds the big core and idles (§VI-E).
			case "CoarseGrain,race":
				return raceToIdle(alloc.RaceToIdle{WorstCase: big, TargetQoS: s.Target}), nil
			case "CoarseGrain,adaptive":
				return h.coarseAdaptive(s.Target)
			case "FineGrain,race":
				return raceToIdle(s.WorstCase), nil
			default: // CASH
				return h.cashDefault(s.Target), nil
			}
		})

	h.printf("Figure 10: coarse vs fine grain architectures and allocators (lower is better)\n\n")
	h.printf("%-12s | %-20s | %-20s | %-20s | %-20s\n",
		"app", "Coarse,race", "Coarse,adapt", "Fine,race", "CASH")
	col := func(v AppResult) string {
		return fmt.Sprintf("%8.3g (%5.1f%%)  ", v.Cost, 100*v.ViolationRate)
	}
	for _, app := range res.Apps {
		row := fmt.Sprintf("%-12s | %s | %s | %s | %s",
			app,
			cellColumn(res, failed, "CoarseGrain,race", app, col),
			cellColumn(res, failed, "CoarseGrain,adaptive", app, col),
			cellColumn(res, failed, "FineGrain,race", app, col),
			cellColumn(res, failed, "CASH", app, col))
		h.printf("%s\n", strings.TrimRight(row, " "))
	}
	h.Save()

	gm := res.Geomeans()
	h.printf("\n%-12s | %8.3g            | %8.3g            | %8.3g            | %8.3g\n",
		"geomean", gm["CoarseGrain,race"], gm["CoarseGrain,adaptive"], gm["FineGrain,race"], gm["CASH"])
	if cg := gm["CoarseGrain,race"]; cg > 0 {
		h.printf("CASH saving vs CoarseGrain,race: %.0f%%\n", 100*(1-gm["CASH"]/cg))
	}
	return res, nil
}
