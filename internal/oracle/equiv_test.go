package oracle

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cash/internal/cost"
	"cash/internal/isim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// Reference implementations: the oracle queries as they were written
// before they read the per-app table, one Characterize call — and one
// full key derivation — per (configuration, phase) visited. The table
// queries must reproduce them bit for bit, errors included.

func refQoSTarget(db *DB, app workload.App) float64 {
	best := 0.0
	for _, cfg := range vcore.Space() {
		ch := db.Characterize(app, cfg)
		worst := math.Inf(1)
		for _, q := range ch.MinQ {
			if q < worst {
				worst = q
			}
		}
		if worst > best {
			best = worst
		}
	}
	return best * QoSTargetSlack
}

func refBestPerPhase(db *DB, app workload.App, target float64, m cost.Model) ([]vcore.Config, []float64, error) {
	cfgs := make([]vcore.Config, len(app.Phases))
	qos := make([]float64, len(app.Phases))
	for pi := range app.Phases {
		best := vcore.Config{}
		bestEff := math.Inf(1)
		bestIPC := 0.0
		for _, cfg := range vcore.Space() {
			ch := db.Characterize(app, cfg)
			if ch.MinQ[pi] < target {
				continue
			}
			ipc := ch.Avg[pi]
			if eff := m.Rate(cfg) / ipc; eff < bestEff {
				best, bestEff, bestIPC = cfg, eff, ipc
			}
		}
		if bestIPC == 0 {
			return nil, nil, fmt.Errorf("oracle: phase %d of %s has no feasible configuration for target %.3f",
				pi, app.Name, target)
		}
		cfgs[pi] = best
		qos[pi] = bestIPC
	}
	return cfgs, qos, nil
}

func refWorstCaseConfig(db *DB, app workload.App, target float64, m cost.Model) (vcore.Config, error) {
	for _, cfg := range m.CheapestFirst() {
		ok := true
		ch := db.Characterize(app, cfg)
		for pi := range app.Phases {
			if ch.MinQ[pi] < target {
				ok = false
				break
			}
		}
		if ok {
			return cfg, nil
		}
	}
	return vcore.Config{}, fmt.Errorf("oracle: no configuration meets target %.3f in all phases of %s",
		target, app.Name)
}

func refOptimalCost(db *DB, app workload.App, target float64, m cost.Model) (float64, error) {
	cfgs, qos, err := refBestPerPhase(db, app, target, m)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for pi, p := range app.Phases {
		cycles := float64(p.Instrs) / qos[pi]
		total += m.Rate(cfgs[pi]) * cycles / cost.CyclesPerHour
	}
	return total, nil
}

func refAvgSpeedup(db *DB, app workload.App) func(vcore.Config) float64 {
	total := float64(app.TotalInstrs())
	baseIPC := db.PhaseIPC(app, vcore.Min())
	avg := make(map[vcore.Config]float64, len(vcore.Space()))
	for _, cfg := range vcore.Space() {
		ipc := db.PhaseIPC(app, cfg)
		s := 0.0
		for pi, p := range app.Phases {
			if baseIPC[pi] <= 0 {
				continue
			}
			s += (ipc[pi] / baseIPC[pi]) * float64(p.Instrs) / total
		}
		avg[cfg] = s
	}
	return func(c vcore.Config) float64 { return avg[c] }
}

func refGrid(db *DB, app workload.App, phaseIdx int) [][]float64 {
	steps := vcore.L2Steps()
	grid := make([][]float64, vcore.MaxSlices)
	for si := range grid {
		grid[si] = make([]float64, len(steps))
		for li, l2 := range steps {
			grid[si][li] = db.IPC(app, phaseIdx, vcore.Config{Slices: si + 1, L2KB: l2})
		}
	}
	return grid
}

// phasedApp returns a valid application with n phases; its measurements
// never run (the test fills the cache directly), so only the digest
// matters.
func phasedApp(name string, n int) workload.App {
	base, _ := workload.ByName("hmmer")
	p := base.Phases[0]
	app := workload.App{Name: name}
	for i := 0; i < n; i++ {
		q := p
		q.Name = fmt.Sprintf("p%d", i)
		q.Instrs = int64(1000 * (i + 1))
		app.Phases = append(app.Phases, q)
	}
	return app
}

// fillRandom stores a random characterisation for every configuration
// of app at the DB's current tier. Values come from a small grid so
// exact ties between configurations (and between Avg and MinQ) are
// common; zero IPC cells exercise the infeasible-phase sentinel.
func fillRandom(db *DB, app workload.App, rng *rand.Rand) {
	for _, cfg := range vcore.Space() {
		ch := Char{Avg: make([]float64, len(app.Phases)), MinQ: make([]float64, len(app.Phases))}
		for pi := range app.Phases {
			ch.Avg[pi] = float64(rng.Intn(6)) * 0.25
			ch.MinQ[pi] = ch.Avg[pi] * float64(rng.Intn(5)) * 0.25
		}
		db.cache[db.key(app, cfg)] = ch
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestTableQueriesMatchReference is the equivalence property: over
// random warm databases — 1- and 10-phase apps, cycle and interval
// tiers, exact ties, and targets no configuration meets — every table
// query returns bit-identical results and identical errors to the
// per-cell reference.
func TestTableQueriesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := cost.Default()
	for trial := 0; trial < 40; trial++ {
		db := NewDB()
		tier := []isim.Tier{isim.TierCycle, isim.TierInterval}[trial%2]
		db.Tier = tier
		app := phasedApp(fmt.Sprintf("eq%d", trial), []int{1, 10, 2}[trial%3])
		fillRandom(db, app, rng)
		// A same-app decoy at the other tier: a query reading it would
		// break the equivalence.
		db.Tier = isim.TierCycle + isim.TierInterval - tier
		fillRandom(db, app, rng)
		db.Tier = tier
		entries := db.Entries()

		name := fmt.Sprintf("trial %d (%d phases, tier %v)", trial, len(app.Phases), tier)
		if got, want := db.QoSTarget(app), refQoSTarget(db, app); !sameFloat(got, want) {
			t.Fatalf("%s: QoSTarget = %v, want %v", name, got, want)
		}
		targets := []float64{0, 0.25, 0.5, db.QoSTarget(app), 1.25, 100}
		for _, target := range targets {
			gc, gq, gerr := db.BestPerPhase(app, target, m)
			wc, wq, werr := refBestPerPhase(db, app, target, m)
			if !sameErr(gerr, werr) || len(gc) != len(wc) || len(gq) != len(wq) {
				t.Fatalf("%s target %v: BestPerPhase err %v / %v, lens %d %d", name, target, gerr, werr, len(gc), len(wc))
			}
			for i := range gc {
				if gc[i] != wc[i] || !sameFloat(gq[i], wq[i]) {
					t.Fatalf("%s target %v phase %d: BestPerPhase %v/%v, want %v/%v", name, target, i, gc[i], gq[i], wc[i], wq[i])
				}
			}
			gcost, gerr := db.OptimalCost(app, target, m)
			wcost, werr := refOptimalCost(db, app, target, m)
			if !sameErr(gerr, werr) || !sameFloat(gcost, wcost) {
				t.Fatalf("%s target %v: OptimalCost %v (%v), want %v (%v)", name, target, gcost, gerr, wcost, werr)
			}
			gw, gerr := db.WorstCaseConfig(app, target, m)
			ww, werr := refWorstCaseConfig(db, app, target, m)
			if !sameErr(gerr, werr) || gw != ww {
				t.Fatalf("%s target %v: WorstCaseConfig %v (%v), want %v (%v)", name, target, gw, gerr, ww, werr)
			}
		}
		gs, ws := db.AvgSpeedup(app), refAvgSpeedup(db, app)
		for _, cfg := range append(vcore.Space(), vcore.Config{}, vcore.Config{Slices: 3, L2KB: 96}) {
			if !sameFloat(gs(cfg), ws(cfg)) {
				t.Fatalf("%s: AvgSpeedup(%v) = %v, want %v", name, cfg, gs(cfg), ws(cfg))
			}
		}
		for pi := range app.Phases {
			gg, wg := db.Grid(app, pi), refGrid(db, app, pi)
			for si := range wg {
				for li := range wg[si] {
					if !sameFloat(gg[si][li], wg[si][li]) {
						t.Fatalf("%s phase %d: Grid[%d][%d] = %v, want %v", name, pi, si, li, gg[si][li], wg[si][li])
					}
				}
			}
		}
		if db.Entries() != entries || db.measured != 0 {
			t.Fatalf("%s: warm queries changed the DB (%d -> %d entries, %d measured)", name, entries, db.Entries(), db.measured)
		}
	}
}
