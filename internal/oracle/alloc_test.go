package oracle

import (
	"testing"

	"cash/internal/cost"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// warmFlat fills every configuration of app with IPC 1 in every phase,
// so every target below 1 is feasible everywhere.
func warmFlat(db *DB, app workload.App) {
	for _, cfg := range vcore.Space() {
		ch := Char{Avg: make([]float64, len(app.Phases)), MinQ: make([]float64, len(app.Phases))}
		for pi := range app.Phases {
			ch.Avg[pi], ch.MinQ[pi] = 1, 1
		}
		db.cache[db.key(app, cfg)] = ch
	}
}

// TestWarmQueryAllocsIndependentOfPhases is the allocation gate of the
// warm query path: a query derives the application digest once and
// reads the 64 characterisations from a stack table, so its allocation
// count must not grow with the phase count (no per-phase or
// per-configuration allocation). Counts are deterministic, so they are
// pinned exactly: the table fetch itself — all a warm QoSTarget does —
// allocates nothing; WorstCaseConfig adds the model's CheapestFirst
// order; OptimalCost adds BestPerPhase's two result slices.
func TestWarmQueryAllocsIndependentOfPhases(t *testing.T) {
	db := NewDB()
	m := cost.Default()
	short, long := phasedApp("alloc2", 2), phasedApp("alloc10", 10)
	warmFlat(db, short)
	warmFlat(db, long)

	queries := []struct {
		name string
		want float64
		run  func(app workload.App)
	}{
		{"QoSTarget", 0, func(app workload.App) { db.QoSTarget(app) }},
		{"WorstCaseConfig", 1, func(app workload.App) {
			if _, err := db.WorstCaseConfig(app, 0.5, m); err != nil {
				t.Fatal(err)
			}
		}},
		{"OptimalCost", 2, func(app workload.App) {
			if _, err := db.OptimalCost(app, 0.5, m); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, q := range queries {
		a2 := testing.AllocsPerRun(50, func() { q.run(short) })
		a10 := testing.AllocsPerRun(50, func() { q.run(long) })
		if a2 != a10 {
			t.Errorf("warm %s: %v allocs for 2 phases, %v for 10 — a per-phase or per-configuration allocation", q.name, a2, a10)
		} else if a2 != q.want {
			t.Errorf("warm %s: %v allocs per call, want %v", q.name, a2, q.want)
		}
	}
	// A warm sweep is one table fetch: it neither measures nor records
	// a trace.
	recorded := recordings()
	db.CharacterizeApp(short)
	db.CharacterizeApp(long)
	if db.measured != 0 || recorded() != 0 {
		t.Fatalf("warm queries and sweeps measured %d cells and recorded %d traces", db.measured, recorded())
	}
}
