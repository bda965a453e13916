package oracle

import (
	"testing"

	"cash/internal/cost"
	"cash/internal/isim"
	"cash/internal/vcore"
)

// TestTierKeyCollisionRegression pins the cross-tier cache-poisoning
// bug: before the tier tag, a fast-tier sweep sharing a cache file with
// a cycle-level run produced identical keys for the same (app, config)
// cell, so whichever ran first silently served its result to the other
// — approximations into paper figures, or golden cycles into
// calibration baselines. Every tier must key separately, and apart from
// the legacy sampled-tier cells old cache files may still hold, so no
// tier reads them; the cycle tier keeps the bare legacy key so existing
// CASHORACLE3 cache files stay valid.
func TestTierKeyCollisionRegression(t *testing.T) {
	app := tinyApp()
	cfg := vcore.Config{Slices: 2, L2KB: 128}

	dbAt := func(tier isim.Tier) *DB {
		db := NewDB()
		db.Tier = tier
		return db
	}
	keys := map[string]string{
		"cycle":          dbAt(isim.TierCycle).key(app, cfg),
		"interval":       dbAt(isim.TierInterval).key(app, cfg),
		"sampled-legacy": appKey(app) + "@" + cfg.String() + legacySampledTag,
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, ok := seen[k]; ok {
			t.Errorf("tiers %s and %s share cache key %q — one would silently serve the other's characterisation", prev, name, k)
		}
		seen[k] = name
	}

	// The cycle tier must keep the exact legacy key: existing cache
	// files are cycle-level characterisations and must keep loading as
	// such.
	if legacy := appKey(app) + "@" + cfg.String(); keys["cycle"] != legacy {
		t.Errorf("cycle-tier key %q differs from the legacy key %q — existing cache files would be orphaned", keys["cycle"], legacy)
	}
}

// TestTierCacheSeparation runs the same cell at cycle and interval tier
// through one DB and asserts two distinct cache entries with distinct
// measurements — the end-to-end version of the key regression.
func TestTierCacheSeparation(t *testing.T) {
	app := tinyApp()
	cfg := vcore.Config{Slices: 2, L2KB: 128}

	db := NewDB()
	cycle := db.Characterize(app, cfg)
	db.Tier = isim.TierInterval
	fast := db.Characterize(app, cfg)
	if db.Entries() != 2 {
		t.Fatalf("Entries = %d, want 2 (one per tier)", db.Entries())
	}
	// The interval tier models spans instead of executing them; an IPC
	// bit-identical to the cycle tier means the cache served the wrong
	// entry.
	if cycle.Avg[0] == fast.Avg[0] {
		t.Error("cycle and interval tiers characterised bit-identically — cache served the wrong entry")
	}
}

// TestQueriesReadOnlyTheirTier fills one DB with cycle-tier cells at IPC
// 1 and interval-tier cells at IPC 2 for the same app, then queries at
// each tier. A query reading even one cell of the other tier shows: the
// QoS target, the race-to-idle configuration's feasibility or the
// per-phase optimum's IPC would move. Nothing may be measured — every
// cell a query needs is cached at its own tier.
func TestQueriesReadOnlyTheirTier(t *testing.T) {
	app := tinyApp()
	m := cost.Default()
	db := NewDB()
	for _, c := range []struct {
		tier isim.Tier
		ipc  float64
	}{{isim.TierCycle, 1}, {isim.TierInterval, 2}} {
		db.Tier = c.tier
		for _, cfg := range vcore.Space() {
			ch := Char{Avg: make([]float64, len(app.Phases)), MinQ: make([]float64, len(app.Phases))}
			for pi := range app.Phases {
				ch.Avg[pi], ch.MinQ[pi] = c.ipc, c.ipc
			}
			db.cache[db.key(app, cfg)] = ch
		}
	}

	for _, c := range []struct {
		tier isim.Tier
		ipc  float64
	}{{isim.TierCycle, 1}, {isim.TierInterval, 2}} {
		db.Tier = c.tier
		if got, want := db.QoSTarget(app), c.ipc*QoSTargetSlack; got != want {
			t.Errorf("tier %v: QoSTarget = %v, want %v", c.tier, got, want)
		}
		// 1.5 splits the tiers: only the interval tier meets it.
		wc, err := db.WorstCaseConfig(app, 1.5, m)
		if c.tier == isim.TierCycle && err == nil {
			t.Errorf("cycle tier: WorstCaseConfig met 1.5 with %v — it read an interval-tier cell", wc)
		}
		if c.tier == isim.TierInterval && (err != nil || wc != vcore.Min()) {
			t.Errorf("interval tier: WorstCaseConfig = %v, %v; want %v", wc, err, vcore.Min())
		}
		_, qos, err := db.BestPerPhase(app, 0.5, m)
		if err != nil {
			t.Fatalf("tier %v: BestPerPhase: %v", c.tier, err)
		}
		for pi, q := range qos {
			if q != c.ipc {
				t.Errorf("tier %v: BestPerPhase phase %d IPC %v, want %v", c.tier, pi, q, c.ipc)
			}
		}
	}
	if db.measured != 0 {
		t.Errorf("queries measured %d cells; every cell was cached at its own tier", db.measured)
	}
}
