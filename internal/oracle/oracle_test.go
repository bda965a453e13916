package oracle

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cash/internal/cost"
	"cash/internal/par"
	"cash/internal/vcore"
	"cash/internal/workload"
)

func tinyApp() workload.App {
	app, _ := workload.ByName("hmmer")
	return app.Scale(0.03)
}

func TestCharacterizeMemoised(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	cfg := vcore.Config{Slices: 2, L2KB: 256}
	first := db.Characterize(app, cfg)
	if db.Entries() != 1 {
		t.Fatalf("Entries = %d, want 1", db.Entries())
	}
	again := db.Characterize(app, cfg)
	for i := range first.Avg {
		if first.Avg[i] != again.Avg[i] {
			t.Fatal("memoised characterisation must be identical")
		}
	}
	if db.Entries() != 1 {
		t.Error("repeat characterisation must not add entries")
	}
}

func TestCharDimensions(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	ch := db.Characterize(app, vcore.Min())
	if len(ch.Avg) != len(app.Phases) || len(ch.MinQ) != len(app.Phases) {
		t.Fatalf("char dims %d/%d, want %d", len(ch.Avg), len(ch.MinQ), len(app.Phases))
	}
	for pi := range app.Phases {
		if ch.Avg[pi] <= 0 {
			t.Errorf("phase %d: non-positive IPC", pi)
		}
		if ch.MinQ[pi] > ch.Avg[pi]*1.001 {
			t.Errorf("phase %d: min-quantum IPC %.3f above the average %.3f",
				pi, ch.MinQ[pi], ch.Avg[pi])
		}
	}
}

func TestScaledAppsDoNotCollide(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	db.Characterize(app, vcore.Min())
	db.Characterize(app.Scale(0.5), vcore.Min())
	if db.Entries() != 2 {
		t.Errorf("differently-scaled apps must have distinct cache keys; Entries = %d", db.Entries())
	}
}

func TestQoSTargetFeasible(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	target := db.QoSTarget(app)
	if target <= 0 {
		t.Fatal("target must be positive")
	}
	// By construction some configuration guarantees the target in every
	// phase.
	if _, err := db.WorstCaseConfig(app, target, cost.Default()); err != nil {
		t.Errorf("derived target is infeasible: %v", err)
	}
	if _, err := db.WorstCaseConfig(app, 100, cost.Default()); err == nil {
		t.Error("absurd target must be infeasible")
	}
}

func TestBestPerPhaseFeasibility(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	m := cost.Default()
	target := db.QoSTarget(app)
	cfgs, qos, err := db.BestPerPhase(app, target, m)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range app.Phases {
		if db.MinQuantumIPC(app, pi, cfgs[pi]) < target {
			t.Errorf("phase %d: chosen %s cannot guarantee the target", pi, cfgs[pi])
		}
		if qos[pi] < target {
			t.Errorf("phase %d: average IPC %.3f below target", pi, qos[pi])
		}
		// Optimality: no feasible config has better rate/IPC.
		best := m.Rate(cfgs[pi]) / qos[pi]
		for _, c := range vcore.Space() {
			ch := db.Characterize(app, c)
			if ch.MinQ[pi] < target {
				continue
			}
			if eff := m.Rate(c) / ch.Avg[pi]; eff < best*(1-1e-9) {
				t.Errorf("phase %d: %s (%.4g) beats chosen %s (%.4g)", pi, c, eff, cfgs[pi], best)
			}
		}
	}
}

func TestOptimalCostPositive(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	target := db.QoSTarget(app)
	c, err := db.OptimalCost(app, target, cost.Default())
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Errorf("optimal cost = %g", c)
	}
}

func TestGridShape(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	g := db.Grid(app, 0)
	if len(g) != 8 || len(g[0]) != 8 {
		t.Fatalf("grid is %dx%d, want 8x8", len(g), len(g[0]))
	}
	best, bestCfg := db.MaxIPC(app, 0)
	if best <= 0 || !bestCfg.Valid() {
		t.Errorf("MaxIPC = %f at %s", best, bestCfg)
	}
}

func TestLocalOptimaContainGlobal(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	opt := db.LocalOptima(app, 0, 0.01)
	globals := 0
	for _, o := range opt {
		if o.Global {
			globals++
		}
	}
	if globals != 1 {
		t.Errorf("local optima must include exactly one global, got %d", globals)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "oracle.gob")

	db := NewDB()
	app := tinyApp()
	db.Characterize(app, vcore.Min())
	want := db.Characterize(app, vcore.Min())
	if err := db.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	db2 := NewDB()
	if err := db2.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if db2.Entries() != db.Entries() {
		t.Fatalf("loaded %d entries, want %d", db2.Entries(), db.Entries())
	}
	got := db2.Characterize(app, vcore.Min())
	for i := range want.Avg {
		if got.Avg[i] != want.Avg[i] || got.MinQ[i] != want.MinQ[i] {
			t.Fatal("cache round trip altered data")
		}
	}
}

// TestCacheRejectsOtherSeed: cache keys do not carry the workload
// seed, so a database at any seed but NewDB's must neither serve a
// file's seed-42 measurements as its own nor write its measurements
// where a seed-42 database would load them.
func TestCacheRejectsOtherSeed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "oracle.gob")
	db := NewDB()
	db.Characterize(tinyApp(), vcore.Min())
	if err := db.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	db7 := NewDB()
	db7.Seed = 7
	if err := db7.LoadCache(path); err == nil {
		t.Fatal("a seed-7 database loaded a seed-42 cache")
	}
	if n := db7.Entries(); n != 0 {
		t.Fatalf("rejected load left %d entries", n)
	}
	db7.Characterize(tinyApp(), vcore.Min())
	if err := db7.SaveCache(path); err == nil {
		t.Fatal("a seed-7 database saved over a seed-42 cache")
	}
	if err := db7.SaveCache(filepath.Join(dir, "fresh.gob")); err == nil {
		t.Fatal("a seed-7 database saved a cache")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, saved) {
		t.Fatalf("rejected save changed the seed-42 file (err %v)", err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("rejected saves left files behind: %v (err %v)", ents, err)
	}
}

func TestSaveCacheFailureRemovesTempFile(t *testing.T) {
	dir := t.TempDir()
	// A directory at the target path makes the final rename fail after
	// the temp file was fully written — the failure mode that used to
	// strand one orphan temp file per failed save.
	path := filepath.Join(dir, "oracle.gob")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}

	db := NewDB()
	db.Characterize(tinyApp(), vcore.Min())
	if err := db.SaveCache(path); err == nil {
		t.Fatal("SaveCache onto a directory must fail")
	}

	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range names {
		if e.Name() != "oracle.gob" {
			t.Errorf("failed save left %q behind in the cache dir", e.Name())
		}
	}
}

func TestLoadCacheMissingFile(t *testing.T) {
	db := NewDB()
	if err := db.LoadCache(filepath.Join(t.TempDir(), "absent.gob")); err != nil {
		t.Errorf("missing cache file must not error: %v", err)
	}
}

func TestLoadCacheCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gob")
	os.WriteFile(path, []byte("not a gob"), 0o644)
	db := NewDB()
	if err := db.LoadCache(path); err == nil {
		t.Error("corrupt cache must error")
	}
}

func TestDefaultCachePathEnvOverride(t *testing.T) {
	t.Setenv("CASH_ORACLE_CACHE", "/tmp/custom-cache.gob")
	if DefaultCachePath() != "/tmp/custom-cache.gob" {
		t.Errorf("env override ignored: %s", DefaultCachePath())
	}
}

func TestAvgSpeedupBaseIsOne(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	f := db.AvgSpeedup(app)
	if got := f(vcore.Min()); got < 0.999 || got > 1.001 {
		t.Errorf("base speedup = %v, want 1", got)
	}
	if f(vcore.Max()) <= 0 {
		t.Error("speedups must be positive")
	}
}

func TestCheapestFeasible(t *testing.T) {
	db := NewDB()
	app := tinyApp()
	m := cost.Default()
	target := db.QoSTarget(app)
	cfg, err := db.CheapestFeasible(app, 0, target, m)
	if err != nil {
		t.Fatal(err)
	}
	if db.MinQuantumIPC(app, 0, cfg) < target {
		t.Error("cheapest feasible does not meet the target")
	}
	if _, err := db.CheapestFeasible(app, 0, 100, m); err == nil {
		t.Error("absurd target must fail")
	}
}

func TestLoadCacheChecksumMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.gob")
	db := NewDB()
	db.Characterize(tinyApp(), vcore.Min())
	if err := db.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte without touching the header.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	if err := db2.LoadCache(path); err == nil {
		t.Fatal("checksum mismatch must surface as an error")
	}
	if db2.Entries() != 0 {
		t.Error("corrupt cache must be discarded, not partially loaded")
	}
}

func TestLoadCacheRejectsOldFormats(t *testing.T) {
	// Caches written before the CASHORACLE2 key scheme — both the
	// CASHORACLE1 header and the bare-gob files that predate headers —
	// were keyed by a colliding digest. They must be rejected with a
	// warning error and must not contribute entries.
	path := filepath.Join(t.TempDir(), "old.gob")
	db := NewDB()
	db.Characterize(tinyApp(), vcore.Min())
	if err := db.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nl := 0
	for i, c := range b {
		if c == '\n' {
			nl = i
			break
		}
	}
	old := [][]byte{
		b[nl+1:], // bare gob, pre-header
		append([]byte("CASHORACLE1 00000000\n"), b[nl+1:]...), // previous key scheme
	}
	for i, raw := range old {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		db2 := NewDB()
		if err := db2.LoadCache(path); err == nil {
			t.Fatalf("case %d: old-format cache must be rejected", i)
		}
		if db2.Entries() != 0 {
			t.Fatalf("case %d: old-format cache must not contribute entries", i)
		}
	}
}

// TestParallelSweepMatchesSerial pins the bit-identity contract on the
// parallel characterisation path: the same Char values, the same entry
// count, and a byte-identical cache file regardless of the worker
// budget. Run under -race this also exercises the sweep's memory
// safety.
func TestParallelSweepMatchesSerial(t *testing.T) {
	app := tinyApp()

	serial := NewDB()
	serial.Pool = par.Serial()
	serial.CharacterizeApp(app)

	parallel := NewDB()
	parallel.Pool = par.New(4)
	parallel.CharacterizeApp(app)

	if serial.Entries() != parallel.Entries() {
		t.Fatalf("entries: serial %d vs parallel %d", serial.Entries(), parallel.Entries())
	}
	for _, cfg := range vcore.Space() {
		a := serial.Characterize(app, cfg)
		b := parallel.Characterize(app, cfg)
		for i := range a.Avg {
			if a.Avg[i] != b.Avg[i] || a.MinQ[i] != b.MinQ[i] {
				t.Fatalf("%s phase %d: serial (%v, %v) vs parallel (%v, %v)",
					cfg, i, a.Avg[i], a.MinQ[i], b.Avg[i], b.MinQ[i])
			}
		}
	}

	dir := t.TempDir()
	p1 := filepath.Join(dir, "serial.gob")
	p2 := filepath.Join(dir, "parallel.gob")
	if err := serial.SaveCache(p1); err != nil {
		t.Fatal(err)
	}
	if err := parallel.SaveCache(p2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("cache files differ between serial and parallel sweeps")
	}
}

// TestConcurrentCharacterizeShareOneSweep exercises the singleflight
// path under -race: many goroutines characterising the same app must
// agree, leave exactly one entry per configuration, and record the
// app's stream once between them. The test holds a KeepTraces bracket,
// as a figure's cells do, so a sweep that starts after another has
// released the trace still finds it live; the bracket's close drops it.
func TestConcurrentCharacterizeShareOneSweep(t *testing.T) {
	db := NewDB()
	db.Pool = par.New(2)
	app := tinyApp()
	recorded := recordings()
	keep := workload.KeepTraces()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.CharacterizeApp(app)
		}()
	}
	wg.Wait()
	keep()
	if want := len(vcore.Space()); db.Entries() != want {
		t.Fatalf("Entries = %d, want %d", db.Entries(), want)
	}
	if recorded() != 1 {
		t.Fatalf("4 concurrent cold sweeps recorded %d traces, want 1", recorded())
	}
	if held := workload.TraceHeld(); held != 0 {
		t.Fatalf("%d trace bytes still reserved after the bracket closed", held)
	}
}

// TestCharacterizePanicReachesWaiters is the singleflight-panic
// regression test: when a measurement panics, concurrent waiters on the
// same (app, config) must receive the panic instead of blocking forever
// on a done channel that never closes, and the in-flight entry must be
// cleared so later calls re-attempt rather than hang.
func TestCharacterizePanicReachesWaiters(t *testing.T) {
	db := NewDB()
	bad := workload.App{Name: "bad"} // no phases: the generator panics
	cfg := vcore.Min()

	characterize := func() (panicked any) {
		defer func() { panicked = recover() }()
		db.Characterize(bad, cfg)
		return nil
	}

	done := make(chan any, 2)
	for g := 0; g < 2; g++ {
		go func() { done <- characterize() }()
	}
	for g := 0; g < 2; g++ {
		select {
		case p := <-done:
			if p == nil {
				t.Fatal("Characterize of an invalid app must panic")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("waiter hung after the measurement panicked")
		}
	}

	// The failed flight must not poison the key: a later call re-attempts
	// (and panics again) instead of waiting on the dead flight.
	retry := make(chan any, 1)
	go func() { retry <- characterize() }()
	select {
	case p := <-retry:
		if p == nil {
			t.Fatal("retry must re-attempt and panic again")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("retry hung on a stale in-flight entry")
	}

	// And the database still works for valid measurements.
	if ch := db.Characterize(tinyApp(), cfg); len(ch.Avg) == 0 {
		t.Fatal("database unusable after a panicked measurement")
	}
}

func TestSaveCacheHasChecksumHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "oracle.gob")
	db := NewDB()
	db.Characterize(tinyApp(), vcore.Min())
	if err := db.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) < len(cacheMagic)+9 || string(b[:len(cacheMagic)]) != cacheMagic {
		t.Fatalf("saved cache missing %q header", cacheMagic)
	}
}
