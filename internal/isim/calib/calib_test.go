package calib

import (
	"math"
	"path/filepath"
	"testing"

	"cash/internal/isim"
	"cash/internal/par"
	"cash/internal/vcore"
)

// TestCalibrationGate is the calibration contract: the interval tier
// reproduces the golden cycle-level per-phase IPC within
// isim.CalibTolerance on every (app, config, phase) cell — all 64
// configurations, both corpus apps. On failure the full per-cell delta
// table is logged (the artifact CI uploads).
func TestCalibrationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration gate replays golden cycle-level runs; skipped in -short")
	}
	if raceEnabled {
		t.Skip("320-cell gate exceeds the race-mode test budget; the accuracy " +
			"contract is enforced non-race by `go test ./...`, `make calib` and CI's calib-smoke job")
	}
	rep := Run(nil)
	if want := len(vcore.Space()) * 5; len(rep.Cells) != want {
		// 64 configs × (3 fit phases + 2 stream phases).
		t.Fatalf("report has %d cells, want %d — corpus or space changed without updating the gate", len(rep.Cells), want)
	}
	if err := rep.Gate(isim.CalibTolerance); err != nil {
		t.Errorf("%v", err)
		t.Logf("per-cell delta report:\n%s", rep.Table(isim.CalibTolerance))
	}
}

// TestGoldenRoundTrip pins the Save/LoadGolden persistence the cashsim
// -calib-record / -calib flags rely on: a recorded golden survives a
// round trip bit-exactly and a scale mismatch is rejected.
func TestGoldenRoundTrip(t *testing.T) {
	g := &Golden{
		CorpusScale: CorpusScale,
		IPC: map[string]map[vcore.Config][]float64{
			"calib-fit": {
				{Slices: 2, L2KB: 256}: {1.25, 0.5, 0.75},
			},
		},
	}
	path := filepath.Join(t.TempDir(), "golden.gob")
	if err := g.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	want := g.IPC["calib-fit"][vcore.Config{Slices: 2, L2KB: 256}]
	have := got.IPC["calib-fit"][vcore.Config{Slices: 2, L2KB: 256}]
	if len(have) != len(want) {
		t.Fatalf("round trip changed phase count: %d -> %d", len(want), len(have))
	}
	for i := range want {
		if math.Float64bits(have[i]) != math.Float64bits(want[i]) {
			t.Errorf("phase %d IPC changed in round trip: %v -> %v", i, want[i], have[i])
		}
	}

	stale := &Golden{CorpusScale: CorpusScale / 2, IPC: g.IPC}
	stalePath := filepath.Join(t.TempDir(), "stale.gob")
	if err := stale.Save(stalePath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGolden(stalePath); err == nil {
		t.Error("LoadGolden accepted goldens recorded at a different corpus scale")
	}
}

// TestFastTierDeterminism is the fast-tier half of the byte-identity
// contract (DESIGN.md §3e): an interval-tier characterisation sweep must
// produce bit-identical IPCs regardless of oracle worker parallelism.
// The interval tier wraps the pooled detailed simulator, so any hidden
// shared state or iteration-order dependence would surface here.
func TestFastTierDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space fast-tier sweeps; skipped in -short")
	}
	// Full corpus scale normally; an order of magnitude less under the
	// race detector, where the point is scrutinising the pooled sweep's
	// synchronisation, not re-proving model accuracy.
	apps := scaledCorpus()
	if raceEnabled {
		apps = apps[:0:0]
		for _, a := range Corpus() {
			apps = append(apps, a.Scale(CorpusScale/10))
		}
	}
	serial := characterise(apps, isim.TierInterval, par.Serial())
	wide := characterise(apps, isim.TierInterval, par.New(4))
	for app, byCfg := range serial {
		for cfg, want := range byCfg {
			have := wide[app][cfg]
			if len(have) != len(want) {
				t.Fatalf("%s %s: phase count differs across worker counts: %d vs %d",
					app, cfg, len(want), len(have))
			}
			for pi := range want {
				if math.Float64bits(have[pi]) != math.Float64bits(want[pi]) {
					t.Errorf("%s %s p%d: IPC differs across worker counts: %v (serial) vs %v (4 workers)",
						app, cfg, pi+1, want[pi], have[pi])
				}
			}
		}
	}
}
