package figs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"cash/internal/alloc"
	"cash/internal/experiment"
	"cash/internal/supervise"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// recordings returns a function reporting how many traces the
// process-wide store has recorded since recordings was called.
func recordings() func() int64 {
	base := workload.TracesRecorded()
	return func() int64 { return workload.TracesRecorded() - base }
}

// traceApps returns two small apps whose batch runs are cheap.
func traceApps() (a, b workload.App) {
	hmmer, _ := workload.ByName("hmmer")
	mcf, _ := workload.ByName("mcf")
	return hmmer.Scale(0.001), mcf.Scale(0.001)
}

// batchCell is a supervised cell making one static batch run of app at
// seed (0: the default seed) through the harness.
func batchCell(h *Harness, app workload.App, seed uint64) supervise.Unit {
	return supervise.Unit{
		Key: fmt.Sprintf("trace/%s/%d", app.Name, seed),
		Run: func() (any, error) {
			res, err := h.runBatch(app, alloc.Static{Cfg: vcore.Config{Slices: 2, L2KB: 128}},
				experiment.Opts{Target: 0.3, Seed: seed})
			return res.TotalCost, err
		},
	}
}

// allOK fails t on any failed cell.
func allOK(t *testing.T, reps []supervise.Report) {
	t.Helper()
	for _, r := range reps {
		if !r.OK() {
			t.Fatalf("cell %s failed: %s", r.Key, r.Failure.Reason())
		}
	}
}

// TestTraceSlots: a figure's batch runs share the store's recordings.
// With -jobs 1, a run replays the trace the previous run of its (app,
// seed) recorded (the default seed and an explicit 42 are one stream),
// a miss drops the idle trace of another app or seed, and the figure's
// end drops the last idle trace. A run outside a figure records its own
// and drops it on return.
func TestTraceSlots(t *testing.T) {
	var buf bytes.Buffer
	h := testHarness(&buf)
	h.Jobs = 1
	a, b := traceApps()
	recorded := recordings()
	allOK(t, h.runCells([]supervise.Unit{
		batchCell(h, a, 0), batchCell(h, a, experiment.DefaultSeed),
		batchCell(h, b, 0), batchCell(h, b, 43), batchCell(h, a, 0),
	}))
	if recorded() != 4 {
		t.Fatalf("the figure recorded %d traces, want 4 (a, b, b at seed 43, a again)", recorded())
	}
	if held := workload.TraceHeld(); held != 0 {
		t.Fatalf("%d trace bytes still reserved after the figure returned", held)
	}
	if _, err := batchCell(h, a, 0).Run(); err != nil {
		t.Fatal(err)
	}
	if recorded() != 5 || workload.TraceHeld() != 0 {
		t.Fatalf("a run outside a figure made %d recordings and left %d bytes reserved, want 1 and 0",
			recorded()-4, workload.TraceHeld())
	}
}

// TestTraceSlotsBudget: where the process-wide budget has room for one
// trace only, each miss of a figure drops the idle trace to fit its
// own, so every run still replays, and the figure's end drops the last.
func TestTraceSlotsBudget(t *testing.T) {
	var buf bytes.Buffer
	h := testHarness(&buf)
	h.Jobs = 1
	a, b := traceApps()
	elsewhere := workload.TraceBudget - max(workload.TraceBytes(a), workload.TraceBytes(b))
	if !workload.ReserveTrace(elsewhere) {
		t.Fatalf("trace budget already holds %d bytes", workload.TraceHeld())
	}
	defer workload.ReleaseTrace(elsewhere)
	recorded := recordings()
	allOK(t, h.runCells([]supervise.Unit{batchCell(h, a, 0), batchCell(h, b, 0), batchCell(h, a, 0)}))
	if recorded() != 3 || workload.TraceHeld() != elsewhere {
		t.Fatalf("room for one trace: %d recordings and %d bytes reserved after the figure, want 3 and %d",
			recorded(), workload.TraceHeld(), elsewhere)
	}
}

// TestTraceFallbackKeepsReport: with the process-wide trace budget
// held elsewhere, a harness records nothing and every run generates its
// stream, and the report is byte-identical to one whose runs replay a
// recorded trace. The twelve reliability cells share one app and seed,
// so the replaying harness records exactly once, and it returns the
// budget when the figure ends.
func TestTraceFallbackKeepsReport(t *testing.T) {
	run := func() (string, int64) {
		var buf bytes.Buffer
		h := reliabilityHarness(&buf)
		recorded := recordings()
		if _, err := h.Reliability(); err != nil {
			t.Fatal(err)
		}
		return buf.String(), recorded()
	}
	replayed, recorded := run()
	if recorded != 1 {
		t.Fatalf("replaying harness recorded %d traces, want 1", recorded)
	}
	if held := workload.TraceHeld(); held != 0 {
		t.Fatalf("%d trace bytes still reserved after the figure returned", held)
	}

	if !workload.ReserveTrace(workload.TraceBudget) {
		t.Fatalf("trace budget already holds %d bytes", workload.TraceHeld())
	}
	defer workload.ReleaseTrace(workload.TraceBudget)
	got, recorded := run()
	if held := workload.TraceHeld(); recorded != 0 || held != workload.TraceBudget {
		t.Fatalf("over-budget harness recorded %d traces and left %d bytes reserved", recorded, held-workload.TraceBudget)
	}
	if got != replayed {
		t.Errorf("report differs when every run generates:\n--- replayed\n%s\n--- generated\n%s", replayed, got)
	}
}

// TestColdSweepReclaimsIdleSlots: a cold oracle sweep inside a figure
// drops an idle trace whose bytes it needs, records the app's stream,
// and leaves it live for the app's policy runs, which replay it; a warm
// sweep records nothing and drops nothing.
func TestColdSweepReclaimsIdleSlots(t *testing.T) {
	if testing.Short() {
		t.Skip("characterisation sweep in -short mode")
	}
	var buf bytes.Buffer
	h := testHarness(&buf)
	app, err := h.app("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	_, idle := traceApps()
	sApp, sIdle := workload.TraceBytes(app), workload.TraceBytes(idle)
	elsewhere := workload.TraceBudget - sApp - sIdle + 1
	if !workload.ReserveTrace(elsewhere) {
		t.Fatalf("trace budget already holds %d bytes", workload.TraceHeld())
	}
	defer workload.ReleaseTrace(elsewhere)

	keep := workload.KeepTraces()
	defer keep()
	recorded := recordings()
	if _, err := batchCell(h, idle, 0).Run(); err != nil {
		t.Fatal(err)
	}
	h.characterize(app)
	if recorded() != 2 || workload.TraceHeld() != elsewhere+sApp {
		t.Fatalf("the cold sweep made %d recordings and left %d bytes reserved, want 2 and %d (the idle trace dropped)",
			recorded(), workload.TraceHeld(), elsewhere+sApp)
	}
	if _, err := batchCell(h, app, 0).Run(); err != nil {
		t.Fatal(err)
	}
	if recorded() != 2 {
		t.Fatal("a policy run recorded the stream its app's sweep had just recorded")
	}
	h.characterize(app)
	if recorded() != 2 || workload.TraceHeld() != elsewhere+sApp {
		t.Fatalf("a warm sweep recorded or dropped a trace: %d recordings, %d bytes reserved", recorded(), workload.TraceHeld())
	}
}

// TestFigureRecordsEachStreamOnce: a cold scale-0.006 Fig 7 with -jobs
// 1 records each of the 13 apps' streams once, its sweep and its three
// policy runs sharing the recording, and a following Fig 10 (warm
// oracle) records each once more; the harness holds no trace between
// figures. The trace store's counters are the process's, and a cell
// that an earlier test abandoned on its timeout may still be
// recording, so the test runs alone: in a process of its own, the test
// binary run again for it alone, unless it already is.
func TestFigureRecordsEachStreamOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("cold characterisation of the suite in -short mode")
	}
	const alone = "^TestFigureRecordsEachStreamOnce$"
	if flag.Lookup("test.run").Value.String() != alone {
		out, err := exec.Command(os.Args[0], "-test.run="+alone, "-test.count=1", "-test.v").CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestFigureRecordsEachStreamOnce")) {
			t.Fatalf("the test run alone: %v\n%s", err, out)
		}
		return
	}
	var buf bytes.Buffer
	h := testHarness(&buf)
	h.Scale = 0.006
	h.Jobs = 1
	apps := int64(len(workload.Apps()))
	recorded := recordings()
	if _, err := h.Fig7(); err != nil {
		t.Fatal(err)
	}
	if recorded() != apps || workload.TraceHeld() != 0 {
		t.Fatalf("cold Fig 7 made %d recordings and left %d bytes reserved, want %d and 0",
			recorded(), workload.TraceHeld(), apps)
	}
	if _, err := h.Fig10(); err != nil {
		t.Fatal(err)
	}
	if recorded() != 2*apps || workload.TraceHeld() != 0 {
		t.Fatalf("Fig 7 + Fig 10 made %d recordings and left %d bytes reserved, want %d and 0",
			recorded(), workload.TraceHeld(), 2*apps)
	}
}
