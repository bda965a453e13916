package figs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cash/internal/cashrt"
	"cash/internal/experiment"
	"cash/internal/oracle"
	"cash/internal/supervise"
)

// memoHarness is a harness at the report golden's scale on db, so
// several harnesses of one test share one sweep. It reads no user
// cache.
func memoHarness(t *testing.T, db *oracle.DB) *Harness {
	t.Setenv("CASH_ORACLE_CACHE", "-")
	h := New(&bytes.Buffer{})
	h.Scale = 0.002
	h.CachePath = "-"
	h.DB = db
	return h
}

// counts reports the runs computed and served since the last call.
func counts(h *Harness) func() (runs, served int) {
	var r0, s0 int
	return func() (int, int) {
		h.memo.mu.Lock()
		defer h.memo.mu.Unlock()
		r, s := h.memo.runs-r0, h.memo.served-s0
		r0, s0 = h.memo.runs, h.memo.served
		return r, s
	}
}

// sameBits fails t unless two results agree bit for bit.
func sameBits(t *testing.T, what string, cost1, viol1, cost2, viol2 float64) {
	t.Helper()
	if math.Float64bits(cost1) != math.Float64bits(cost2) || math.Float64bits(viol1) != math.Float64bits(viol2) {
		t.Errorf("%s: cost %v viol %v, want cost %v viol %v", what, cost1, viol1, cost2, viol2)
	}
}

// journaled reads the ok payload of key from the journal at path.
func journaled(t *testing.T, h *Harness, path, key string, v any) {
	t.Helper()
	j, err := supervise.OpenJournal(path, h.meta(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	e, ok := j.Lookup(key)
	if !ok || e.Status != supervise.StatusOK {
		t.Fatalf("journal %s has no ok record for %s", path, key)
	}
	if err := (supervise.Report{Value: e.Value}).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestMemoSharedRunsIdentical: the runs the memo serves across
// artifacts are the same experiments. Each artifact runs alone on a
// fresh harness, so nothing is served, and the shared columns still
// agree bit for bit: Fig 10's FineGrain,race and CASH with Fig 7's
// RaceToIdle and CASH, and Fig 8's x264 rows and the ablations' default
// row with Fig 7's x264 cells.
func TestMemoSharedRunsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig 7, Fig 8, Fig 10 and the ablations in -short mode")
	}
	db := oracle.NewDB()
	r7, err := memoHarness(t, db).Fig7()
	if err != nil {
		t.Fatal(err)
	}
	r10, err := memoHarness(t, db).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range r7.Apps {
		for fig10, fig7 := range map[string]string{"FineGrain,race": "RaceToIdle", "CASH": "CASH"} {
			a, b := r10.Data[fig10][app], r7.Data[fig7][app]
			sameBits(t, "fig10 "+app+"/"+fig10, a.Cost, a.ViolationRate, b.Cost, b.ViolationRate)
		}
	}

	dir := t.TempDir()
	h8 := memoHarness(t, db)
	h8.JournalPath = filepath.Join(dir, "fig8.jsonl")
	if err := h8.Fig8(); err != nil {
		t.Fatal(err)
	}
	h8.Close()
	for _, key := range []string{"ConvexOptimization", "RaceToIdle", "CASH"} {
		var row seriesRow
		journaled(t, h8, h8.JournalPath, "fig8/x264/"+key, &row)
		want := r7.Data[key]["x264"]
		sameBits(t, "fig8 x264/"+key, row.TotalCost, row.ViolationRate, want.Cost, want.ViolationRate)
	}

	ha := memoHarness(t, db)
	ha.JournalPath = filepath.Join(dir, "ablations.jsonl")
	if err := ha.Ablations(); err != nil {
		t.Fatal(err)
	}
	ha.Close()
	var row ablationRow
	journaled(t, ha, ha.JournalPath, "ablations/CASH (default)", &row)
	want := r7.Data["CASH"]["x264"]
	sameBits(t, "ablations CASH (default)", row.Cost, row.ViolationRate, want.Cost, want.ViolationRate)
}

// TestMemoRunCounts pins how many experiments the memo computes and
// serves. Fig 10 after Fig 7 reuses 26 of its 52 runs; a repeated
// call of an artifact recomputes all of its own; and `all` serves 32
// of its 107 policy runs (Fig 7's x264 race-to-idle and convex from
// Fig 2, Fig 8's three, Fig 10's 26 and the ablations' default row).
func TestMemoRunCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig 7 and Fig 10 repeatedly in -short mode")
	}
	db := oracle.NewDB()
	type step struct {
		name        string
		art         func(*Harness) error
		runs, serve int
	}
	fig7 := func(h *Harness) error { _, err := h.Fig7(); return err }
	fig10 := func(h *Harness) error { _, err := h.Fig10(); return err }
	for _, seq := range [][]step{
		{{"fig7", fig7, 39, 0}, {"fig10", fig10, 26, 26}, {"fig7 again", fig7, 39, 0}, {"fig10 again", fig10, 26, 26}},
		{{"fig7", fig7, 39, 0}, {"fig7 again", fig7, 39, 0}},
	} {
		h := memoHarness(t, db)
		delta := counts(h)
		for _, s := range seq {
			if err := s.art(h); err != nil {
				t.Fatal(err)
			}
			if runs, served := delta(); runs != s.runs || served != s.serve {
				t.Errorf("%s: %d runs, %d served; want %d, %d", s.name, runs, served, s.runs, s.serve)
			}
		}
	}

	h := memoHarness(t, db)
	delta := counts(h)
	for _, a := range Artifacts {
		if err := a.Run(h); err != nil {
			t.Fatal(err)
		}
	}
	if runs, served := delta(); runs != 75 || served != 32 {
		t.Errorf("all: %d runs, %d served; want 75, 32", runs, served)
	}
}

// TestMemoKeySound: the memo never serves a run made under other
// inputs. Harnesses that differ only in the seed, the scale or the
// fault settings key every Fig 8 run (convex, race-to-idle and CASH)
// apart, and on one harness a run
// at another workload seed, or under a CASH runtime built from other
// options, is computed, not served.
func TestMemoKeySound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig 8 several times in -short mode")
	}
	db := oracle.NewDB()
	keys := func(mut func(*Harness)) map[memoKey]bool {
		h := memoHarness(t, db)
		mut(h)
		if err := h.Fig8(); err != nil {
			t.Fatal(err)
		}
		out := make(map[memoKey]bool)
		for k := range h.memo.entries {
			out[k] = true
		}
		return out
	}
	base := keys(func(*Harness) {})
	for name, mut := range map[string]func(*Harness){
		"seed":       func(h *Harness) { h.Seed = 8 },
		"scale":      func(h *Harness) { h.Scale = 0.003 },
		"fault rate": func(h *Harness) { h.FaultRate = 2 },
		"fault seed": func(h *Harness) { h.FaultSeed = 3 },
	} {
		for k := range keys(mut) {
			if base[k] {
				t.Errorf("harnesses differing only in %s share the run %+v", name, k)
			}
		}
	}

	h := memoHarness(t, db)
	s, err := h.setupNamed("x264")
	if err != nil {
		t.Fatal(err)
	}
	delta := counts(h)
	opts := func(seed uint64) experiment.Opts {
		return experiment.Opts{Target: s.Target, Model: h.Model, Tolerance: 0.10, Seed: seed}
	}
	for i, r := range []struct {
		p    policy
		seed uint64
	}{
		{raceToIdle(s.WorstCase), 0},
		{raceToIdle(s.WorstCase), 43},                  // another workload seed
		{h.cash(s.Target, cashrt.Options{Seed: 1}), 0}, // two runtimes named CASH,
		{h.cash(s.Target, cashrt.Options{Seed: 2}), 0}, // built from other options
	} {
		// Each run is another artifact's, so a matching entry would be
		// served.
		if _, err := h.runShared(string(rune('a'+i)), s.App, r.p, opts(r.seed)); err != nil {
			t.Fatal(err)
		}
	}
	if runs, served := delta(); runs != 4 || served != 0 {
		t.Errorf("distinct experiments: %d runs, %d served; want 4, 0", runs, served)
	}
	// The default workload seed and an explicit 42 are one experiment.
	if _, err := h.runShared("e", s.App, raceToIdle(s.WorstCase), opts(experiment.DefaultSeed)); err != nil {
		t.Fatal(err)
	}
	if runs, served := delta(); runs != 0 || served != 1 {
		t.Errorf("the default seed spelled out: %d runs, %d served; want 0, 1", runs, served)
	}
}

// TestMemoResumeAfterFig7: a journal cut just after Fig 7's last cell
// resumes to the golden report. Fig 2 and Fig 7 replay from the
// journal, so the memo holds none of their runs, and Fig 8, Fig 10
// and the ablations compute what they would otherwise be served.
func TestMemoResumeAfterFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every artifact twice in -short mode")
	}
	t.Setenv("CASH_ORACLE_CACHE", "-")
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	o := Options{Scale: 0.002, JournalPath: journal}
	if err := Reproduce(&bytes.Buffer{}, "all", o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	// Compaction sorts records by key; keep the header and every cell
	// that "all" runs up to and including Fig 7.
	before := []string{`"key":"fig1/`, `"key":"fig2/`, `"key":"overhead"`, `"key":"fig7/`}
	var cut []string
	for i, line := range strings.SplitAfter(string(raw), "\n") {
		for _, p := range before {
			if i == 0 || strings.Contains(line, p) {
				cut = append(cut, line)
				break
			}
		}
	}
	if len(cut) != 1+1+3+1+52 {
		t.Fatalf("cut journal kept %d lines; want the header, Fig 1's, Fig 2's 3, the overhead's and Fig 7's 52 cells", len(cut))
	}
	if err := os.WriteFile(journal, []byte(strings.Join(cut, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	o.Resume = true
	if err := Reproduce(&buf, "all", o); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("resumed report differs from %s", goldenReport)
	}
}
