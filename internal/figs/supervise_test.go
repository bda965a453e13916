package figs

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cash/internal/supervise"
)

// reliabilityHarness is the cheapest artifact that exercises many
// supervised cells (9: 3 allocators x 3 rates) without an oracle
// characterisation sweep.
func reliabilityHarness(buf *bytes.Buffer) *Harness {
	h := testHarness(buf)
	h.Scale = 0.1
	return h
}

func TestCellPanicRendersFailedRow(t *testing.T) {
	var buf bytes.Buffer
	h := reliabilityHarness(&buf)
	h.CellHook = func(key string) {
		if key == "reliability/CASH/0" {
			panic("injected fault")
		}
	}
	rows, err := h.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAILED(panic: injected fault)") {
		t.Errorf("panicking cell must render as FAILED(panic: ...):\n%s", out)
	}
	if len(rows) != 11 {
		t.Errorf("the other 11 cells must still complete, got %d rows", len(rows))
	}
	if !strings.Contains(out, "Static(8s/512KB)") {
		t.Errorf("sibling rows missing from report:\n%s", out)
	}
}

func TestCellHangTimesOut(t *testing.T) {
	var buf bytes.Buffer
	h := reliabilityHarness(&buf)
	// Margins are wide so the race detector's slowdown cannot push a
	// healthy cell over the budget: healthy cells finish in well under a
	// second even under -race, while the hung cell sleeps far past it.
	h.CellTimeout = 3 * time.Second
	h.CellHook = func(key string) {
		if key == "reliability/Static(2s/128KB)/0" {
			time.Sleep(time.Minute)
		}
	}
	rows, err := h.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "FAILED(timeout after 3s)") {
		t.Errorf("hanging cell must render as FAILED(timeout ...):\n%s", out)
	}
	if len(rows) == 0 {
		t.Error("sibling cells must still complete")
	}
}

func TestCellRetrySucceeds(t *testing.T) {
	var buf bytes.Buffer
	h := reliabilityHarness(&buf)
	h.MaxRetries = 2
	failures := 0
	h.CellHook = func(key string) {
		if key == "reliability/CASH/0" && failures < 1 {
			failures++
			panic("transient")
		}
	}
	var log bytes.Buffer
	h.Log = &log
	rows, err := h.Reliability()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "FAILED") {
		t.Errorf("cell should have recovered on retry:\n%s", buf.String())
	}
	if len(rows) != 12 {
		t.Errorf("want all 12 rows after retry, got %d", len(rows))
	}
	if !strings.Contains(log.String(), "succeeded on attempt 2") {
		t.Errorf("retry must be observable in the diagnostic log:\n%s", log.String())
	}
}

func TestJobsDoNotChangeReport(t *testing.T) {
	run := func(jobs int) string {
		var buf bytes.Buffer
		h := reliabilityHarness(&buf)
		h.Jobs = jobs
		if _, err := h.Reliability(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if seq, par := run(1), run(4); seq != par {
		t.Errorf("report must be byte-identical regardless of -jobs:\n--- jobs=1\n%s\n--- jobs=4\n%s", seq, par)
	}
}

func TestResumeProducesByteIdenticalReport(t *testing.T) {
	dir := t.TempDir()

	// The uninterrupted reference run (no journal).
	var clean bytes.Buffer
	h := reliabilityHarness(&clean)
	if _, err := h.Reliability(); err != nil {
		t.Fatal(err)
	}

	// An "interrupted" run: one cell keeps failing, the rest are
	// journaled as completed.
	journal := filepath.Join(dir, "journal.jsonl")
	var broken bytes.Buffer
	h = reliabilityHarness(&broken)
	h.JournalPath = journal
	h.CellHook = func(key string) {
		if key == "reliability/Static(8s/512KB)/0" {
			panic("crash mid-suite")
		}
	}
	if _, err := h.Reliability(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(broken.String(), "FAILED(panic: crash mid-suite)") {
		t.Fatalf("interrupted run must record the failure:\n%s", broken.String())
	}

	// Resume: completed cells replay from the journal, the failed cell
	// re-runs (the hook is gone), and the report must match the
	// uninterrupted one byte for byte.
	var resumed bytes.Buffer
	h = reliabilityHarness(&resumed)
	h.JournalPath = journal
	h.Resume = true
	var log bytes.Buffer
	h.Log = &log
	if _, err := h.Reliability(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != clean.String() {
		t.Errorf("resumed report differs from uninterrupted run:\n--- clean\n%s\n--- resumed\n%s",
			clean.String(), resumed.String())
	}
	if !strings.Contains(log.String(), "replayed from journal") {
		t.Errorf("resume must replay journaled cells:\n%s", log.String())
	}
}

func TestFreshRunIgnoresStaleJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "journal.jsonl")

	var first bytes.Buffer
	h := reliabilityHarness(&first)
	h.JournalPath = journal
	if _, err := h.Reliability(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Same journal, different scale: the fingerprint differs, so even
	// with -resume nothing may replay.
	var second bytes.Buffer
	h = reliabilityHarness(&second)
	h.Scale = 0.2
	h.JournalPath = journal
	h.Resume = true
	var log bytes.Buffer
	h.Log = &log
	if _, err := h.Reliability(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(log.String(), "replayed from journal") {
		t.Errorf("journal with a mismatched fingerprint must not replay:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "discarded previous content") {
		t.Errorf("journal discard must be logged:\n%s", log.String())
	}
}

// TestUndecodableJournalValueRendersFailed: a journaled result that no
// longer decodes as its cell's type fails that cell alone. The
// artifact renders FAILED(<error>) in its place and every other cell
// as usual.
func TestUndecodableJournalValueRendersFailed(t *testing.T) {
	cases := []struct {
		key, value, want string
		// rendered is a sibling cell's row that must still render.
		rendered string
		render   func(h *Harness) error
	}{
		{"reliability/CASH/0", `"not a row"`, "CASH               0.00         FAILED(json: cannot unmarshal string into Go value o...)",
			"Static(2s/128KB)   1.60", func(h *Harness) error { _, err := h.Reliability(); return err }},
		{"overhead", `{"not":"text"}`, "Section VI-A: FAILED(json: cannot unmarshal object into Go value o...)",
			"", (*Harness).Overhead},
	}
	for _, c := range cases {
		journal := filepath.Join(t.TempDir(), "journal.jsonl")
		var buf bytes.Buffer
		h := reliabilityHarness(&buf)
		h.JournalPath, h.Resume = journal, true
		j, err := supervise.OpenJournal(journal, h.meta(), false)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Record(supervise.Entry{Status: supervise.StatusOK, Key: c.key, Attempt: 1,
			Value: json.RawMessage(c.value)}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.render(h); err != nil {
			t.Fatalf("%s: an undecodable cell must not abort the artifact: %v", c.key, err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, c.want+"\n") {
			t.Errorf("%s: report lacks %q:\n%s", c.key, c.want, out)
		}
		if !strings.Contains(out, c.rendered) {
			t.Errorf("%s: sibling row %q missing:\n%s", c.key, c.rendered, out)
		}
		if strings.Count(out, "FAILED") != 1 {
			t.Errorf("%s: only the undecodable cell may fail:\n%s", c.key, out)
		}
	}
}
