package figs

import (
	"bytes"
	"strings"
	"testing"
)

// testHarness runs at a tiny scale with no persistent cache so tests
// stay hermetic and fast.
func testHarness(buf *bytes.Buffer) *Harness {
	h := New(buf)
	h.Scale = 0.02
	h.CachePath = "-"
	return h
}

func TestTables(t *testing.T) {
	var buf bytes.Buffer
	h := testHarness(&buf)
	h.Table1()
	h.Table2()
	out := buf.String()
	for _, want := range []string{"Table I", "Table II", "ROB size", "distance*2+4"} {
		if !strings.Contains(out, want) {
			t.Errorf("tables output missing %q", want)
		}
	}
}

func TestOverheadReport(t *testing.T) {
	var buf bytes.Buffer
	h := testHarness(&buf)
	if err := h.Overhead(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "  15 cycles") {
		t.Errorf("expansion should cost 15 cycles:\n%s", out)
	}
	if !strings.Contains(out, "8192 cycles per 64KB bank") {
		t.Errorf("L2 flush worst case missing:\n%s", out)
	}
}

func TestFig1Small(t *testing.T) {
	if testing.Short() {
		t.Skip("characterisation sweep in -short mode")
	}
	var buf bytes.Buffer
	h := testHarness(&buf)
	if err := h.Fig1(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "(k) Phase breakdown") {
		t.Error("phase breakdown missing")
	}
	if !strings.Contains(out, "consecutive-phase optimum moves") {
		t.Error("optimum-move analysis missing")
	}
}

func TestFig7SingleAppShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs in -short mode")
	}
	// Run the Fig 7 machinery on one application and check the
	// structural invariants: optimal is cheapest, race-to-idle does not
	// violate QoS.
	var buf bytes.Buffer
	h := testHarness(&buf)
	h.Scale = 0.05
	s, err := h.setupNamed("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	rti, err := h.run("test", s, raceToIdle(s.WorstCase))
	if err != nil {
		t.Fatal(err)
	}
	if rti.ViolationRate > 0.05 {
		t.Errorf("race-to-idle violated %.1f%% of quanta; its guarantee is the point (§II-B)",
			100*rti.ViolationRate)
	}
	if rti.TotalCost < s.OptCost*0.95 {
		t.Errorf("race-to-idle ($%g) cannot beat the analytic optimum ($%g)",
			rti.TotalCost, s.OptCost)
	}
	cash, err := h.run("test", s, h.cashDefault(s.Target))
	if err != nil {
		t.Fatal(err)
	}
	if cash.TotalCost <= 0 {
		t.Error("CASH run must cost something")
	}
}
