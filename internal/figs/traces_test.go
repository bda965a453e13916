package figs

import (
	"bytes"
	"testing"

	"cash/internal/workload"
)

// TestTraceSlots checks the slot rule: a hit reuses the slot, a miss
// evicts the least recently used slot no cell holds, a miss with every
// slot held gets none (and generates), and the end of the figure
// returns every slot's reservation to the process-wide budget, a slot
// still held by a straggling cell once that cell lets go.
func TestTraceSlots(t *testing.T) {
	var s traceSlots
	hmmer, _ := workload.ByName("hmmer")
	mcf, _ := workload.ByName("mcf")
	a, b := hmmer.Scale(0.001), mcf.Scale(0.001)

	if s.hold(a, 42, 1) != nil {
		t.Fatal("a slot was taken with no figure running")
	}
	s.open()
	first := s.hold(a, 42, 1)
	if first == nil {
		t.Fatal("an empty harness gave no slot")
	}
	tr := s.trace(first)
	if !tr.Of(a, 42) || s.recorded != 1 {
		t.Fatalf("first use recorded %d traces, want 1 of %s at seed 42", s.recorded, a.Name)
	}
	if held := workload.TraceHeld(); held != workload.TraceBytes(a) {
		t.Fatalf("%d bytes reserved for one trace of %d", held, workload.TraceBytes(a))
	}
	if s.hold(b, 42, 1) != nil {
		t.Fatal("a second app took the only slot while a cell held it")
	}
	if again := s.hold(a, 42, 1); again != first || s.trace(again) != tr {
		t.Fatal("a second hold of the same app and seed did not share the slot")
	} else {
		s.drop(again)
	}
	s.drop(first)

	other := s.hold(b, 42, 1)
	if other == nil || other == first || !s.trace(other).Of(b, 42) {
		t.Fatal("a miss did not evict the idle slot for the new app")
	}
	s.drop(other)
	if reseeded := s.hold(b, 43, 2); reseeded == other {
		t.Fatal("another seed shared a slot")
	} else {
		s.drop(reseeded)
	}
	if len(s.slots) != 2 {
		t.Fatalf("%d slots held with a limit of 2", len(s.slots))
	}
	straggler := s.hold(a, 42, 2)
	s.trace(straggler)
	s.close()
	if len(s.slots) != 1 || workload.TraceHeld() != workload.TraceBytes(a) {
		t.Fatalf("the figure's end left %d slots and %d reserved bytes, want only the held one", len(s.slots), workload.TraceHeld())
	}
	s.drop(straggler)
	if len(s.slots) != 0 || workload.TraceHeld() != 0 {
		t.Fatalf("the straggler's drop left %d slots and %d reserved bytes", len(s.slots), workload.TraceHeld())
	}
}

// TestTraceSlotsBudget checks the slot rule where the process-wide
// budget, not the slot limit, is the constraint: with room left for one
// trace, a miss evicts the idle slot to fit and a miss while a cell
// holds the slot gets none; a trace larger than the whole budget evicts
// nothing; and yield gives a cold sweep an idle slot's bytes, but only
// when the sweep's trace would not fit otherwise.
func TestTraceSlotsBudget(t *testing.T) {
	var s traceSlots
	hmmer, _ := workload.ByName("hmmer")
	mcf, _ := workload.ByName("mcf")
	x264, _ := workload.ByName("x264")
	a, b := hmmer.Scale(0.001), mcf.Scale(0.001)
	sa, sb := workload.TraceBytes(a), workload.TraceBytes(b)
	if workload.TraceBytes(x264) <= workload.TraceBudget {
		t.Fatalf("full-scale x264's trace (%d bytes) fits the budget", workload.TraceBytes(x264))
	}
	elsewhere := workload.TraceBudget - max(sa, sb)
	if !workload.ReserveTrace(elsewhere) {
		t.Fatalf("trace budget already holds %d bytes", workload.TraceHeld())
	}
	defer workload.ReleaseTrace(elsewhere)

	s.open()
	defer s.close()
	first := s.hold(a, 42, 4)
	if first == nil {
		t.Fatal("a trace that fits the budget got no slot")
	}
	if s.hold(b, 42, 4) != nil {
		t.Fatal("a second trace got a slot over the budget while a cell held the first")
	}
	s.yield(sa)
	if len(s.slots) != 1 {
		t.Fatal("yield evicted a slot a cell holds")
	}
	s.drop(first)

	if s.hold(x264, 42, 1) != nil || len(s.slots) != 1 {
		t.Fatalf("a trace over the whole budget got a slot or evicted one (%d slots left)", len(s.slots))
	}
	s.yield(workload.TraceBytes(x264))
	if len(s.slots) != 1 {
		t.Fatal("yield for a trace over the whole budget evicted an idle slot")
	}

	second := s.hold(b, 42, 4)
	if second == nil || len(s.slots) != 1 || workload.TraceHeld() != elsewhere+sb {
		t.Fatalf("a miss over the budget did not evict the idle slot: %d slots, %d bytes reserved", len(s.slots), workload.TraceHeld())
	}
	s.drop(second)
	s.yield(workload.TraceBudget - elsewhere - sb)
	if len(s.slots) != 1 {
		t.Fatal("yield evicted an idle slot for a trace that fits beside it")
	}
	s.yield(sa)
	if len(s.slots) != 0 || workload.TraceHeld() != elsewhere {
		t.Fatalf("yield left %d idle slots and %d reserved bytes for a sweep that needs their room", len(s.slots), workload.TraceHeld())
	}
}

// TestTraceFallbackKeepsReport: with the process-wide trace budget
// held elsewhere, a harness records nothing and every run generates its
// stream, and the report is byte-identical to one whose runs replay a
// recorded trace. The twelve reliability cells share one app and seed,
// so the replaying harness records exactly once, and it returns the
// budget when the figure ends.
func TestTraceFallbackKeepsReport(t *testing.T) {
	run := func() (string, int) {
		var buf bytes.Buffer
		h := reliabilityHarness(&buf)
		if _, err := h.Reliability(); err != nil {
			t.Fatal(err)
		}
		if held := workload.TraceHeld(); held != 0 {
			t.Fatalf("%d trace bytes still reserved after the figure returned", held)
		}
		return buf.String(), h.traces.recorded
	}
	replayed, recorded := run()
	if recorded != 1 {
		t.Fatalf("replaying harness recorded %d traces, want 1", recorded)
	}

	if !workload.ReserveTrace(workload.TraceBudget) {
		t.Fatalf("trace budget already holds %d bytes", workload.TraceHeld())
	}
	func() {
		defer workload.ReleaseTrace(workload.TraceBudget)
		var buf bytes.Buffer
		h := reliabilityHarness(&buf)
		if _, err := h.Reliability(); err != nil {
			t.Fatal(err)
		}
		if h.traces.recorded != 0 {
			t.Fatalf("over-budget harness recorded %d traces", h.traces.recorded)
		}
		if got := buf.String(); got != replayed {
			t.Errorf("report differs when every run generates:\n--- replayed\n%s\n--- generated\n%s", replayed, got)
		}
	}()
}

// TestColdSweepReclaimsIdleSlots: before a cold oracle sweep records
// its trace, the harness evicts idle slots whose bytes it needs, so
// slots no cell is using never push the sweep onto its per-
// configuration fallback; before a warm sweep, which records nothing,
// it keeps them.
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
	mcf, _ := workload.ByName("mcf")
	idle := mcf.Scale(0.001)
	elsewhere := workload.TraceBudget - workload.TraceBytes(app) - workload.TraceBytes(idle) + 1
	if !workload.ReserveTrace(elsewhere) {
		t.Fatalf("trace budget already holds %d bytes", workload.TraceHeld())
	}
	defer workload.ReleaseTrace(elsewhere)

	h.traces.open()
	defer h.traces.close()
	h.traces.drop(h.traces.hold(idle, 42, 1))
	h.characterize(app)
	if len(h.traces.slots) != 0 || workload.TraceHeld() != elsewhere {
		t.Fatalf("the cold sweep left %d idle slots and %d reserved bytes", len(h.traces.slots), workload.TraceHeld())
	}
	h.traces.drop(h.traces.hold(idle, 42, 1))
	h.characterize(app)
	if len(h.traces.slots) != 1 {
		t.Fatal("a warm sweep evicted an idle slot")
	}
}
