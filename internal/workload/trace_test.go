package workload

import "testing"

// TestReserveTraceBudget checks the reservation arithmetic: nothing
// past the budget is granted, and a release frees its bytes.
func TestReserveTraceBudget(t *testing.T) {
	if ReserveTrace(TraceBudget + 1) {
		t.Fatal("a reservation larger than the budget was granted")
	}
	if !ReserveTrace(TraceBudget - 1) {
		t.Fatal("a reservation inside the budget was refused")
	}
	if !ReserveTrace(1) {
		t.Fatal("the budget's last byte was refused")
	}
	if ReserveTrace(1) {
		t.Fatal("a reservation past a full budget was granted")
	}
	ReleaseTrace(TraceBudget)
	if !ReserveTrace(1) {
		t.Fatal("released bytes were not reusable")
	}
	ReleaseTrace(1)
	if held := TraceHeld(); held != 0 {
		t.Fatalf("%d bytes still reserved after every release", held)
	}
}

// TestTraceOf checks that a trace knows the definition and seed it was
// recorded from, and nothing else: not another seed, not another scale
// of the same app, and not a caller's later edit of the phases it was
// recorded from.
func TestTraceOf(t *testing.T) {
	app, _ := ByName("hmmer")
	app = app.Scale(0.001)
	tr := Record(app, 42)
	if !tr.Of(app, 42) {
		t.Fatal("a trace does not match its own app and seed")
	}
	if !tr.Of(app.Scale(1), 42) {
		t.Fatal("a trace does not match an equal copy of its app")
	}
	if tr.Of(app, 43) {
		t.Fatal("a trace matches another seed")
	}
	if tr.Of(app.Scale(2), 42) {
		t.Fatal("a trace matches another scale of its app")
	}
	app.Phases[0].HotFrac /= 2
	if tr.Of(app, 42) {
		t.Fatal("editing the recorded app's phases edited the trace's definition")
	}
}
