package workload

import (
	"sync"
	"testing"
)

// storeApps returns two small apps for the store tests and the bytes
// each one's trace holds.
func storeApps() (a, b App, sa, sb int64) {
	hmmer, _ := ByName("hmmer")
	mcf, _ := ByName("mcf")
	a, b = hmmer.Scale(0.001), mcf.Scale(0.001)
	return a, b, TraceBytes(a), TraceBytes(b)
}

// recordings returns a function reporting how many recordings the
// store has made since recordings was called.
func recordings() func() int64 {
	base := TracesRecorded()
	return func() int64 { return TracesRecorded() - base }
}

// TestHoldTraceSharesOneRecording: N goroutines' first holds of one
// (app, seed) get the same trace from a single recording, while another
// seed or another scale of the app gets a recording of its own. The
// goroutines keep their holds until all have one, so the first holder
// cannot drop the trace before the last asks for it.
func TestHoldTraceSharesOneRecording(t *testing.T) {
	a, _, sa, _ := storeApps()
	recorded := recordings()
	const n = 8
	got := make([]*Trace, n)
	var held, wg sync.WaitGroup
	held.Add(n)
	start := make(chan struct{})
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			tr, release := HoldTrace(a, 42)
			got[i] = tr
			held.Done()
			held.Wait()
			release()
		}()
	}
	close(start)
	wg.Wait()
	if recorded() != 1 {
		t.Fatalf("%d concurrent first holds made %d recordings, want 1", n, recorded())
	}
	for i, tr := range got {
		if tr == nil || tr != got[0] || !tr.Of(a, 42) {
			t.Fatalf("holder %d got trace %p, want the one recording %p of %s at seed 42", i, tr, got[0], a.Name)
		}
	}
	if held := TraceHeld(); held != 0 {
		t.Fatalf("%d bytes reserved after every holder released, outside a bracket", held)
	}

	first, releaseFirst := HoldTrace(a, 42)
	defer releaseFirst()
	for name, other := range map[string]struct {
		app  App
		seed uint64
	}{"another seed": {a, 43}, "another scale": {a.Scale(2), 42}} {
		before := recorded()
		tr, release := HoldTrace(other.app, other.seed)
		if tr == nil || tr == first || !tr.Of(other.app, other.seed) || recorded() != before+1 {
			t.Errorf("%s did not get a recording of its own", name)
		}
		if want := sa + TraceBytes(other.app); TraceHeld() != want {
			t.Errorf("%s: %d bytes reserved, want %d", name, TraceHeld(), want)
		}
		release()
	}
}

// TestHoldTraceMissDropsUnheld: inside a bracket a released trace stays
// live, and a later hold replays it without recording; a miss first
// drops every trace nobody holds, and keeps the held ones.
func TestHoldTraceMissDropsUnheld(t *testing.T) {
	a, b, sa, sb := storeApps()
	recorded := recordings()
	keep := KeepTraces()
	tr, release := HoldTrace(a, 42)
	release()
	if TraceHeld() != sa {
		t.Fatalf("an idle trace in a bracket holds %d bytes, want %d", TraceHeld(), sa)
	}
	again, release := HoldTrace(a, 42)
	release()
	if again != tr || recorded() != 1 {
		t.Fatalf("a hold of the idle trace made %d recordings, want it replayed", recorded())
	}

	held, releaseHeld := HoldTrace(a, 43)
	if _, release := HoldTrace(b, 42); TraceHeld() != sa+sb {
		t.Fatalf("the miss left %d bytes reserved, want the held trace's %d plus its own %d", TraceHeld(), sa, sb)
	} else {
		release()
	}
	if again, release := HoldTrace(a, 43); again != held {
		t.Fatal("a miss dropped a held trace")
	} else {
		release()
	}
	if _, release := HoldTrace(a, 42); recorded() != 4 {
		t.Fatalf("%d recordings, want 4: the dropped idle trace is recorded again", recorded())
	} else {
		release()
	}
	releaseHeld()
	keep()
	if held := TraceHeld(); held != 0 {
		t.Fatalf("%d bytes reserved after the bracket closed", held)
	}
}

// TestHoldTraceOverBudget: a trace that does not fit the budget left
// once the idle traces are dropped is not recorded and reserves
// nothing, and a trace over the whole budget drops no idle trace.
func TestHoldTraceOverBudget(t *testing.T) {
	a, b, sa, sb := storeApps()
	recorded := recordings()
	elsewhere := TraceBudget - sa - sb + 1
	if !ReserveTrace(elsewhere) {
		t.Fatalf("trace budget already holds %d bytes", TraceHeld())
	}
	defer ReleaseTrace(elsewhere)

	keep := KeepTraces()
	defer keep()
	_, releaseA := HoldTrace(a, 42)
	if tr, release := HoldTrace(b, 42); tr != nil {
		t.Fatal("a trace got recorded past the budget beside a held one")
	} else {
		release()
	}
	if TraceHeld() != elsewhere+sa || recorded() != 1 {
		t.Fatalf("the over-budget hold left %d bytes reserved and %d recordings, want %d and 1", TraceHeld(), recorded(), elsewhere+sa)
	}
	releaseA()

	x264 := x264App
	if TraceBytes(x264) <= TraceBudget {
		t.Fatalf("full-scale x264's trace (%d bytes) fits the budget", TraceBytes(x264))
	}
	if tr, release := HoldTrace(x264, 42); tr != nil || TraceHeld() != elsewhere+sa {
		t.Fatalf("a trace over the whole budget was recorded or dropped the idle one (%d bytes reserved)", TraceHeld())
	} else {
		release()
	}
	if tr, release := HoldTrace(b, 42); tr == nil || TraceHeld() != elsewhere+sb || recorded() != 2 {
		t.Fatalf("a miss did not drop the idle trace to fit (%d bytes reserved)", TraceHeld())
	} else {
		release()
	}
}

// TestKeepTracesBracket: closing the last open bracket drops every
// idle trace, a held one survives until its release, and outside a
// bracket a trace is dropped at its last release.
func TestKeepTracesBracket(t *testing.T) {
	a, b, _, sb := storeApps()
	outer, inner := KeepTraces(), KeepTraces()
	_, releaseA := HoldTrace(a, 42)
	_, releaseB := HoldTrace(b, 42)
	releaseA()
	inner()
	if held := TraceHeld(); held != TraceBytes(a)+sb {
		t.Fatalf("closing an inner bracket left %d bytes reserved, want both traces", held)
	}
	outer()
	if held := TraceHeld(); held != sb {
		t.Fatalf("closing the last bracket left %d bytes reserved, want only the held trace's %d", held, sb)
	}
	releaseB()
	if held := TraceHeld(); held != 0 {
		t.Fatalf("the straggler's release left %d bytes reserved", held)
	}
}

// TestHoldTracePanicReservesNothing: a definition Record panics on
// leaves no trace or reservation behind, so the next hold records (and
// panics) again instead of sharing a broken recording.
func TestHoldTracePanicReservesNothing(t *testing.T) {
	bad := App{Name: "bad", Phases: []Phase{{Name: "p"}}}
	hold := func() (panicked any) {
		defer func() { panicked = recover() }()
		HoldTrace(bad, 42)
		return nil
	}
	recorded := recordings()
	for i := 0; i < 2; i++ {
		if hold() == nil {
			t.Fatal("holding an invalid definition did not panic")
		}
		if held := TraceHeld(); held != 0 {
			t.Fatalf("%d bytes reserved after the recording panicked", held)
		}
	}
	if recorded() != 2 {
		t.Fatalf("%d recordings, want a fresh one per hold", recorded())
	}
}

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
