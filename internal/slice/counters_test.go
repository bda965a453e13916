package slice

import "testing"

func TestCountersAdd(t *testing.T) {
	a := Counters{Cycles: 100, Committed: 50, L1DMisses: 5}
	b := Counters{Cycles: 80, Committed: 30, L2Misses: 2}
	a.Add(b)
	if a.Cycles != 100 {
		t.Errorf("Cycles should take the max (shared clock), got %d", a.Cycles)
	}
	if a.Committed != 80 || a.L1DMisses != 5 || a.L2Misses != 2 {
		t.Errorf("additive counters wrong: %+v", a)
	}
}

func TestIPC(t *testing.T) {
	if (Counters{}).IPC() != 0 {
		t.Error("zero cycles must give zero IPC")
	}
	c := Counters{Cycles: 200, Committed: 100}
	if c.IPC() != 0.5 {
		t.Errorf("IPC = %v, want 0.5", c.IPC())
	}
}

func TestSynthesizeVCore(t *testing.T) {
	agg := SynthesizeVCore([]Sample{
		{SliceID: 0, Timestamp: 105, Counters: Counters{Committed: 40}},
		{SliceID: 1, Timestamp: 103, Counters: Counters{Committed: 25}},
	})
	if agg.Committed != 65 {
		t.Errorf("Committed = %d, want 65", agg.Committed)
	}
	if agg.Cycles != 105 {
		t.Errorf("Cycles should be the latest timestamp, got %d", agg.Cycles)
	}
}
