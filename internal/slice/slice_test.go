package slice

import (
	"testing"
	"testing/quick"

	"cash/internal/isa"
	"cash/internal/noc"
)

func TestDefaultConfigIsTableI(t *testing.T) {
	c := DefaultConfig()
	if c.FetchWidth != 2 || c.FunctionalUnits != 2 || c.PhysRegs != 128 ||
		c.LocalRegs != 64 || c.IssueWindow != 32 || c.ROBSize != 64 ||
		c.StoreBufferSize != 8 || c.MaxInflightLoads != 8 || c.MemDelay != 100 {
		t.Errorf("default config deviates from Table I: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	c := DefaultConfig()
	c.IssueWindow = c.ROBSize + 1
	if err := c.Validate(); err == nil {
		t.Error("issue window larger than ROB must fail")
	}
	c = DefaultConfig()
	c.FetchWidth = 0
	if err := c.Validate(); err == nil {
		t.Error("zero fetch width must fail")
	}
}

func TestNewSlice(t *testing.T) {
	s, err := New(3, noc.Coord{X: 0, Y: 3}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.L1I == nil || s.L1D == nil {
		t.Fatal("slices need L1 caches")
	}
	sample := s.ReadCounters(500)
	if sample.SliceID != 3 || sample.Timestamp != 500 {
		t.Errorf("sample identity wrong: %+v", sample)
	}
}

func TestRenamePrimarySemantics(t *testing.T) {
	var rt RenameTable
	rt.Init(64)
	rt.Write(5, 1)
	if p, v, ok := rt.Lookup(5); !ok || !p || v != 1 {
		t.Fatalf("after Write: primary=%v version=%d ok=%v", p, v, ok)
	}
	rt.Demote(5)
	if p, _, _ := rt.Lookup(5); p {
		t.Error("Demote should clear the primary bit")
	}
	rt.ReadIn(9, 7)
	if p, v, ok := rt.Lookup(9); !ok || p || v != 7 {
		t.Errorf("reader copy wrong: primary=%v version=%d ok=%v", p, v, ok)
	}
}

func TestRenameCopyInKeepsPrimary(t *testing.T) {
	var rt RenameTable
	rt.Init(64)
	rt.Write(5, 3)
	rt.ReadIn(5, 2) // stale forwarded value must not demote the primary
	if p, v, _ := rt.Lookup(5); !p || v != 3 {
		t.Errorf("primary lost by a read: primary=%v version=%d", p, v)
	}
}

func TestRenamePrimariesFlushSet(t *testing.T) {
	var rt RenameTable
	rt.Init(64)
	for g := isa.Reg(1); g <= 10; g++ {
		rt.Write(g, uint64(g))
	}
	rt.ReadIn(20, 1)
	ps := rt.Primaries(nil)
	if len(ps) != 10 {
		t.Fatalf("flush set has %d entries, want 10", len(ps))
	}
	for _, pc := range ps {
		if uint64(pc.Global) != pc.Version {
			t.Errorf("version mismatch for r%d: %d", pc.Global, pc.Version)
		}
	}
}

func TestRenameCapacityAndSpill(t *testing.T) {
	var rt RenameTable
	rt.Init(8)
	spilled := map[isa.Reg]bool{}
	rt.OnSpill = func(g isa.Reg) { spilled[g] = true }
	for g := isa.Reg(1); g <= 20; g++ {
		rt.Write(g, uint64(g))
	}
	if mapped(&rt) > 8 {
		t.Fatalf("mapped %d exceeds 8 local registers", mapped(&rt))
	}
	if rt.Spills == 0 || len(spilled) == 0 {
		t.Error("writing 20 primaries into 8 locals must spill")
	}
}

func TestRenameEvictionPrefersReaders(t *testing.T) {
	var rt RenameTable
	rt.Init(4)
	rt.Write(1, 1)
	rt.Write(2, 2)
	rt.ReadIn(10, 1)
	rt.ReadIn(11, 1)
	// A new write must evict a reader copy, not a primary.
	rt.Write(3, 3)
	if _, _, ok := rt.Lookup(1); !ok {
		t.Error("primary r1 evicted while readers were available")
	}
	if _, _, ok := rt.Lookup(2); !ok {
		t.Error("primary r2 evicted while readers were available")
	}
	if rt.Spills != 0 {
		t.Errorf("spills = %d, want 0", rt.Spills)
	}
}

func TestRenameMappedBoundQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		var rt RenameTable
		rt.Init(16)
		ver := uint64(0)
		for _, op := range ops {
			g := isa.Reg(op%127) + 1
			ver++
			if op%3 == 0 {
				rt.ReadIn(g, ver)
			} else {
				rt.Write(g, ver)
			}
		}
		return mapped(&rt) <= 16 && len(rt.Primaries(nil)) <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRenameReset(t *testing.T) {
	var rt RenameTable
	rt.Init(8)
	rt.Write(1, 1)
	rt.Reset()
	if mapped(&rt) != 0 {
		t.Error("Reset should drop all mappings")
	}
	if _, _, ok := rt.Lookup(1); ok {
		t.Error("mapping survived Reset")
	}
}

// mapped returns the number of globals t currently maps.
func mapped(t *RenameTable) int {
	n := 0
	for _, lr := range t.local {
		if lr.valid {
			n++
		}
	}
	return n
}
