package fabric

import (
	"strings"
	"testing"
	"testing/quick"

	"cash/internal/vcore"
)

func TestNewChipValidation(t *testing.T) {
	if _, err := NewChip(3, 4); err == nil {
		t.Error("odd width must fail")
	}
	if _, err := NewChip(0, 4); err == nil {
		t.Error("zero width must fail")
	}
	c := MustChip(8, 8)
	if c.width != 8 || c.height != 8 {
		t.Errorf("chip is %dx%d, want 8x8", c.width, c.height)
	}
	if c.FreeSlices() != 32 || c.FreeBanks() != 32 {
		t.Errorf("free tiles %d/%d, want 32/32 on a checkerboard", c.FreeSlices(), c.FreeBanks())
	}
}

func TestAllocateAndRelease(t *testing.T) {
	c := MustChip(8, 8)
	cfg := vcore.Config{Slices: 4, L2KB: 256}
	id, err := c.Allocate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := c.Allocation(id)
	if !ok {
		t.Fatal("allocation not recorded")
	}
	if len(a.Slices) != 4 || len(a.Banks) != 4 {
		t.Fatalf("allocation holds %d slices, %d banks", len(a.Slices), len(a.Banks))
	}
	if got, _ := a.Config(); got != cfg {
		t.Errorf("Config = %s, want %s", got, cfg)
	}
	if c.FreeSlices() != 28 || c.FreeBanks() != 28 {
		t.Error("free counts not decremented")
	}
	if err := c.Release(id); err != nil {
		t.Fatal(err)
	}
	if c.FreeSlices() != 32 || c.FreeBanks() != 32 {
		t.Error("release did not free the tiles")
	}
	if err := c.Release(id); err == nil {
		t.Error("double release must fail")
	}
}

func TestAllocateExhaustion(t *testing.T) {
	c := MustChip(4, 2) // 4 slices, 4 banks
	if _, err := c.Allocate(vcore.Config{Slices: 8, L2KB: 64}); err == nil {
		t.Error("over-allocation must fail")
	}
	if _, err := c.Allocate(vcore.Config{Slices: 4, L2KB: 256}); err != nil {
		t.Fatalf("exact-fit allocation failed: %v", err)
	}
	if _, err := c.Allocate(vcore.Config{Slices: 1, L2KB: 64}); err == nil {
		t.Error("allocation on a full chip must fail")
	}
}

func TestAllocationIsCompact(t *testing.T) {
	c := MustChip(16, 16)
	id, err := c.Allocate(vcore.Config{Slices: 8, L2KB: 512})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := c.Spread(id)
	if err != nil {
		t.Fatal(err)
	}
	// Eight slices on an empty 16x16 chip should sit within a few hops
	// of each other; a random scatter would average ~10.
	if spread > 5 {
		t.Errorf("fresh allocation spread %.1f, want compact (<=5)", spread)
	}
}

func TestResize(t *testing.T) {
	c := MustChip(8, 8)
	id, _ := c.Allocate(vcore.Config{Slices: 2, L2KB: 128})
	if err := c.Resize(id, vcore.Config{Slices: 6, L2KB: 512}); err != nil {
		t.Fatal(err)
	}
	a, _ := c.Allocation(id)
	if len(a.Slices) != 6 || len(a.Banks) != 8 {
		t.Fatalf("after grow: %d slices, %d banks", len(a.Slices), len(a.Banks))
	}
	if err := c.Resize(id, vcore.Config{Slices: 1, L2KB: 64}); err != nil {
		t.Fatal(err)
	}
	a, _ = c.Allocation(id)
	if len(a.Slices) != 1 || len(a.Banks) != 1 {
		t.Fatalf("after shrink: %d slices, %d banks", len(a.Slices), len(a.Banks))
	}
	if c.FreeSlices() != 31 || c.FreeBanks() != 31 {
		t.Error("shrink did not free tiles")
	}
	if err := c.Resize(999, vcore.Min()); err == nil {
		t.Error("resizing an unknown tenant must fail")
	}
}

func TestDistances(t *testing.T) {
	c := MustChip(8, 8)
	id, _ := c.Allocate(vcore.Config{Slices: 2, L2KB: 256})
	d, err := c.Distances(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 4 {
		t.Fatalf("got %d distances, want 4", len(d))
	}
	for _, v := range d {
		if v < 1 {
			t.Errorf("distance %d < 1", v)
		}
	}
	if _, err := c.Distances(999); err == nil {
		t.Error("unknown tenant must fail")
	}
}

func TestFragmentationAndCompact(t *testing.T) {
	c := MustChip(8, 8)
	// Allocate a row of tenants, then release every other one to
	// fragment the free space.
	var ids []TenantID
	for i := 0; i < 8; i++ {
		id, err := c.Allocate(vcore.Config{Slices: 4, L2KB: 256})
		if err != nil {
			break
		}
		ids = append(ids, id)
	}
	if len(ids) < 4 {
		t.Fatalf("only %d tenants placed", len(ids))
	}
	for i := 0; i < len(ids); i += 2 {
		c.Release(ids[i])
	}
	before := c.Fragmentation()
	moved := c.Compact()
	after := c.Fragmentation()
	if after > before {
		t.Errorf("compaction increased fragmentation: %.2f -> %.2f", before, after)
	}
	if moved == 0 && before > 0 {
		t.Error("compaction of a fragmented chip should move tiles")
	}
	// Survivors keep their resources.
	for i := 1; i < len(ids); i += 2 {
		a, ok := c.Allocation(ids[i])
		if !ok || len(a.Slices) != 4 || len(a.Banks) != 4 {
			t.Errorf("tenant %d lost resources in compaction", ids[i])
		}
	}
}

func TestChipString(t *testing.T) {
	c := MustChip(4, 2)
	id, _ := c.Allocate(vcore.Config{Slices: 1, L2KB: 64})
	s := c.String()
	if !strings.Contains(s, "1") {
		t.Errorf("occupancy map missing tenant %d:\n%s", id, s)
	}
	if len(strings.Split(strings.TrimSpace(s), "\n")) != 2 {
		t.Errorf("map should have 2 rows:\n%s", s)
	}
}

func TestAllocationInvariantsQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		c := MustChip(8, 8)
		var live []TenantID
		for _, op := range ops {
			switch {
			case op%3 != 0 || len(live) == 0:
				cfg := vcore.Config{Slices: 1 + int(op%4), L2KB: 64 << (op % 3)}
				if id, err := c.Allocate(cfg); err == nil {
					live = append(live, id)
				}
			default:
				c.Release(live[0])
				live = live[1:]
			}
		}
		// Invariant: owned + free tiles account for the whole chip, and
		// every tenant's tiles are owned by exactly that tenant.
		owned := 0
		for _, id := range live {
			a, ok := c.Allocation(id)
			if !ok {
				return false
			}
			owned += len(a.Slices) + len(a.Banks)
		}
		return owned+c.FreeSlices()+c.FreeBanks() == 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
