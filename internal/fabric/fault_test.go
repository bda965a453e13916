package fabric

import (
	"testing"
	"testing/quick"

	"cash/internal/noc"
	"cash/internal/vcore"
)

func TestResizeRollsBackOnBankFailure(t *testing.T) {
	// 4 slices, 4 banks. Tenant A holds 2s+2b, tenant B 1s+2b, leaving
	// 1 free slice and 0 free banks. Growing A to 3s/256KB can satisfy
	// the slice expand but not the bank expand — the slice delta must be
	// rolled back so A's allocation is unchanged on error.
	c := MustChip(4, 2)
	a, err := c.Allocate(vcore.Config{Slices: 2, L2KB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate(vcore.Config{Slices: 1, L2KB: 128}); err != nil {
		t.Fatal(err)
	}
	if c.FreeSlices() != 1 || c.FreeBanks() != 0 {
		t.Fatalf("setup wrong: %d slices, %d banks free", c.FreeSlices(), c.FreeBanks())
	}
	before, _ := c.Allocation(a)
	beforeSlices := append([]noc.Coord(nil), before.Slices...)
	beforeBanks := append([]noc.Coord(nil), before.Banks...)

	if err := c.Resize(a, vcore.Config{Slices: 3, L2KB: 256}); err == nil {
		t.Fatal("resize must fail: no free banks")
	}
	after, _ := c.Allocation(a)
	if len(after.Slices) != 2 || len(after.Banks) != 2 {
		t.Fatalf("allocation changed on failed resize: %d slices, %d banks", len(after.Slices), len(after.Banks))
	}
	for i, p := range beforeSlices {
		if after.Slices[i] != p {
			t.Errorf("slice %d moved: %v -> %v", i, p, after.Slices[i])
		}
		if tile := *c.at(p); tile.Owner != a {
			t.Errorf("slice tile %v owner %d, want %d", p, tile.Owner, a)
		}
	}
	for i, p := range beforeBanks {
		if after.Banks[i] != p {
			t.Errorf("bank %d moved: %v -> %v", i, p, after.Banks[i])
		}
	}
	if c.FreeSlices() != 1 || c.FreeBanks() != 0 {
		t.Errorf("free counts drifted: %d slices, %d banks", c.FreeSlices(), c.FreeBanks())
	}
	checkOwnership(t, c)
}

func TestFailFreeTileShrinksPool(t *testing.T) {
	c := MustChip(4, 2)
	out, err := c.Fail(noc.Coord{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out.Tenant != 0 || out.Remapped || out.Degraded || out.Evicted {
		t.Errorf("failing a free tile should be silent: %+v", out)
	}
	if c.FreeSlices() != 3 || failedTiles(c) != 1 {
		t.Errorf("free=%d failed=%d, want 3/1", c.FreeSlices(), failedTiles(c))
	}
	// The failed tile must never be allocated.
	if _, err := c.Allocate(vcore.Config{Slices: 4, L2KB: 64}); err == nil {
		t.Error("allocation needing the failed tile must be refused")
	}
	id, err := c.Allocate(vcore.Config{Slices: 3, L2KB: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Allocation(id)
	for _, p := range a.Slices {
		if p == (noc.Coord{X: 0, Y: 0}) {
			t.Error("failed tile was allocated")
		}
	}
	// Out-of-range positions are rejected.
	if _, err := c.Fail(noc.Coord{X: 9, Y: 0}); err == nil {
		t.Error("out-of-range Fail must error")
	}
	if err := c.Repair(noc.Coord{X: -1, Y: 0}); err == nil {
		t.Error("out-of-range Repair must error")
	}
}

func TestFailOwnedTileRemaps(t *testing.T) {
	c := MustChip(8, 8)
	id, err := c.Allocate(vcore.Config{Slices: 2, L2KB: 128})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Allocation(id)
	victim := a.Slices[0]
	out, err := c.Fail(victim)
	if err != nil {
		t.Fatal(err)
	}
	if out.Tenant != id || !out.Remapped || out.Degraded || out.Evicted {
		t.Fatalf("plenty of spares: expected a remap, got %+v", out)
	}
	a, _ = c.Allocation(id)
	if cfg, err := a.Config(); err != nil || cfg != (vcore.Config{Slices: 2, L2KB: 128}) {
		t.Errorf("remap must preserve the configuration, got %v (%v)", cfg, err)
	}
	if tile := *c.at(victim); tile.Owner != 0 || !tile.Failed {
		t.Errorf("failed tile should be disowned and failed: %+v", tile)
	}
	if tile := *c.at(out.NewPos); tile.Owner != id {
		t.Errorf("replacement tile at %v not owned by tenant", out.NewPos)
	}
	// Failing the same tile again is a no-op.
	again, err := c.Fail(victim)
	if err != nil || again.Tenant != 0 {
		t.Errorf("double fail should be a no-op: %+v (%v)", again, err)
	}
	checkOwnership(t, c)
}

func TestFailWithoutSpareDegrades(t *testing.T) {
	// A full chip: 4 slices, 4 banks all owned by one tenant.
	c := MustChip(4, 2)
	id, err := c.Allocate(vcore.Config{Slices: 4, L2KB: 256})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Allocation(id)
	out, err := c.Fail(a.Slices[3])
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Config != (vcore.Config{Slices: 3, L2KB: 256}) {
		t.Fatalf("slice loss with no spare must degrade to 3s/256KB, got %+v", out)
	}
	a, _ = c.Allocation(id)
	if cfg, err := a.Config(); err != nil || cfg != out.Config {
		t.Errorf("allocation %v does not realise the degraded config (%v)", cfg, err)
	}

	// Now lose a bank: 4 banks -> 3 survive -> round down to 2 (128KB),
	// releasing one healthy bank back to the pool.
	out, err = c.Fail(a.Banks[0])
	if err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Config != (vcore.Config{Slices: 3, L2KB: 128}) {
		t.Fatalf("bank loss must degrade to 3s/128KB, got %+v", out)
	}
	if c.FreeBanks() != 1 {
		t.Errorf("the surplus healthy bank should be free again, free=%d", c.FreeBanks())
	}
	checkOwnership(t, c)
}

func TestFailLastSliceEvicts(t *testing.T) {
	c := MustChip(2, 1)
	id, err := c.Allocate(vcore.Config{Slices: 1, L2KB: 64})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Allocation(id)
	out, err := c.Fail(a.Slices[0])
	if err != nil {
		t.Fatal(err)
	}
	if !out.Evicted || out.Tenant != id {
		t.Fatalf("losing the last slice with no spare must evict: %+v", out)
	}
	if _, ok := c.Allocation(id); ok {
		t.Error("evicted tenant still present")
	}
	if c.FreeBanks() != 1 {
		t.Error("evicted tenant's bank should be free")
	}
	checkOwnership(t, c)
}

func TestRepairReturnsTileToService(t *testing.T) {
	c := MustChip(4, 2)
	id, _ := c.Allocate(vcore.Config{Slices: 4, L2KB: 256})
	a, _ := c.Allocation(id)
	victim := a.Slices[0]
	if _, err := c.Fail(victim); err != nil {
		t.Fatal(err)
	}
	// Degraded to 3s; expansion back to 4s is impossible while failed.
	if err := c.Resize(id, vcore.Config{Slices: 4, L2KB: 256}); err == nil {
		t.Fatal("expansion must be denied while the tile is failed")
	}
	if err := c.Repair(victim); err != nil {
		t.Fatal(err)
	}
	if failedTiles(c) != 0 {
		t.Error("repair did not clear the failure")
	}
	if err := c.Resize(id, vcore.Config{Slices: 4, L2KB: 256}); err != nil {
		t.Errorf("expansion after repair should succeed: %v", err)
	}
	// Repairing a healthy tile is a no-op.
	if err := c.Repair(victim); err != nil {
		t.Errorf("double repair: %v", err)
	}
	checkOwnership(t, c)
}

// checkOwnership asserts the chip's core invariants: every owned tile
// belongs to exactly one tenant's allocation and vice versa, no tile is
// double-assigned, failed tiles are never owned, and the per-kind
// accounting covers the whole chip.
func checkOwnership(t *testing.T, c *Chip) {
	t.Helper()
	w, h := c.width, c.height
	claimed := map[noc.Coord]TenantID{}
	for _, id := range c.Tenants() {
		a, ok := c.Allocation(id)
		if !ok {
			t.Fatalf("tenant %d listed but has no allocation", id)
		}
		for _, p := range append(append([]noc.Coord{}, a.Slices...), a.Banks...) {
			if prev, dup := claimed[p]; dup {
				t.Fatalf("tile %v claimed by tenants %d and %d", p, prev, id)
			}
			claimed[p] = id
		}
	}
	owned, failed := 0, 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := noc.Coord{X: x, Y: y}
			tile := *c.at(p)
			if tile.Failed {
				failed++
				if tile.Owner != 0 {
					t.Fatalf("failed tile %v is owned by tenant %d", p, tile.Owner)
				}
			}
			if tile.Owner != 0 {
				owned++
				if claimed[p] != tile.Owner {
					t.Fatalf("tile %v owner %d but claimed by %d", p, tile.Owner, claimed[p])
				}
			} else if id, ok := claimed[p]; ok {
				t.Fatalf("tile %v free but claimed by tenant %d", p, id)
			}
		}
	}
	if owned != len(claimed) {
		t.Fatalf("%d owned tiles vs %d claimed", owned, len(claimed))
	}
	if owned+failed+c.FreeSlices()+c.FreeBanks() != w*h {
		t.Fatalf("accounting broken: owned=%d failed=%d free=%d+%d chip=%d",
			owned, failed, c.FreeSlices(), c.FreeBanks(), w*h)
	}
}

func TestChurnInvariantsQuick(t *testing.T) {
	// Random Allocate/Resize/Release/Compact/Fail/Repair sequences must
	// always leave tile ownership consistent with the tenants map and
	// never double-assign a tile.
	f := func(ops []uint16) bool {
		c := MustChip(8, 8)
		var live []TenantID
		for _, op := range ops {
			pos := noc.Coord{X: int(op>>4) % 8, Y: int(op>>8) % 8}
			switch op % 6 {
			case 0, 1: // allocate
				cfg := vcore.Config{Slices: 1 + int(op>>4)%4, L2KB: 64 << (op >> 6 % 3)}
				if id, err := c.Allocate(cfg); err == nil {
					live = append(live, id)
				}
			case 2: // resize
				if len(live) > 0 {
					id := live[int(op>>4)%len(live)]
					cfg := vcore.Config{Slices: 1 + int(op>>6)%6, L2KB: 64 << (op >> 9 % 4)}
					_ = c.Resize(id, cfg)
				}
			case 3: // release
				if len(live) > 0 {
					i := int(op>>4) % len(live)
					_ = c.Release(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 4: // fail (eviction and remap both allowed)
				if out, err := c.Fail(pos); err == nil && out.Evicted {
					for i, id := range live {
						if id == out.Tenant {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			case 5: // repair or compact
				if op>>4%2 == 0 {
					_ = c.Repair(pos)
				} else {
					c.Compact()
				}
			}
			if failed := quietCheck(c); failed != "" {
				t.Logf("after op %d (%v): %s\n%s", op, pos, failed, c.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// quietCheck is checkOwnership without the testing.T plumbing, for use
// inside quick.Check predicates. It returns "" when invariants hold.
func quietCheck(c *Chip) string {
	w, h := c.width, c.height
	claimed := map[noc.Coord]TenantID{}
	for _, id := range c.Tenants() {
		a, ok := c.Allocation(id)
		if !ok {
			return "tenant listed without allocation"
		}
		if _, err := a.Config(); err != nil {
			return "allocation outside the configuration space: " + err.Error()
		}
		for _, p := range append(append([]noc.Coord{}, a.Slices...), a.Banks...) {
			if _, dup := claimed[p]; dup {
				return "tile double-assigned"
			}
			claimed[p] = id
		}
	}
	owned, failed := 0, 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			p := noc.Coord{X: x, Y: y}
			tile := *c.at(p)
			if tile.Failed {
				failed++
				if tile.Owner != 0 {
					return "failed tile is owned"
				}
			}
			if tile.Owner != 0 {
				owned++
				if claimed[p] != tile.Owner {
					return "tile owner not in tenants map"
				}
			} else if _, ok := claimed[p]; ok {
				return "claimed tile has no owner"
			}
		}
	}
	if owned != len(claimed) {
		return "owned/claimed count mismatch"
	}
	if owned+failed+c.FreeSlices()+c.FreeBanks() != w*h {
		return "tile accounting does not cover the chip"
	}
	return ""
}

// failedTiles counts c's tiles currently out of service.
func failedTiles(c *Chip) int {
	n := 0
	for i := range c.tiles {
		if c.tiles[i].Failed {
			n++
		}
	}
	return n
}
