package mem

import (
	"math/rand"
	"testing"
)

// TestTouchMatchesAccess pins Touch's contract: for any interleaving of
// Access and Touch calls, Touch returns the same hit/miss verdict and
// drives the same state transition (allocation, LRU update, dirty
// marking) as Access would — only the statistics differ. Two caches
// replay one random probe sequence, one through Access and one through
// Touch; their verdicts must agree probe by probe and their final
// contents must be indistinguishable.
func TestTouchMatchesAccess(t *testing.T) {
	a := MustCache(16, 2)
	b := MustCache(16, 2)
	rng := rand.New(rand.NewSource(7))
	// Footprint ~4x the cache so evictions and re-allocations are common.
	addrs := make([]uint64, 1024)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(64*1024/int(BlockBytes))) * BlockBytes
	}
	for i := 0; i < 50_000; i++ {
		addr := addrs[rng.Intn(len(addrs))]
		write := rng.Intn(4) == 0
		ha, _ := a.Access(addr, write)
		hb := b.Touch(addr, write)
		if ha != hb {
			t.Fatalf("probe %d (addr %#x write %v): Access hit=%v, Touch hit=%v", i, addr, write, ha, hb)
		}
	}
	for _, addr := range addrs {
		if a.Contains(addr) != b.Contains(addr) {
			t.Fatalf("residency diverged at %#x: Access %v, Touch %v", addr, a.Contains(addr), b.Contains(addr))
		}
	}
	if a.DirtyLines() != b.DirtyLines() {
		t.Fatalf("dirty lines diverged: Access %d, Touch %d", a.DirtyLines(), b.DirtyLines())
	}
	if s := b.Stats(); s.Accesses != 0 || s.Hits != 0 || s.Misses != 0 || s.Writebacks != 0 {
		t.Errorf("Touch recorded statistics: %+v", s)
	}
}

// TestBankedTouchMatchesAccess repeats the equivalence through the
// banked L2's address hash, including a non-power-of-two bank count.
func TestBankedTouchMatchesAccess(t *testing.T) {
	for _, banks := range []int{4, 3} {
		a := mustBankedL2(banks)
		b := mustBankedL2(banks)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 50_000; i++ {
			addr := uint64(rng.Intn(16*1024)) * BlockBytes
			write := rng.Intn(4) == 0
			ha, _, _ := a.Access(addr, write)
			hb := b.Touch(addr, write)
			if ha != hb {
				t.Fatalf("banks=%d probe %d (addr %#x write %v): Access hit=%v, Touch hit=%v",
					banks, i, addr, write, ha, hb)
			}
		}
		if a.DirtyLines() != b.DirtyLines() {
			t.Fatalf("banks=%d dirty lines diverged: %d vs %d", banks, a.DirtyLines(), b.DirtyLines())
		}
		if s := b.Stats(); s.Accesses != 0 {
			t.Errorf("banks=%d: Touch recorded statistics: %+v", banks, s)
		}
	}
}
