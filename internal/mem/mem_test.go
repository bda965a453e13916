package mem

import (
	"testing"
	"testing/quick"
)

func TestCacheGeometryErrors(t *testing.T) {
	for _, c := range []struct{ kb, assoc int }{{0, 2}, {16, 0}, {16, 3}, {7, 2}} {
		if _, err := NewCache(c.kb, c.assoc); err == nil {
			t.Errorf("NewCache(%d,%d) should fail", c.kb, c.assoc)
		}
	}
	c := MustCache(16, 2)
	if c.sets != 128 || c.SizeKB() != 16 || c.assoc != 2 {
		t.Errorf("16KB/2-way: sets=%d size=%d assoc=%d", c.sets, c.SizeKB(), c.assoc)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := MustCache(16, 2)
	if hit, _ := c.Access(0x1000, false); hit {
		t.Error("cold cache should miss")
	}
	if hit, _ := c.Access(0x1000, false); !hit {
		t.Error("repeat access should hit")
	}
	if hit, _ := c.Access(0x1000+BlockBytes-1, false); !hit {
		t.Error("same block should hit")
	}
	if hit, _ := c.Access(0x1000+BlockBytes, false); hit {
		t.Error("next block should miss")
	}
	s := c.Stats()
	if s.Accesses != 4 || s.Hits != 2 || s.Misses != 2 {
		t.Errorf("stats %+v, want 4/2/2", s)
	}
}

func TestCacheLRU(t *testing.T) {
	c := MustCache(16, 2) // 128 sets
	setStride := uint64(c.sets * BlockBytes)
	// Three blocks mapping to the same set in a 2-way cache.
	a, b, d := uint64(0), setStride, 2*setStride
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	c.Access(d, false) // evicts b (LRU)
	if !c.Contains(a) {
		t.Error("a should survive (MRU)")
	}
	if c.Contains(b) {
		t.Error("b should be evicted (LRU)")
	}
	if !c.Contains(d) {
		t.Error("d should be resident")
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := MustCache(16, 2)
	setStride := uint64(c.sets * BlockBytes)
	c.Access(0, true) // dirty
	if c.DirtyLines() != 1 {
		t.Fatalf("DirtyLines = %d, want 1", c.DirtyLines())
	}
	c.Access(setStride, false)
	if _, wb := c.Access(2*setStride, false); !wb {
		t.Error("evicting the dirty line must report a writeback")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("Writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestCacheFlush(t *testing.T) {
	c := MustCache(16, 2)
	for i := uint64(0); i < 10; i++ {
		c.Access(i*BlockBytes, i%2 == 0)
	}
	dirtyBefore := c.DirtyLines()
	flushed := c.Flush()
	if flushed != dirtyBefore {
		t.Errorf("Flush returned %d, want %d dirty lines", flushed, dirtyBefore)
	}
	if c.ValidLines() != 0 || c.DirtyLines() != 0 {
		t.Error("flush must empty the cache")
	}
	if FlushCycles(flushed) != int64(flushed)*BlockBytes/NetworkWidthBytes {
		t.Error("FlushCycles formula mismatch")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := MustCache(16, 2)
	c.Access(0x40, false)
	before := c.Stats()
	c.Contains(0x40)
	c.Contains(0x999999)
	if c.Stats() != before {
		t.Error("Contains must not touch statistics")
	}
}

func TestCacheAccountingQuick(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := MustCache(16, 2)
		for _, a := range addrs {
			c.Access(uint64(a), a%3 == 0)
		}
		s := c.Stats()
		return s.Accesses == s.Hits+s.Misses &&
			c.ValidLines() <= 16*1024/BlockBytes &&
			c.DirtyLines() <= c.ValidLines()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBankedLocateBijective(t *testing.T) {
	// Regression for the banked-aliasing bug: (bank, bankAddr) must be
	// a bijection of the block address so no two blocks collide and
	// every set is usable.
	for _, banks := range []int{1, 2, 4, 16, 128} {
		l2 := mustBankedL2(banks)
		seen := map[[2]uint64]uint64{}
		for block := uint64(0); block < 4096; block++ {
			addr := block * BlockBytes
			bank, ba := l2.locate(addr)
			key := [2]uint64{uint64(bank), ba}
			if prev, dup := seen[key]; dup {
				t.Fatalf("banks=%d: blocks %d and %d alias to bank %d addr %#x",
					banks, prev, block, bank, ba)
			}
			seen[key] = block
		}
	}
}

func TestBankedCapacityUsable(t *testing.T) {
	// Regression: a 1MB L2 must actually retain ~1MB of blocks.
	l2 := mustBankedL2(16) // 1MB
	blocks := 16 * 1024 * 1024 / 64 / 64
	footprint := uint64(512 * 1024) // 512KB working set fits comfortably
	for a := uint64(0); a < footprint; a += BlockBytes {
		l2.Access(a, false)
	}
	l2.ResetStats()
	for a := uint64(0); a < footprint; a += BlockBytes {
		if hit, _, _ := l2.Access(a, false); !hit {
			t.Fatalf("address %#x evicted from half-empty 1MB cache", a)
		}
	}
	_ = blocks
}

func TestBankedHitDelayGrowsWithDistance(t *testing.T) {
	small := mustBankedL2(1)
	big := mustBankedL2(128)
	if small.MeanHitDelay() >= big.MeanHitDelay() {
		t.Errorf("hit delay should grow with capacity: %f vs %f",
			small.MeanHitDelay(), big.MeanHitDelay())
	}
	if got := L2HitDelay(3); got != 10 {
		t.Errorf("L2HitDelay(3) = %d, want 10 (distance*2+4)", got)
	}
}

func TestDefaultDistancesMonotone(t *testing.T) {
	d := DefaultDistances(128)
	for i := 1; i < len(d); i++ {
		if d[i] < d[i-1] {
			t.Fatalf("distances must be non-decreasing: d[%d]=%d < d[%d]=%d", i, d[i], i-1, d[i-1])
		}
	}
	if d[0] < 1 {
		t.Error("nearest bank must be at least one hop away")
	}
}

func TestBankedReconfigure(t *testing.T) {
	l2 := mustBankedL2(2)
	var want int
	for a := uint64(0); a < 64*1024; a += BlockBytes {
		l2.Access(a, true)
		want++
	}
	dirty, err := l2.Reconfigure(4)
	if err != nil {
		t.Fatal(err)
	}
	if dirty != want {
		t.Errorf("Reconfigure flushed %d dirty lines, want %d", dirty, want)
	}
	if l2.Banks() != 4 {
		t.Errorf("Banks = %d, want 4", l2.Banks())
	}
	if hit, _, _ := l2.Access(0, false); hit {
		t.Error("cache must be cold after reconfiguration")
	}
	if _, err := l2.Reconfigure(0); err == nil {
		t.Error("reconfigure to zero banks must fail")
	}
}

func TestBankedReconfigureKeepsStats(t *testing.T) {
	l2 := mustBankedL2(2)
	for a := uint64(0); a < 32*1024; a += BlockBytes {
		l2.Access(a, true)
	}
	before := l2.Stats()
	dirty, _ := l2.Reconfigure(4)
	after := l2.Stats()
	if after.Accesses != before.Accesses || after.Misses != before.Misses {
		t.Errorf("access history lost across reconfigure: %+v -> %+v", before, after)
	}
	if after.Writebacks != before.Writebacks+int64(dirty) {
		t.Errorf("flush writebacks not accounted: %d -> %d (dirty %d)",
			before.Writebacks, after.Writebacks, dirty)
	}
}

// TestCacheResetMatchesFresh: a reset cache must be indistinguishable
// from a new one — same hit/miss sequence, same stats, no retained
// lines from its previous life.
func TestCacheResetMatchesFresh(t *testing.T) {
	used := MustCache(16, 2)
	for a := uint64(0); a < 64*uint64(BlockBytes); a += BlockBytes {
		used.Access(a, a%128 == 0)
	}
	used.Reset()
	fresh := MustCache(16, 2)
	for a := uint64(0); a < 32*uint64(BlockBytes); a += BlockBytes {
		hu, wu := used.Access(a, false)
		hf, wf := fresh.Access(a, false)
		if hu != hf || wu != wf {
			t.Fatalf("addr %#x: reset (%v,%v) vs fresh (%v,%v)", a, hu, wu, hf, wf)
		}
	}
	if used.Stats() != fresh.Stats() {
		t.Errorf("stats after reset %+v vs fresh %+v", used.Stats(), fresh.Stats())
	}
}

// TestBankedResetMatchesFresh covers the shrink-then-regrow hazard: a
// bank deactivated with dirty lines must come back cold when Reset
// re-activates it.
func TestBankedResetMatchesFresh(t *testing.T) {
	used := mustBankedL2(8)
	for a := uint64(0); a < 512*uint64(BlockBytes); a += BlockBytes {
		used.Access(a, true) // dirty every touched line
	}
	if err := used.Reset(2); err != nil { // drop to 2 banks...
		t.Fatal(err)
	}
	if err := used.Reset(8); err != nil { // ...and regrow, re-activating old banks
		t.Fatal(err)
	}
	fresh := mustBankedL2(8)
	for a := uint64(0); a < 256*uint64(BlockBytes); a += BlockBytes {
		hu, du, wu := used.Access(a, false)
		hf, df, wf := fresh.Access(a, false)
		if hu != hf || du != df || wu != wf {
			t.Fatalf("addr %#x: reset (%v,%d,%v) vs fresh (%v,%d,%v)", a, hu, du, wu, hf, df, wf)
		}
	}
	if used.Stats() != fresh.Stats() {
		t.Errorf("stats after reset %+v vs fresh %+v", used.Stats(), fresh.Stats())
	}
}

func TestSetDistances(t *testing.T) {
	l2 := mustBankedL2(4)
	if err := l2.SetDistances([]int{1, 2}); err == nil {
		t.Error("wrong length must fail")
	}
	if err := l2.SetDistances([]int{1, 2, 3, -1}); err == nil {
		t.Error("negative distance must fail")
	}
	if err := l2.SetDistances([]int{5, 5, 5, 5}); err != nil {
		t.Fatal(err)
	}
	if l2.MeanHitDelay() != float64(L2HitDelay(5)) {
		t.Errorf("MeanHitDelay = %f, want %d", l2.MeanHitDelay(), L2HitDelay(5))
	}
}

// mustBankedL2 is NewBankedL2 for statically-valid bank counts.
func mustBankedL2(banks int) *BankedL2 {
	l2, err := NewBankedL2(banks)
	if err != nil {
		panic(err)
	}
	return l2
}
