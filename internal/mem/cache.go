// Package mem implements the CASH memory hierarchy: set-associative
// L1 instruction/data caches, the composable banked L2, and the main
// memory timing constants (Table II of the paper).
//
// Caches here are real tag arrays with LRU replacement and dirty-line
// tracking, not hit-rate formulas: the simulator feeds them the
// workload's actual address stream, so capacity and conflict behaviour
// — and therefore the shape of the configuration space — emerge rather
// than being assumed. Dirty-line tracking also drives the L2
// reconfiguration flush cost of §VI-A.
package mem

import "fmt"

// Table II constants.
const (
	// BlockBytes is the line size at every level.
	BlockBytes = 64
	// L1SizeKB and L1Assoc describe both L1I and L1D.
	L1SizeKB = 16
	L1Assoc  = 2
	// L1HitDelay is the L1 access latency in cycles.
	L1HitDelay = 3
	// L2BankKB is the capacity of one composable L2 bank.
	L2BankKB = 64
	// L2Assoc is the associativity of each L2 bank.
	L2Assoc = 4
	// MemDelay is the main-memory access latency in cycles (Table I).
	MemDelay = 100
	// NetworkWidthBytes is the flit width of the on-chip data networks;
	// it sets the dirty-line flush bandwidth during reconfiguration
	// (§VI-A: a full 64KB bank flush takes 64KB/8B = 8000 cycles).
	NetworkWidthBytes = 8
)

// L2HitDelay returns the L2 hit latency for a bank at the given
// Manhattan distance from the requesting Slice (Table II:
// "distance*2+4").
func L2HitDelay(distance int) int { return distance*2 + 4 }

// Stats counts cache events.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Writebacks int64
}

// Cache is a set-associative write-back, write-allocate cache with LRU
// replacement.
//
// The per-line bookkeeping is a single fused metadata word per line
// (valid bit, dirty bit and tag in one uint64) plus a recency stamp:
// probing a set is one contiguous-slice scan with a single compare per
// way, and an LRU touch is one store instead of an aging sweep. The
// replacement behaviour is bit-identical to a textbook age-counter LRU
// (guarded by TestCacheMatchesNaiveModel).
type Cache struct {
	sizeKB     int
	assoc      int
	sets       int
	setMask    uint64
	blockShift uint
	tagShift   uint

	// lines interleaves each way's two bookkeeping words:
	// lines[2*(set*assoc+way)] fuses the line's valid bit, dirty bit and
	// tag (tags are at most 58 bits — 64 minus blockShift, with
	// blockShift fixed at log2(64) — so the two flag bits never
	// collide), and lines[2*(set*assoc+way)+1] is the line's last-touch
	// stamp on its set's clock; the LRU victim is the valid way with the
	// smallest stamp. Stamps within a set are distinct, so the order is
	// strict. Interleaving keeps a whole set's metadata in one or two
	// host cache lines, so the probe and the LRU touch share the lines
	// the probe already pulled in.
	lines []uint64
	// clock[set] is the set's monotonically increasing touch counter.
	clock []uint64

	stats Stats
}

// Metadata-word layout.
const (
	metaValid = uint64(1) << 63
	metaDirty = uint64(1) << 62
)

// NewCache builds a cache of sizeKB kilobytes with the given
// associativity and the global 64-byte block size. Size must yield a
// power-of-two number of sets.
func NewCache(sizeKB, assoc int) (*Cache, error) {
	if sizeKB <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("mem: invalid cache geometry %dKB/%d-way", sizeKB, assoc)
	}
	lines := sizeKB * 1024 / BlockBytes
	if lines%assoc != 0 {
		return nil, fmt.Errorf("mem: %dKB is not divisible into %d-way sets", sizeKB, assoc)
	}
	sets := lines / assoc
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: %dKB/%d-way yields non-power-of-two set count %d", sizeKB, assoc, sets)
	}
	c := &Cache{
		sizeKB:     sizeKB,
		assoc:      assoc,
		sets:       sets,
		setMask:    uint64(sets - 1),
		blockShift: blockShift(),
		tagShift:   uint(log2(sets)),
		lines:      make([]uint64, 2*lines),
		clock:      make([]uint64, sets),
	}
	return c, nil
}

// MustCache is NewCache for statically-known-good geometries.
func MustCache(sizeKB, assoc int) *Cache {
	c, err := NewCache(sizeKB, assoc)
	if err != nil {
		panic(err)
	}
	return c
}

func blockShift() uint {
	s := uint(0)
	for 1<<s < BlockBytes {
		s++
	}
	return s
}

// SizeKB returns the cache capacity.
func (c *Cache) SizeKB() int { return c.sizeKB }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Reset returns the cache to its just-constructed state: every line
// invalid, set clocks and statistics zeroed. Unlike Flush it records
// nothing — the caller is recycling the structure for a fresh
// simulation, not modelling a writeback flush — so a Reset cache is
// indistinguishable from a NewCache of the same geometry.
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = 0
	}
	for i := range c.clock {
		c.clock[i] = 0
	}
	c.stats = Stats{}
}

// Access looks the address up, allocating on miss. write marks the line
// dirty. It reports whether the access hit and whether a dirty line was
// evicted (a writeback).
func (c *Cache) Access(addr uint64, write bool) (hit, writeback bool) {
	c.stats.Accesses++
	block := addr >> c.blockShift
	set := int(block & c.setMask)
	tag := block >> c.tagShift
	base := 2 * set * c.assoc
	want := metaValid | tag
	ln := c.lines[base : base+2*c.assoc : base+2*c.assoc]
	// Both the hit and miss paths tick the set clock exactly once, so
	// advance it up front and keep the new value in a register.
	cl := c.clock[set] + 1
	c.clock[set] = cl

	// Probe: one compare per way against the fused valid+tag word.
	for i := 0; i < len(ln); i += 2 {
		if ln[i]&^metaDirty == want {
			c.stats.Hits++
			if write {
				ln[i] |= metaDirty
			}
			ln[i+1] = cl
			return true, false
		}
	}

	// Miss: pick the victim by minimum stamp. Invalid ways carry stamp 0
	// and valid ways are stamped ≥ 1 (the clock pre-increments before the
	// first touch and Flush zeroes both), so one scan finds the first
	// invalid way if any exists, else the LRU way — the same choice the
	// two-pass invalid-then-LRU search makes.
	c.stats.Misses++
	victim, oldest := 0, ^uint64(0)
	for i := 1; i < len(ln); i += 2 {
		if st := ln[i]; st < oldest {
			oldest, victim = st, i-1
		}
	}
	writeback = ln[victim]&(metaValid|metaDirty) == metaValid|metaDirty
	if writeback {
		c.stats.Writebacks++
	}
	m := want
	if write {
		m |= metaDirty
	}
	ln[victim] = m
	ln[victim+1] = cl
	return false, writeback
}

// Touch is the functional-access mode: it performs exactly the state
// transition Access would — set-clock tick, LRU stamp, dirty marking,
// allocation and eviction — but records no statistics, and reports only
// whether the access hit. The fast simulation tiers use it to keep tag
// arrays evolving during functional fast-forward, so a later detailed
// window observes the cache state a full detailed run would have
// produced; the state equivalence is pinned by TestTouchMatchesAccess.
func (c *Cache) Touch(addr uint64, write bool) (hit bool) {
	block := addr >> c.blockShift
	set := int(block & c.setMask)
	tag := block >> c.tagShift
	base := 2 * set * c.assoc
	want := metaValid | tag
	ln := c.lines[base : base+2*c.assoc : base+2*c.assoc]
	cl := c.clock[set] + 1
	c.clock[set] = cl

	for i := 0; i < len(ln); i += 2 {
		if ln[i]&^metaDirty == want {
			if write {
				ln[i] |= metaDirty
			}
			ln[i+1] = cl
			return true
		}
	}

	victim, oldest := 0, ^uint64(0)
	for i := 1; i < len(ln); i += 2 {
		if st := ln[i]; st < oldest {
			oldest, victim = st, i-1
		}
	}
	m := want
	if write {
		m |= metaDirty
	}
	ln[victim] = m
	ln[victim+1] = cl
	return false
}

// Contains reports whether the address's block is resident, without
// perturbing LRU state or statistics.
func (c *Cache) Contains(addr uint64) bool {
	block := addr >> c.blockShift
	set := int(block & c.setMask)
	tag := block >> c.tagShift
	base := 2 * set * c.assoc
	want := metaValid | tag
	for w := 0; w < c.assoc; w++ {
		if c.lines[base+2*w]&^metaDirty == want {
			return true
		}
	}
	return false
}

// DirtyLines returns the number of resident dirty lines.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := 0; i < len(c.lines); i += 2 {
		if c.lines[i]&(metaValid|metaDirty) == metaValid|metaDirty {
			n++
		}
	}
	return n
}

// ValidLines returns the number of resident lines.
func (c *Cache) ValidLines() int {
	n := 0
	for i := 0; i < len(c.lines); i += 2 {
		if c.lines[i]&metaValid != 0 {
			n++
		}
	}
	return n
}

// Flush invalidates the whole cache and returns the number of dirty
// lines that had to be written back. The flush cost in cycles is
// dirtyLines*BlockBytes/NetworkWidthBytes (see FlushCycles).
func (c *Cache) Flush() (dirtyLines int) {
	for i := 0; i < len(c.lines); i += 2 {
		if c.lines[i]&(metaValid|metaDirty) == metaValid|metaDirty {
			dirtyLines++
			c.stats.Writebacks++
		}
		c.lines[i] = 0
		c.lines[i+1] = 0
	}
	for s := range c.clock {
		c.clock[s] = 0
	}
	return dirtyLines
}

// FlushCycles converts a dirty-line count into the cycles needed to
// push the lines across the memory network (§VI-A).
func FlushCycles(dirtyLines int) int64 {
	return int64(dirtyLines) * BlockBytes / NetworkWidthBytes
}

func log2(n int) int {
	s := 0
	for 1<<s < n {
		s++
	}
	return s
}
