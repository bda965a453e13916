package mem

import "fmt"

// BankedL2 is the composable L2: a set of 64KB banks assigned to a
// virtual core. Physical addresses are hash-distributed across banks
// (§III-B1 and §VI-A: "we use a hash table to map physical address to
// cache banks"), so each bank caches a 1/N slice of the address space.
//
// Reconfiguration (adding or removing banks) changes the hash, so the
// whole structure is invalidated; dirty lines must first be pushed to
// main memory across the L2 memory network, which is the dominant
// reconfiguration cost the paper quantifies (§VI-A).
type BankedL2 struct {
	banks []*Cache
	// all retains every bank ever built so repeated Reconfigure/Reset
	// cycles (the oracle sweep runs 64 of them per pooled simulator)
	// reuse tag arrays instead of reallocating; banks is always
	// all[:activeCount]. A flushed bank is bit-identical to a fresh one
	// (lines, clocks and stats all zero), so retention cannot leak
	// state between configurations.
	all []*Cache
	// distance[i] is bank i's Manhattan distance from the virtual
	// core's Slices in the fabric layout, which sets its hit delay
	// (Table II: distance*2+4). Maintained by the fabric placement.
	distance []int
	// bankMask/bankShift replace locate's divide when the bank count
	// is a power of two — which every paper-valid L2 size yields, so
	// the hot path never pays a hardware division. bankPow2 guards the
	// fallback for odd counts constructed directly in tests.
	bankPow2  bool
	bankShift uint
	bankMask  uint64
}

// NewBankedL2 creates an L2 of the given number of 64KB banks.
// Distances default to the canonical column layout (see DefaultDistances).
func NewBankedL2(banks int) (*BankedL2, error) {
	if banks <= 0 {
		return nil, fmt.Errorf("mem: L2 needs at least one bank, got %d", banks)
	}
	l2 := &BankedL2{
		banks:    make([]*Cache, banks),
		distance: DefaultDistances(banks),
	}
	for i := range l2.banks {
		l2.banks[i] = MustCache(L2BankKB, L2Assoc)
	}
	l2.all = l2.banks
	l2.setGeometry()
	return l2, nil
}

// setGeometry derives the power-of-two fast-path constants for locate
// from the current bank count.
func (l *BankedL2) setGeometry() {
	n := len(l.banks)
	l.bankPow2 = n&(n-1) == 0
	if l.bankPow2 {
		l.bankShift = uint(log2(n))
		l.bankMask = uint64(n - 1)
	}
}

// DefaultDistances returns the bank distances of the canonical
// placement: banks pack the 2-D fabric around the virtual core's
// Slices (Fig 3), so roughly 4d tiles are available at Manhattan
// distance d and bank distances grow as the square root of capacity.
// Larger L2 configurations therefore pay longer average hit delays —
// one of the two forces that make the configuration space non-convex.
func DefaultDistances(banks int) []int {
	return appendDefaultDistances(nil, banks)
}

// appendDefaultDistances writes the canonical distances for banks banks
// into d (reusing its capacity), so reconfiguration can refresh the
// placement without allocating.
func appendDefaultDistances(d []int, banks int) []int {
	d = d[:0]
	dist, ring, used := 1, 3, 0
	for i := 0; i < banks; i++ {
		if used == ring {
			dist++
			ring = 3 * dist
			used = 0
		}
		d = append(d, dist)
		used++
	}
	return d
}

// Banks returns the number of banks.
func (l *BankedL2) Banks() int { return len(l.banks) }

// SizeKB returns the total capacity.
func (l *BankedL2) SizeKB() int { return len(l.banks) * L2BankKB }

// locate maps an address to its home bank and the bank-local address.
// Banks interleave at block granularity (block mod banks), and the bank
// indexes its sets with the *remaining* block bits (block div banks) —
// the paper's hash table from physical address to cache banks (§VI-A).
// The (bank, bank-local block) pair is a bijection of the block
// address, so distinct blocks never alias within a bank, and every set
// of every bank is usable.
func (l *BankedL2) locate(addr uint64) (bank int, bankAddr uint64) {
	block := addr / BlockBytes
	if l.bankPow2 {
		return int(block & l.bankMask), (block >> l.bankShift) * BlockBytes
	}
	n := uint64(len(l.banks))
	return int(block % n), (block / n) * BlockBytes
}

// Access looks the address up in its home bank, allocating on miss.
// It returns whether it hit, the hit delay in cycles for that bank
// (valid on hit and as the L2 component of a miss's latency), and
// whether a dirty line was written back.
func (l *BankedL2) Access(addr uint64, write bool) (hit bool, hitDelay int, writeback bool) {
	b, ba := l.locate(addr)
	hit, writeback = l.banks[b].Access(ba, write)
	return hit, L2HitDelay(l.distance[b]), writeback
}

// Touch is the functional-access mode of Access: the identical bank
// lookup and state transition with no statistics recorded and no delay
// computed. See Cache.Touch.
func (l *BankedL2) Touch(addr uint64, write bool) (hit bool) {
	b, ba := l.locate(addr)
	return l.banks[b].Touch(ba, write)
}

// Contains reports whether the address is resident in its home bank,
// without perturbing LRU state or statistics.
func (l *BankedL2) Contains(addr uint64) bool {
	b, ba := l.locate(addr)
	return l.banks[b].Contains(ba)
}

// Stats aggregates the per-bank counters.
func (l *BankedL2) Stats() Stats {
	var s Stats
	for _, b := range l.banks {
		bs := b.Stats()
		s.Accesses += bs.Accesses
		s.Hits += bs.Hits
		s.Misses += bs.Misses
		s.Writebacks += bs.Writebacks
	}
	return s
}

// ResetStats zeroes all per-bank counters.
func (l *BankedL2) ResetStats() {
	for _, b := range l.banks {
		b.ResetStats()
	}
}

// ValidLines returns the total resident lines across banks.
func (l *BankedL2) ValidLines() int {
	n := 0
	for _, b := range l.banks {
		n += b.ValidLines()
	}
	return n
}

// DirtyLines returns the total resident dirty lines across banks.
func (l *BankedL2) DirtyLines() int {
	n := 0
	for _, b := range l.banks {
		n += b.DirtyLines()
	}
	return n
}

// MeanHitDelay returns the access-weighted average hit delay the
// current placement implies, assuming uniform bank traffic.
func (l *BankedL2) MeanHitDelay() float64 {
	sum := 0.0
	for _, d := range l.distance {
		sum += float64(L2HitDelay(d))
	}
	return sum / float64(len(l.distance))
}

// Reconfigure resizes the L2 to newBanks banks. Because the
// address-to-bank hash changes, all banks are invalidated; the return
// value is the number of dirty lines flushed to memory, from which the
// caller computes the stall cycles (FlushCycles). Statistics carry over.
func (l *BankedL2) Reconfigure(newBanks int) (dirtyLines int, err error) {
	if newBanks <= 0 {
		return 0, fmt.Errorf("mem: L2 reconfigure to %d banks", newBanks)
	}
	old := l.Stats()
	for _, b := range l.banks {
		n := b.DirtyLines()
		dirtyLines += n
		b.Flush()
	}
	old.Writebacks += int64(dirtyLines)
	if newBanks != len(l.banks) {
		l.banks = l.reserve(newBanks)
		l.distance = appendDefaultDistances(l.distance, newBanks)
		l.setGeometry()
	}
	// Re-home the aggregate counters on bank 0 so reconfiguration does
	// not erase measurement history.
	l.ResetStats()
	l.banks[0].stats = old
	return dirtyLines, nil
}

// reserve returns the first n retained banks, constructing missing ones
// and wiping any being re-activated, so a bank entering service is
// indistinguishable from a fresh MustCache.
func (l *BankedL2) reserve(n int) []*Cache {
	for len(l.all) < n {
		l.all = append(l.all, MustCache(L2BankKB, L2Assoc))
	}
	for i := len(l.banks); i < n; i++ {
		l.all[i].Reset()
	}
	return l.all[:n]
}

// Reset returns the L2 to the just-constructed state of a banks-bank
// instance: contents, clocks and statistics zeroed, canonical
// distances. Unlike Reconfigure it models no flush and carries no
// counters over — it exists so a pooled simulator can be recycled for
// a fresh run without reallocating tag arrays.
func (l *BankedL2) Reset(banks int) error {
	if banks <= 0 {
		return fmt.Errorf("mem: L2 reset to %d banks", banks)
	}
	l.banks = l.reserve(banks)
	for _, b := range l.banks {
		b.Reset()
	}
	l.distance = appendDefaultDistances(l.distance, banks)
	l.setGeometry()
	return nil
}
