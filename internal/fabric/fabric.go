// Package fabric models the chip-level view of the CASH architecture
// (§III-A, Fig 3): a 2-D array of hundreds of Slice and L2-bank tiles
// shared by many tenants. The fabric allocates spatial resources to
// virtual cores, tracks fragmentation, and — because all Slices are
// interchangeable and equally connected — repairs fragmentation by
// rescheduling Slices between virtual cores, exactly the property the
// paper argues makes non-hierarchical sharing practical.
//
// Placement affects performance through distance: a virtual core's
// operand-network latency grows with the spread of its Slices, and its
// L2 hit delay with the distance to its banks (Table II). The fabric
// therefore allocates adjacent tiles when it can and exposes the
// resulting distances so the timing simulator prices them.
package fabric

import (
	"fmt"
	"sort"

	"cash/internal/noc"
	"cash/internal/vcore"
)

// TileKind says what occupies a fabric tile.
type TileKind uint8

const (
	// TileSlice is a compute Slice.
	TileSlice TileKind = iota
	// TileBank is a 64KB L2 cache bank.
	TileBank
)

// String names the kind.
func (k TileKind) String() string {
	if k == TileSlice {
		return "slice"
	}
	return "bank"
}

// TenantID identifies a virtual core's owner. Zero means free.
type TenantID int

// Tile is one fabric position.
type Tile struct {
	Kind  TileKind
	Pos   noc.Coord
	Owner TenantID
	// Failed marks a tile out of service (see Fail/Repair). A failed
	// tile is never owned and never allocated.
	Failed bool
}

// Chip is the fabric: a checkerboard of Slices and banks, mirroring
// Fig 3's alternating columns.
type Chip struct {
	width, height int
	tiles         []Tile
	tenants       map[TenantID]*Allocation
	nextTenant    TenantID
}

// Allocation records the tiles a tenant holds.
type Allocation struct {
	Tenant TenantID
	Slices []noc.Coord
	Banks  []noc.Coord
}

// Config returns the virtual-core configuration the allocation
// realises, when it is inside the supported space.
func (a *Allocation) Config() (vcore.Config, error) {
	c := vcore.Config{Slices: len(a.Slices), L2KB: len(a.Banks) * 64}
	if err := c.Validate(); err != nil {
		return vcore.Config{}, err
	}
	return c, nil
}

// NewChip builds a fabric of the given dimensions. Columns alternate
// between Slices and banks (Fig 3); width must be even so the mix is
// balanced.
func NewChip(width, height int) (*Chip, error) {
	if width <= 0 || height <= 0 || width%2 != 0 {
		return nil, fmt.Errorf("fabric: invalid chip dimensions %dx%d (width must be positive and even)", width, height)
	}
	c := &Chip{
		width:   width,
		height:  height,
		tenants: make(map[TenantID]*Allocation),
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			kind := TileSlice
			if x%2 == 1 {
				kind = TileBank
			}
			c.tiles = append(c.tiles, Tile{Kind: kind, Pos: noc.Coord{X: x, Y: y}})
		}
	}
	return c, nil
}

// MustChip is NewChip for statically-valid dimensions.
func MustChip(width, height int) *Chip {
	c, err := NewChip(width, height)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Chip) at(p noc.Coord) *Tile {
	return &c.tiles[p.Y*c.width+p.X]
}

// FreeSlices and FreeBanks count unallocated tiles of each kind.
func (c *Chip) FreeSlices() int { return c.countFree(TileSlice) }

// FreeBanks counts unallocated bank tiles.
func (c *Chip) FreeBanks() int { return c.countFree(TileBank) }

func (c *Chip) countFree(k TileKind) int {
	n := 0
	for i := range c.tiles {
		if c.tiles[i].Kind == k && c.tiles[i].Owner == 0 && !c.tiles[i].Failed {
			n++
		}
	}
	return n
}

// Tenants returns the live tenant ids, sorted.
func (c *Chip) Tenants() []TenantID {
	out := make([]TenantID, 0, len(c.tenants))
	for id := range c.tenants {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Allocation returns a tenant's current holding.
func (c *Chip) Allocation(id TenantID) (*Allocation, bool) {
	a, ok := c.tenants[id]
	return a, ok
}

// Allocate places a new virtual core of the given configuration,
// preferring tiles adjacent to each other (a greedy nearest-first
// search seeded at the emptiest region). It returns the tenant id.
func (c *Chip) Allocate(cfg vcore.Config) (TenantID, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if c.FreeSlices() < cfg.Slices || c.FreeBanks() < cfg.Banks() {
		return 0, fmt.Errorf("fabric: insufficient free tiles for %s (%d slices, %d banks free)",
			cfg, c.FreeSlices(), c.FreeBanks())
	}
	seed, ok := c.bestSeed()
	if !ok {
		return 0, fmt.Errorf("fabric: no free slice tile")
	}
	slices := c.takeNearest(TileSlice, seed, cfg.Slices)
	banks := c.takeNearest(TileBank, seed, cfg.Banks())
	if len(slices) < cfg.Slices || len(banks) < cfg.Banks() {
		// Cannot happen given the counts above, but restore on the off
		// chance of a logic error rather than corrupting state.
		c.release(slices)
		c.release(banks)
		return 0, fmt.Errorf("fabric: placement failed for %s", cfg)
	}
	c.nextTenant++
	id := c.nextTenant
	for _, p := range slices {
		c.at(p).Owner = id
	}
	for _, p := range banks {
		c.at(p).Owner = id
	}
	c.tenants[id] = &Allocation{Tenant: id, Slices: slices, Banks: banks}
	return id, nil
}

// bestSeed returns the free slice tile with the most free neighbours —
// a cheap proxy for "the emptiest region".
func (c *Chip) bestSeed() (noc.Coord, bool) {
	best, bestScore, found := noc.Coord{}, -1, false
	for i := range c.tiles {
		t := &c.tiles[i]
		if t.Kind != TileSlice || t.Owner != 0 || t.Failed {
			continue
		}
		score := 0
		for j := range c.tiles {
			o := &c.tiles[j]
			if o.Owner == 0 && !o.Failed && noc.Manhattan(t.Pos, o.Pos) <= 2 {
				score++
			}
		}
		if score > bestScore {
			best, bestScore, found = t.Pos, score, true
		}
	}
	return best, found
}

// takeNearest returns up to n free tiles of the kind, nearest the seed.
func (c *Chip) takeNearest(k TileKind, seed noc.Coord, n int) []noc.Coord {
	type cand struct {
		p noc.Coord
		d int
	}
	var cands []cand
	for i := range c.tiles {
		t := &c.tiles[i]
		if t.Kind == k && t.Owner == 0 && !t.Failed {
			cands = append(cands, cand{t.Pos, noc.Manhattan(seed, t.Pos)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].d != cands[j].d {
			return cands[i].d < cands[j].d
		}
		if cands[i].p.Y != cands[j].p.Y {
			return cands[i].p.Y < cands[j].p.Y
		}
		return cands[i].p.X < cands[j].p.X
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]noc.Coord, len(cands))
	for i, c := range cands {
		out[i] = c.p
	}
	return out
}

func (c *Chip) release(ps []noc.Coord) {
	for _, p := range ps {
		c.at(p).Owner = 0
	}
}

// Release frees a tenant's tiles.
func (c *Chip) Release(id TenantID) error {
	a, ok := c.tenants[id]
	if !ok {
		return fmt.Errorf("fabric: unknown tenant %d", id)
	}
	c.release(a.Slices)
	c.release(a.Banks)
	delete(c.tenants, id)
	return nil
}

// Resize grows or shrinks a tenant's holding to a new configuration,
// reusing its existing tiles (the paper's EXPAND/SHRINK commands target
// individual tiles, so a resize touches only the delta). Resize is
// transactional: if the bank resize fails after the slice resize
// succeeded, the slice delta is rolled back, so on error the tenant's
// allocation is exactly what it was before the call.
func (c *Chip) Resize(id TenantID, cfg vcore.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	a, ok := c.tenants[id]
	if !ok {
		return fmt.Errorf("fabric: unknown tenant %d", id)
	}
	oldSlices := append([]noc.Coord(nil), a.Slices...)
	if err := c.resizeKind(a, &a.Slices, TileSlice, cfg.Slices); err != nil {
		return err
	}
	if err := c.resizeKind(a, &a.Banks, TileBank, cfg.Banks()); err != nil {
		// Roll back the slice delta: free whatever the slice resize left
		// us holding, then restore the original tiles.
		c.release(a.Slices)
		for _, p := range oldSlices {
			c.at(p).Owner = id
		}
		a.Slices = oldSlices
		return err
	}
	return nil
}

func (c *Chip) resizeKind(a *Allocation, held *[]noc.Coord, k TileKind, want int) error {
	have := len(*held)
	switch {
	case want < have:
		// SHRINK: release the tiles farthest from the allocation's
		// centre, keeping the core compact.
		centre := centroid(*held)
		sort.Slice(*held, func(i, j int) bool {
			return noc.Manhattan(centre, (*held)[i]) < noc.Manhattan(centre, (*held)[j])
		})
		for _, p := range (*held)[want:] {
			c.at(p).Owner = 0
		}
		*held = (*held)[:want]
	case want > have:
		// EXPAND: claim the nearest free tiles.
		seed := centroid(*held)
		extra := c.takeNearest(k, seed, want-have)
		if len(extra) < want-have {
			return fmt.Errorf("fabric: cannot expand tenant %d to %d %ss (%d free)",
				a.Tenant, want, k, len(extra))
		}
		for _, p := range extra {
			c.at(p).Owner = a.Tenant
		}
		*held = append(*held, extra...)
	}
	return nil
}

// --- Faults ---------------------------------------------------------------

// FailOutcome reports how the chip absorbed a tile failure.
type FailOutcome struct {
	// Tenant is the affected virtual core (0: the tile was free).
	Tenant TenantID
	// Remapped: the tenant's tile moved to a free equivalent at NewPos —
	// the homogeneity argument of §III-A made executable. Capacity is
	// unchanged.
	Remapped bool
	NewPos   noc.Coord
	// Degraded: no spare existed; the tenant shrank to Config, the
	// nearest smaller valid configuration its surviving tiles realise.
	Degraded bool
	Config   vcore.Config
	// Evicted: the tenant's last slice or bank failed with no spare; its
	// remaining tiles were released.
	Evicted bool
}

// Fail takes the tile at p out of service. A free tile is simply
// removed from the allocatable pool. For an owned tile the chip first
// tries to remap the tenant onto a free equivalent tile — all Slices
// (and all banks) are interchangeable, so the move is semantically a
// SHRINK of the failed tile plus an EXPAND onto the spare. Only when no
// spare exists is the tenant degraded to the nearest smaller valid
// configuration, and only when even that is impossible is it evicted.
// Failing an already-failed tile is a no-op.
func (c *Chip) Fail(p noc.Coord) (FailOutcome, error) {
	if p.X < 0 || p.X >= c.width || p.Y < 0 || p.Y >= c.height {
		return FailOutcome{}, fmt.Errorf("fabric: position %v outside %dx%d chip", p, c.width, c.height)
	}
	tile := c.at(p)
	if tile.Failed {
		return FailOutcome{}, nil
	}
	tile.Failed = true
	id := tile.Owner
	if id == 0 {
		return FailOutcome{}, nil
	}
	tile.Owner = 0
	a := c.tenants[id]
	held := &a.Slices
	if tile.Kind == TileBank {
		held = &a.Banks
	}
	removeCoord(held, p)
	out := FailOutcome{Tenant: id}

	if repl := c.takeNearest(tile.Kind, p, 1); len(repl) == 1 {
		np := repl[0]
		c.at(np).Owner = id
		*held = append(*held, np)
		out.Remapped, out.NewPos = true, np
		return out, nil
	}

	cfg, ok := degradeConfig(len(a.Slices), len(a.Banks))
	if !ok {
		c.release(a.Slices)
		c.release(a.Banks)
		delete(c.tenants, id)
		out.Evicted = true
		return out, nil
	}
	// Shrink surplus healthy tiles (e.g. banks rounded down to the next
	// power of two) so the allocation matches the degraded config. These
	// are pure shrinks and cannot fail.
	_ = c.resizeKind(a, &a.Slices, TileSlice, cfg.Slices)
	_ = c.resizeKind(a, &a.Banks, TileBank, cfg.Banks())
	out.Degraded, out.Config = true, cfg
	return out, nil
}

// Repair returns the tile at p to service. The tile rejoins the free
// pool; a degraded tenant reclaims capacity through the ordinary
// Resize path, not automatically. Repairing a healthy tile is a no-op.
func (c *Chip) Repair(p noc.Coord) error {
	if p.X < 0 || p.X >= c.width || p.Y < 0 || p.Y >= c.height {
		return fmt.Errorf("fabric: position %v outside %dx%d chip", p, c.width, c.height)
	}
	c.at(p).Failed = false
	return nil
}

// degradeConfig returns the largest valid configuration realisable with
// the given surviving tile counts, or false when none exists.
func degradeConfig(slices, banks int) (vcore.Config, bool) {
	if slices < vcore.MinSlices || banks < 1 {
		return vcore.Config{}, false
	}
	if slices > vcore.MaxSlices {
		slices = vcore.MaxSlices
	}
	l2 := vcore.MinL2KB
	for next := l2 * 2; next <= banks*64 && next <= vcore.MaxL2KB; next *= 2 {
		l2 = next
	}
	cfg := vcore.Config{Slices: slices, L2KB: l2}
	return cfg, cfg.Valid()
}

func removeCoord(ps *[]noc.Coord, p noc.Coord) {
	for i, q := range *ps {
		if q == p {
			*ps = append((*ps)[:i], (*ps)[i+1:]...)
			return
		}
	}
}

func centroid(ps []noc.Coord) noc.Coord {
	if len(ps) == 0 {
		return noc.Coord{}
	}
	var sx, sy int
	for _, p := range ps {
		sx += p.X
		sy += p.Y
	}
	return noc.Coord{X: sx / len(ps), Y: sy / len(ps)}
}

// Distances returns the per-bank Manhattan distances from the
// allocation's Slice centroid. The L2 timing model prices hits at the
// canonical layout's distances (mem.DefaultDistances), not these.
func (c *Chip) Distances(id TenantID) ([]int, error) {
	a, ok := c.tenants[id]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown tenant %d", id)
	}
	centre := centroid(a.Slices)
	out := make([]int, len(a.Banks))
	for i, b := range a.Banks {
		d := noc.Manhattan(centre, b)
		if d < 1 {
			d = 1
		}
		out[i] = d
	}
	return out, nil
}

// Spread measures an allocation's compactness: the mean pairwise
// Manhattan distance between its Slices (0 for a single Slice).
func (c *Chip) Spread(id TenantID) (float64, error) {
	a, ok := c.tenants[id]
	if !ok {
		return 0, fmt.Errorf("fabric: unknown tenant %d", id)
	}
	n := len(a.Slices)
	if n < 2 {
		return 0, nil
	}
	sum, pairs := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += noc.Manhattan(a.Slices[i], a.Slices[j])
			pairs++
		}
	}
	return float64(sum) / float64(pairs), nil
}

// Fragmentation measures how scattered the chip's free Slices are: the
// fraction of free Slice tiles whose nearest free Slice neighbour is
// more than one column-pair away. 0 = perfectly contiguous free space.
func (c *Chip) Fragmentation() float64 {
	var free []noc.Coord
	for i := range c.tiles {
		if c.tiles[i].Kind == TileSlice && c.tiles[i].Owner == 0 {
			free = append(free, c.tiles[i].Pos)
		}
	}
	if len(free) < 2 {
		return 0
	}
	isolated := 0
	for i, p := range free {
		nearest := 1 << 30
		for j, q := range free {
			if i == j {
				continue
			}
			if d := noc.Manhattan(p, q); d < nearest {
				nearest = d
			}
		}
		if nearest > 2 {
			isolated++
		}
	}
	return float64(isolated) / float64(len(free))
}

// Compact reschedules every tenant's Slices and banks into a fresh
// nearest-first placement, repairing fragmentation. Because all Slices
// are interchangeable (§III-A), the move is semantically a SHRINK on
// the old tiles plus an EXPAND on the new ones; callers charge the
// corresponding reconfiguration costs. It returns how many tiles moved.
func (c *Chip) Compact() int {
	ids := c.Tenants()
	type want struct {
		id     TenantID
		slices int
		banks  int
		old    map[noc.Coord]bool
	}
	wants := make([]want, 0, len(ids))
	for _, id := range ids {
		a := c.tenants[id]
		w := want{id: id, slices: len(a.Slices), banks: len(a.Banks), old: map[noc.Coord]bool{}}
		for _, p := range append(append([]noc.Coord{}, a.Slices...), a.Banks...) {
			w.old[p] = true
		}
		wants = append(wants, w)
	}
	// Clear everything, then re-place tenants in id order from the top
	// of the chip.
	for i := range c.tiles {
		c.tiles[i].Owner = 0
	}
	moved := 0
	for _, w := range wants {
		seed := noc.Coord{X: 0, Y: 0}
		slices := c.takeNearest(TileSlice, seed, w.slices)
		banks := c.takeNearest(TileBank, seed, w.banks)
		a := c.tenants[w.id]
		a.Slices, a.Banks = slices, banks
		for _, p := range slices {
			c.at(p).Owner = w.id
			if !w.old[p] {
				moved++
			}
		}
		for _, p := range banks {
			c.at(p).Owner = w.id
			if !w.old[p] {
				moved++
			}
		}
	}
	return moved
}

// String renders the chip occupancy map, one character per tile:
// '.' free slice, ',' free bank, 'X' failed tile, and tenant ids
// modulo ten for owned tiles.
func (c *Chip) String() string {
	out := make([]byte, 0, (c.width+1)*c.height)
	for y := 0; y < c.height; y++ {
		for x := 0; x < c.width; x++ {
			t := c.at(noc.Coord{X: x, Y: y})
			switch {
			case t.Failed:
				out = append(out, 'X')
			case t.Owner != 0:
				out = append(out, byte('0'+int(t.Owner)%10))
			case t.Kind == TileSlice:
				out = append(out, '.')
			default:
				out = append(out, ',')
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
