package vcore

import (
	"fmt"

	"cash/internal/isa"
	"cash/internal/mem"
	"cash/internal/noc"
	"cash/internal/slice"
)

// VCore is a live virtual core: a set of Slices, a banked L2, and the
// global-register bookkeeping that spans them. It supports in-place
// reconfiguration with the paper's protocols and costs.
type VCore struct {
	cfg    Config
	sliceC slice.Config

	slices []*slice.Slice
	// all retains every Slice ever built for this core, so shrink/expand
	// cycles and full Resets reuse L1 tag arrays and rename storage
	// instead of reallocating; slices is always all[:activeCount]. A
	// rejoining Slice is wiped first, so retention is invisible to the
	// timing model (a wiped Slice is bit-identical to a fresh one).
	all []*slice.Slice
	l2  *mem.BankedL2

	// Global logical register state (§III-B1): which Slice holds the
	// primary copy of each architectural register, and that register's
	// current write version. -1 means no Slice holds it (value lives in
	// the global namespace's memory backing).
	primary [isa.NumGlobalRegs]int
	version [isa.NumGlobalRegs]uint64
	writes  uint64

	// Cumulative reconfiguration accounting.
	stats ReconfigStats
}

// ReconfigStats records reconfiguration activity and its cost.
type ReconfigStats struct {
	SliceExpands    int64
	SliceShrinks    int64
	L2Reconfigs     int64
	RegisterFlushes int64
	DirtyL2Flushes  int64
	StallCycles     int64
}

// New builds a virtual core in the given configuration with the given
// Slice microarchitecture. Slices are laid out in a column (Fig 3),
// with L2 banks flanking it at the default distances.
func New(cfg Config, sliceCfg slice.Config) (*VCore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := sliceCfg.Validate(); err != nil {
		return nil, err
	}
	v := &VCore{cfg: cfg, sliceC: sliceCfg}
	for i := 0; i < cfg.Slices; i++ {
		s, err := slice.New(i, noc.Coord{X: 0, Y: i}, sliceCfg)
		if err != nil {
			return nil, err
		}
		v.attachSpillHandler(s, i)
		v.all = append(v.all, s)
	}
	v.slices = v.all
	l2, err := mem.NewBankedL2(cfg.Banks())
	if err != nil {
		return nil, err
	}
	v.l2 = l2
	for g := range v.primary {
		v.primary[g] = -1
	}
	return v, nil
}

// MustNew is New for statically-valid configurations.
func MustNew(cfg Config, sliceCfg slice.Config) *VCore {
	v, err := New(cfg, sliceCfg)
	if err != nil {
		panic(err)
	}
	return v
}

// Reset returns the virtual core to the state New(cfg, sliceCfg) would
// construct — caches cold, rename and global register namespaces empty,
// reconfiguration statistics zeroed — while reusing every retained
// Slice and L2 bank. Pooled simulators recycle a VCore per
// characterisation cell through this instead of rebuilding the whole
// hierarchy.
func (v *VCore) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	for i := 0; i < cfg.Slices; i++ {
		if i < len(v.all) {
			v.all[i].Reset()
		} else {
			s, err := slice.New(i, noc.Coord{X: 0, Y: i}, v.sliceC)
			if err != nil {
				return err
			}
			v.attachSpillHandler(s, i)
			v.all = append(v.all, s)
		}
	}
	v.slices = v.all[:cfg.Slices]
	if err := v.l2.Reset(cfg.Banks()); err != nil {
		return err
	}
	for g := range v.primary {
		v.primary[g] = -1
		v.version[g] = 0
	}
	v.writes = 0
	v.stats = ReconfigStats{}
	v.cfg = cfg
	return nil
}

// Config returns the current configuration.
func (v *VCore) Config() Config { return v.cfg }

// Slices returns the live Slices. Callers must not mutate the slice.
func (v *VCore) Slices() []*slice.Slice { return v.slices }

// Slice returns Slice i.
func (v *VCore) Slice(i int) *slice.Slice { return v.slices[i] }

// L2 returns the banked L2.
func (v *VCore) L2() *mem.BankedL2 { return v.l2 }

// Stats returns cumulative reconfiguration statistics.
func (v *VCore) Stats() ReconfigStats { return v.stats }

// SliceDistance returns the operand-network hop count between two
// Slices of this virtual core.
func (v *VCore) SliceDistance(a, b int) int {
	return noc.Manhattan(v.slices[a].Pos, v.slices[b].Pos)
}

// attachSpillHandler re-homes an architectural register to the global
// namespace's memory backing when a Slice's rename table must evict its
// primary copy for capacity.
func (v *VCore) attachSpillHandler(s *slice.Slice, idx int) {
	s.Rename.OnSpill = func(g isa.Reg) {
		if v.primary[g] == idx {
			v.primary[g] = -1
		}
	}
}

// --- Global register protocol -------------------------------------------

// RecordWrite notes that Slice s executed a write of global g. It
// returns the register's new version. Any previous primary holder is
// demoted to a reader copy.
func (v *VCore) RecordWrite(g isa.Reg, s int) uint64 {
	if g == isa.RegZero {
		return 0
	}
	v.writes++
	ver := v.writes
	if old := v.primary[g]; old >= 0 && old != s && old < len(v.slices) {
		v.slices[old].Rename.Demote(g)
	}
	v.primary[g] = s
	v.version[g] = ver
	v.slices[s].Rename.Write(g, ver)
	return ver
}

// RecordRead notes that Slice s needs global g as a source operand.
// It returns the operand-network hop distance the value travels: zero
// when s already holds a copy (or the value has no live producer), else
// the distance from the primary holder. The reader copy is recorded.
func (v *VCore) RecordRead(g isa.Reg, s int) (hops int) {
	if g == isa.RegZero {
		return 0
	}
	if v.slices[s].Rename.ReadIn(g, v.version[g]) {
		return 0
	}
	p := v.primary[g]
	if p < 0 || p >= len(v.slices) || p == s {
		// No live remote producer: either the value predates the
		// current composition (materialized from the global namespace
		// without inter-Slice traffic) or this Slice produced it.
		return 0
	}
	return v.SliceDistance(p, s)
}

// PrimaryHolder returns the Slice index holding global g's primary
// copy, or -1.
func (v *VCore) PrimaryHolder(g isa.Reg) int { return v.primary[g] }

// Version returns global g's current write version.
func (v *VCore) Version(g isa.Reg) uint64 { return v.version[g] }

// --- Reconfiguration ------------------------------------------------------

// Reconfigure transitions the virtual core to a new configuration and
// returns the stall cycles charged to the application (§VI-A). Slice
// and L2 reconfiguration proceed over different networks (operand
// network vs. L2 memory network) and overlap, so the stall is the
// maximum of the two costs.
func (v *VCore) Reconfigure(to Config) (stall int64, err error) {
	if err := to.Validate(); err != nil {
		return 0, err
	}
	if to == v.cfg {
		return 0, nil
	}
	var sliceCost, l2Cost int64
	switch {
	case to.Slices > v.cfg.Slices:
		sliceCost = v.expandSlices(to.Slices)
	case to.Slices < v.cfg.Slices:
		sliceCost, err = v.shrinkSlices(to.Slices)
		if err != nil {
			return 0, err
		}
	}
	if to.L2KB != v.cfg.L2KB {
		l2Cost, err = v.reconfigureL2(to.L2KB)
		if err != nil {
			return 0, err
		}
	}
	stall = sliceCost
	if l2Cost > stall {
		stall = l2Cost
	}
	v.cfg = to
	v.stats.StallCycles += stall
	return stall, nil
}

// expandSlices grows the Slice set. New Slices join cold (empty rename
// state, cold L1s); the existing pipeline is flushed (§VI-A: ~15 cycles).
func (v *VCore) expandSlices(n int) int64 {
	for i := len(v.slices); i < n; i++ {
		if i < len(v.all) {
			// Rejoining a retained Slice: wipe it back to the cold state
			// a freshly-built tile would join with.
			v.all[i].Reset()
		} else {
			s := slice.MustNew(i, noc.Coord{X: 0, Y: i}, v.sliceC)
			v.attachSpillHandler(s, i)
			v.all = append(v.all, s)
		}
	}
	v.slices = v.all[:n]
	v.stats.SliceExpands++
	return slice.ExpandCycles
}

// shrinkSlices removes Slices from the top of the column, executing the
// register-flush protocol of Fig 5: every departing Slice pushes the
// globals it is primary for to the surviving Slices over the operand
// network; survivors that already hold a reader copy only promote it.
// The flush cost is bounded by the local register file size.
func (v *VCore) shrinkSlices(n int) (int64, error) {
	if n < 1 {
		return 0, fmt.Errorf("vcore: shrink to %d slices", n)
	}
	maxFlush := 0
	var buf []slice.PrimaryCopy
	for idx := n; idx < len(v.slices); idx++ {
		departing := v.slices[idx]
		buf = departing.Rename.Primaries(buf[:0])
		if len(buf) > maxFlush {
			maxFlush = len(buf)
		}
		for _, pc := range buf {
			v.flushRegister(pc, idx, n)
		}
		// Reader copies on the departing Slice are simply dropped, but
		// its performance counters are folded into a survivor so the
		// virtual core's accounting survives reconfiguration (§III-B2:
		// the runtime's view is synthesized from per-Slice samples).
		v.slices[0].Counters.Add(departing.Counters)
		departing.Rename.Reset()
	}
	v.slices = v.slices[:n]
	// Any primary record still pointing at a removed Slice would be a
	// protocol violation; verify the invariant cheaply.
	for g := range v.primary {
		if v.primary[g] >= n {
			return 0, fmt.Errorf("vcore: register r%d primary on removed slice %d", g, v.primary[g])
		}
	}
	v.stats.SliceShrinks++
	flushCycles := int64(maxFlush)
	if flushCycles > slice.MaxRegisterFlushCycles {
		flushCycles = slice.MaxRegisterFlushCycles
	}
	v.stats.RegisterFlushes += int64(maxFlush)
	return slice.ExpandCycles + flushCycles, nil
}

// flushRegister moves one primary copy from departing Slice idx to a
// survivor (Fig 5). The survivor nearest the departing Slice receives
// the value unless another survivor already holds a copy.
func (v *VCore) flushRegister(pc slice.PrimaryCopy, from, survivors int) {
	g := pc.Global
	// Prefer a survivor that already holds a reader copy: it just
	// promotes, saving a local register (Fig 5 step ❷).
	for s := 0; s < survivors; s++ {
		if _, _, ok := v.slices[s].Rename.Lookup(g); ok {
			v.slices[s].Rename.Write(g, pc.Version)
			v.primary[g] = s
			return
		}
	}
	// Otherwise push to the nearest survivor.
	best, bestDist := 0, int(^uint(0)>>1)
	for s := 0; s < survivors; s++ {
		if d := v.SliceDistance(from, s); d < bestDist {
			best, bestDist = s, d
		}
	}
	v.slices[best].Rename.Write(g, pc.Version)
	v.primary[g] = best
}

// reconfigureL2 resizes the L2, flushing dirty state to memory. The
// stall is the dirty-line flush time; the address-hash reconfiguration
// overlaps with it (§VI-A).
func (v *VCore) reconfigureL2(newKB int) (int64, error) {
	dirty, err := v.l2.Reconfigure(newKB / mem.L2BankKB)
	if err != nil {
		return 0, err
	}
	v.stats.L2Reconfigs++
	v.stats.DirtyL2Flushes += int64(dirty)
	return mem.FlushCycles(dirty), nil
}
