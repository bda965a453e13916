// Package slice models the basic unit of computation in the CASH
// architecture: the Slice — a simple out-of-order core with one ALU,
// one load-store unit, two-wide fetch and a small L1 (Fig 4, Table I).
// Multiple Slices compose into a virtual core (package vcore); the
// cycle-level timing rules live in package ssim.
package slice

import (
	"fmt"

	"cash/internal/mem"
	"cash/internal/noc"
)

// Config is the base Slice configuration of Table I.
type Config struct {
	// FetchWidth is instructions fetched per cycle per Slice.
	FetchWidth int
	// FunctionalUnits is FUs per Slice (1 ALU + 1 LSU).
	FunctionalUnits int
	// PhysRegs is the global physical register count.
	PhysRegs int
	// LocalRegs is the per-Slice local register file size.
	LocalRegs int
	// IssueWindow is the per-Slice issue window size.
	IssueWindow int
	// ROBSize is the per-Slice reorder buffer size.
	ROBSize int
	// StoreBufferSize is the per-Slice store buffer depth.
	StoreBufferSize int
	// MaxInflightLoads bounds outstanding loads per Slice.
	MaxInflightLoads int
	// MemDelay is the main-memory latency in cycles.
	MemDelay int
	// MispredictPenalty is the pipeline refill cost of a branch
	// mispredict on a single Slice; fetch across a multi-Slice virtual
	// core must additionally re-synchronize (see ssim).
	MispredictPenalty int
}

// DefaultConfig returns Table I.
func DefaultConfig() Config {
	return Config{
		FetchWidth:        2,
		FunctionalUnits:   2,
		PhysRegs:          128,
		LocalRegs:         64,
		IssueWindow:       32,
		ROBSize:           64,
		StoreBufferSize:   8,
		MaxInflightLoads:  8,
		MemDelay:          mem.MemDelay,
		MispredictPenalty: 10,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.FetchWidth <= 0 || c.FunctionalUnits <= 0 || c.PhysRegs <= 0 ||
		c.LocalRegs <= 0 || c.IssueWindow <= 0 || c.ROBSize <= 0 ||
		c.StoreBufferSize <= 0 || c.MaxInflightLoads <= 0 || c.MemDelay <= 0 ||
		c.MispredictPenalty < 0 {
		return fmt.Errorf("slice: non-positive field in config %+v", c)
	}
	if c.IssueWindow > c.ROBSize {
		return fmt.Errorf("slice: issue window %d exceeds ROB %d", c.IssueWindow, c.ROBSize)
	}
	return nil
}

// Slice is one tile's worth of compute: its identity and position in
// the fabric, its private L1 caches, its local rename state, and its
// performance counters.
type Slice struct {
	ID  int
	Pos noc.Coord
	Cfg Config

	L1I *mem.Cache
	L1D *mem.Cache

	Rename RenameTable

	Counters Counters
}

// New builds a Slice with fresh L1s and rename state.
func New(id int, pos noc.Coord, cfg Config) (*Slice, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Slice{ID: id, Pos: pos, Cfg: cfg}
	var err error
	if s.L1I, err = mem.NewCache(mem.L1SizeKB, mem.L1Assoc); err != nil {
		return nil, fmt.Errorf("slice %d L1I: %w", id, err)
	}
	if s.L1D, err = mem.NewCache(mem.L1SizeKB, mem.L1Assoc); err != nil {
		return nil, fmt.Errorf("slice %d L1D: %w", id, err)
	}
	s.Rename.Init(cfg.LocalRegs)
	return s, nil
}

// MustNew is New for statically-valid configurations.
func MustNew(id int, pos noc.Coord, cfg Config) *Slice {
	s, err := New(id, pos, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset returns the Slice to its just-constructed state: L1 contents
// and statistics wiped, rename mappings dropped, spill and performance
// counters zeroed. The configured geometry and the OnSpill wiring
// survive, so an owning virtual core can recycle the Slice for a fresh
// run without reallocating tag arrays or rename storage.
func (s *Slice) Reset() {
	s.L1I.Reset()
	s.L1D.Reset()
	s.Rename.Reset()
	s.Rename.Spills = 0
	s.Counters = Counters{}
}

// ReadCounters latches the Slice's counters at the given cycle as a
// timestamped sample.
func (s *Slice) ReadCounters(atCycle int64) Sample {
	c := s.Counters
	c.Cycles = atCycle
	return Sample{SliceID: s.ID, Timestamp: atCycle, Counters: c}
}

// Reconfiguration overheads from §VI-A.
const (
	// ExpandCycles is the cost of Slice expansion: a pipeline flush.
	ExpandCycles = 15
	// MaxRegisterFlushCycles bounds Slice contraction's extra cost:
	// at most one operand-network push per global logical register
	// mapped on the departing Slice, bounded by the local register
	// file size (§VI-A: "at most 64 cycles more than expansion").
	MaxRegisterFlushCycles = 64
)
