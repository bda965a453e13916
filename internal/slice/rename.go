package slice

import (
	"fmt"

	"cash/internal/isa"
)

// RenameTable is the per-Slice half of CASH's two-level register
// renaming (§III-B1). Architectural registers live in a *global
// logical* namespace mapped across all Slices of a virtual core; each
// Slice maps the globals it touches onto its own local register file.
//
// A Slice's mapping of a global is either the *primary* copy (this
// Slice executed the most recent write) or a *reader* copy (the value
// was forwarded here for a source operand). The distinction drives the
// register-flush protocol of Fig 5: when a Slice leaves a virtual core,
// only its primary copies must be pushed to the survivors, so the flush
// is bounded by the number of global registers.
type RenameTable struct {
	// local[i] describes local register i.
	local []localReg
	// slotOf[g] is the local register holding global g, or -1.
	slotOf [isa.NumGlobalRegs]int16
	// version[g] is a monotonically increasing write version for
	// global g, used by tests to check value conservation across
	// reconfiguration. The primary copy always has the latest version
	// it observed.
	clock int

	// Spills counts primary copies evicted for capacity — the rename
	// table's pathological case, where the architectural value must be
	// written back to the global namespace's memory backing.
	Spills int64

	// OnSpill, if set, is called with the global register whose primary
	// copy was evicted, so the owner (the virtual core) can re-home the
	// architectural value to the namespace's memory backing.
	OnSpill func(g isa.Reg)
}

// allocScanCap bounds the victim search so renaming stays O(1) on the
// simulator's hot path; beyond the cap, the entry under the clock hand
// is spilled even if primary.
const allocScanCap = 8

type localReg struct {
	global  isa.Reg
	valid   bool
	primary bool
	version uint64
}

// Init sizes the local register file. It must be called before use.
func (t *RenameTable) Init(localRegs int) {
	t.local = make([]localReg, localRegs)
	for g := range t.slotOf {
		t.slotOf[g] = -1
	}
	t.clock = 0
	t.Spills = 0
}

// Reset drops all mappings but keeps the configured size.
func (t *RenameTable) Reset() {
	for i := range t.local {
		t.local[i] = localReg{}
	}
	for g := range t.slotOf {
		t.slotOf[g] = -1
	}
	t.clock = 0
}

// Lookup reports whether global g is mapped here, and if so whether
// this Slice holds the primary copy and which version it has.
func (t *RenameTable) Lookup(g isa.Reg) (primary bool, version uint64, ok bool) {
	s := t.slotOf[g]
	if s < 0 {
		return false, 0, false
	}
	lr := t.local[s]
	return lr.primary, lr.version, true
}

// Write records that this Slice executed a write of global g producing
// the given version, making it the primary holder. It returns true if
// a new local register had to be allocated (i.e. g was not mapped).
func (t *RenameTable) Write(g isa.Reg, version uint64) (allocated bool) {
	if g == isa.RegZero {
		return false
	}
	if s := t.slotOf[g]; s >= 0 {
		t.local[s].primary = true
		t.local[s].version = version
		return false
	}
	s := t.alloc()
	t.local[s] = localReg{global: g, valid: true, primary: true, version: version}
	t.slotOf[g] = int16(s)
	return true
}

// ReadIn records that this Slice consumed global g as a source
// operand: a Slice that already maps g keeps its state untouched (a
// read never demotes a primary or moves a version), otherwise a reader
// copy at the given version is allocated. It reports whether g was
// already mapped — the caller uses that to decide whether the value had
// to travel. It takes a single map probe, for the simulator's
// per-source hot path.
func (t *RenameTable) ReadIn(g isa.Reg, version uint64) (held bool) {
	if g == isa.RegZero {
		return true
	}
	if t.slotOf[g] >= 0 {
		return true
	}
	s := t.alloc()
	t.local[s] = localReg{global: g, valid: true, primary: false, version: version}
	t.slotOf[g] = int16(s)
	return false
}

// Demote marks this Slice's copy of g as a reader copy (the primary
// moved elsewhere because another Slice wrote g).
func (t *RenameTable) Demote(g isa.Reg) {
	if s := t.slotOf[g]; s >= 0 {
		t.local[s].primary = false
	}
}

// Primaries appends the globals for which this Slice holds the primary
// copy (with versions) to dst and returns it. This is the flush set of
// Fig 5: the values that must be pushed to survivors when this Slice
// leaves its virtual core.
func (t *RenameTable) Primaries(dst []PrimaryCopy) []PrimaryCopy {
	for _, lr := range t.local {
		if lr.valid && lr.primary {
			dst = append(dst, PrimaryCopy{Global: lr.global, Version: lr.version})
		}
	}
	return dst
}

// PrimaryCopy is one (register, version) pair in a flush set.
type PrimaryCopy struct {
	Global  isa.Reg
	Version uint64
}

// alloc finds a free local register, evicting if necessary. Reader
// copies are preferred victims; evicting a primary is counted as a
// spill (the architectural value must round-trip through memory). The
// scan is bounded (allocScanCap) so allocation is O(1).
func (t *RenameTable) alloc() int {
	n := len(t.local)
	if n == 0 {
		panic(fmt.Sprintf("slice: rename table used before Init (%d locals)", n))
	}
	scan := n
	if scan > allocScanCap {
		scan = allocScanCap
	}
	// Prefer a free slot or a reader copy within the scan window.
	// The clock hand stays in [0, n), so wraparound is a compare
	// instead of a modulo — this is the simulator's hot path.
	s := t.clock
	for i := 0; i < scan; i++ {
		if !t.local[s].valid || !t.local[s].primary {
			t.evict(s)
			t.clock = s + 1
			if t.clock == n {
				t.clock = 0
			}
			return s
		}
		s++
		if s == n {
			s = 0
		}
	}
	// Window full of primaries: spill the one under the clock hand.
	s = t.clock
	t.Spills++
	t.evict(s)
	t.clock = s + 1
	if t.clock == n {
		t.clock = 0
	}
	return s
}

func (t *RenameTable) evict(s int) {
	if !t.local[s].valid {
		return
	}
	if t.local[s].primary && t.OnSpill != nil {
		t.OnSpill(t.local[s].global)
	}
	t.slotOf[t.local[s].global] = -1
	t.local[s] = localReg{}
}
