package fault

import (
	"fmt"
	"time"

	"cash/internal/splitmix"
)

// Wire-level faults. Where Event models tile strikes and ChipEvent
// whole-chip outages, WireOp models what a lossy transport does to one
// protocol frame between the cashd daemon and its clients: deliver it,
// drop it, delay it, duplicate it, truncate it mid-frame (tearing the
// connection), or reorder it past the next frame. Decisions are drawn
// from the same SplitMix64 generator the tile and chip schedules use,
// so a faulted wire replays bit-for-bit from its seed.

// WireOp is the fate of one frame.
type WireOp uint8

const (
	// WirePass delivers the frame untouched.
	WirePass WireOp = iota
	// WireDrop silently discards the frame.
	WireDrop
	// WireDelay delivers the frame after a pause.
	WireDelay
	// WireDup delivers the frame twice back to back.
	WireDup
	// WireTruncate delivers a prefix of the frame and then severs the
	// connection, the mid-write process death a length-prefixed codec
	// must survive.
	WireTruncate
	// WireReorder holds the frame back and delivers it after the next
	// one.
	WireReorder
)

// String names the operation.
func (o WireOp) String() string {
	switch o {
	case WirePass:
		return "pass"
	case WireDrop:
		return "drop"
	case WireDelay:
		return "delay"
	case WireDup:
		return "dup"
	case WireTruncate:
		return "truncate"
	case WireReorder:
		return "reorder"
	}
	return fmt.Sprintf("wireop(%d)", o)
}

// WireSpec parameterizes a faulty wire. Rates are per-frame
// probabilities; the remainder passes untouched. The zero value is a
// clean wire.
type WireSpec struct {
	// Seed drives the per-frame decisions.
	Seed uint64
	// DropRate, DelayRate, DupRate, TruncateRate and ReorderRate are
	// the per-frame probabilities of each fault, each in [0, 1] with a
	// sum of at most 1.
	DropRate, DelayRate, DupRate, TruncateRate, ReorderRate float64
	// Delay is how long a WireDelay holds the frame (default 1ms).
	Delay time.Duration
}

// Enabled reports whether the spec injects any fault at all.
func (s WireSpec) Enabled() bool {
	return s.DropRate > 0 || s.DelayRate > 0 || s.DupRate > 0 ||
		s.TruncateRate > 0 || s.ReorderRate > 0
}

// Validate rejects rates outside [0, 1] or summing past 1.
func (s WireSpec) Validate() error {
	sum := 0.0
	for _, r := range [...]float64{s.DropRate, s.DelayRate, s.DupRate, s.TruncateRate, s.ReorderRate} {
		if r < 0 || r > 1 {
			return fmt.Errorf("fault: wire fault rate %g outside [0, 1]", r)
		}
		sum += r
	}
	if sum > 1 {
		return fmt.Errorf("fault: wire fault rates sum to %g > 1", sum)
	}
	if s.Delay < 0 {
		return fmt.Errorf("fault: negative wire delay %v", s.Delay)
	}
	return nil
}

func (s WireSpec) withDefaults() WireSpec {
	if s.Delay == 0 {
		s.Delay = time.Millisecond
	}
	return s
}

// DefaultWireSpec is the chaos soak's standard lossy wire: every fault
// class armed at a few percent, seeded for replay.
func DefaultWireSpec(seed uint64) WireSpec {
	return WireSpec{
		Seed:     seed,
		DropRate: 0.05, DelayRate: 0.05, DupRate: 0.04,
		TruncateRate: 0.03, ReorderRate: 0.03,
	}
}

// WireFaults draws per-frame fates from a seeded generator. One
// instance serves one unidirectional frame stream; derive one per
// connection (see Fork) so the decision sequence each connection sees
// is independent of how other connections interleave.
type WireFaults struct {
	spec WireSpec
	rng  splitmix.Rand
	// Counts tallies the fates dealt so far, indexed by WireOp.
	Counts [WireReorder + 1]int64
}

// NewWireFaults validates the spec and builds a generator.
func NewWireFaults(spec WireSpec) (*WireFaults, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	return &WireFaults{spec: spec, rng: splitmix.New(spec.Seed)}, nil
}

// Fork derives an independent generator for one connection: same
// rates, a seed mixed from the parent's seed and the connection index.
func (f *WireFaults) Fork(conn uint64) *WireFaults {
	spec := f.spec
	spec.Seed = f.spec.Seed ^ (conn+1)*0x9e3779b97f4a7c15
	nf, err := NewWireFaults(spec)
	if err != nil {
		panic(err) // unreachable: the parent spec already validated
	}
	return nf
}

// Delay returns how long a WireDelay holds its frame.
func (f *WireFaults) Delay() time.Duration { return f.spec.Delay }

// Next deals the next frame's fate.
func (f *WireFaults) Next() WireOp {
	op := WirePass
	r := f.rng.Float64()
	s := f.spec
	switch {
	case r < s.DropRate:
		op = WireDrop
	case r < s.DropRate+s.DelayRate:
		op = WireDelay
	case r < s.DropRate+s.DelayRate+s.DupRate:
		op = WireDup
	case r < s.DropRate+s.DelayRate+s.DupRate+s.TruncateRate:
		op = WireTruncate
	case r < s.DropRate+s.DelayRate+s.DupRate+s.TruncateRate+s.ReorderRate:
		op = WireReorder
	}
	f.Counts[op]++
	return op
}
