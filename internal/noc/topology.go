// Package noc models the CASH chip's switched on-chip networks: the
// 2-D mesh topology shared by the Slice/cache fabric (Fig 3) and the
// hop-based latency of the scalar operand network (§III-B1).
//
// The paper's runtime interface network (§III-B2), which carries
// performance-counter samples and EXPAND/SHRINK commands, is not
// modelled: its latency was never charged to a run, so the runtime's
// counters are synthesized from per-Slice samples read directly (see
// slice.SynthesizeVCore).
package noc

import "fmt"

// Coord is a tile position in the 2-D fabric.
type Coord struct {
	X, Y int
}

// String renders "(x,y)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Manhattan returns the hop distance between two tiles under
// dimension-ordered mesh routing.
func Manhattan(a, b Coord) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Latency constants for the scalar operand network, the fast path for
// register-to-register forwarding between Slices (§III-B1).
const (
	// OperandRouterDelay is the per-message fixed cost of the scalar
	// operand network.
	OperandRouterDelay = 1
	// OperandHopDelay is the per-hop cost of the scalar operand network.
	OperandHopDelay = 1
)

// OperandLatency is the scalar-operand-network transfer time across the
// given hop distance. Same-Slice forwarding (hops == 0) is free: it
// happens through the local bypass.
func OperandLatency(hops int) int {
	if hops <= 0 {
		return 0
	}
	return OperandRouterDelay + hops*OperandHopDelay
}
