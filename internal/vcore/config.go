// Package vcore implements CASH virtual cores: dynamically composed
// groups of Slices and L2 cache banks (§III). It owns the configuration
// space the runtime optimizes over, the two-level register state spanning
// Slices, and the reconfiguration engine — the register-flush protocol of
// Fig 5 and the L2 flush — with the overheads quantified in §VI-A.
package vcore

import (
	"fmt"

	"cash/internal/mem"
)

// Configuration-space bounds (§II-A: virtual cores of 1 to 8 Slices and
// 64KB to 8MB of L2 in power-of-two steps).
const (
	MinSlices = 1
	MaxSlices = 8
	MinL2KB   = 64
	MaxL2KB   = 8192
)

// Config is one point in the virtual-core configuration space.
type Config struct {
	// Slices is the number of composed Slices (1..8).
	Slices int
	// L2KB is the total L2 capacity in KB (64..8192, power of two).
	L2KB int
}

// String renders "3s/512KB".
func (c Config) String() string { return fmt.Sprintf("%ds/%dKB", c.Slices, c.L2KB) }

// Banks returns the number of 64KB L2 banks the configuration uses.
func (c Config) Banks() int { return c.L2KB / mem.L2BankKB }

// Valid reports whether the configuration lies inside the space.
func (c Config) Valid() bool { return c.Validate() == nil }

// Validate reports why a configuration is outside the space.
func (c Config) Validate() error {
	if c.Slices < MinSlices || c.Slices > MaxSlices {
		return fmt.Errorf("vcore: slice count %d outside [%d,%d]", c.Slices, MinSlices, MaxSlices)
	}
	if c.L2KB < MinL2KB || c.L2KB > MaxL2KB {
		return fmt.Errorf("vcore: L2 size %dKB outside [%d,%d]", c.L2KB, MinL2KB, MaxL2KB)
	}
	if c.L2KB&(c.L2KB-1) != 0 {
		return fmt.Errorf("vcore: L2 size %dKB is not a power of two", c.L2KB)
	}
	return nil
}

// Space returns the full 8×8 configuration grid in canonical order:
// slices ascending, then L2 ascending.
func Space() []Config {
	out := make([]Config, 0, (MaxSlices-MinSlices+1)*numL2Steps)
	for s := MinSlices; s <= MaxSlices; s++ {
		for l2 := MinL2KB; l2 <= MaxL2KB; l2 *= 2 {
			out = append(out, Config{Slices: s, L2KB: l2})
		}
	}
	return out
}

// numL2Steps is len(L2Steps()).
var numL2Steps = len(L2Steps())

// L2Steps returns the valid L2 sizes in ascending order.
func L2Steps() []int {
	var out []int
	for l2 := MinL2KB; l2 <= MaxL2KB; l2 *= 2 {
		out = append(out, l2)
	}
	return out
}

// Index returns the configuration's position in Space(), or -1.
func (c Config) Index() int {
	if !c.Valid() {
		return -1
	}
	l2Idx := 0
	for l2 := MinL2KB; l2 < c.L2KB; l2 *= 2 {
		l2Idx++
	}
	return (c.Slices-1)*numL2Steps + l2Idx
}

// Min returns the smallest configuration (1 Slice, 64KB) — the paper's
// pricing anchor and the controller's base-speed reference.
func Min() Config { return Config{Slices: MinSlices, L2KB: MinL2KB} }

// Max returns the largest configuration (8 Slices, 8MB).
func Max() Config { return Config{Slices: MaxSlices, L2KB: MaxL2KB} }
