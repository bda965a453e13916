package isa

// HasDst reports whether the instruction produces a register value.
func (in Instr) HasDst() bool { return in.Dst != RegZero }
