// Package isa defines the compact RISC-like instruction set used by the
// CASH simulator.
//
// The CASH architecture (Zhou et al., ISCA 2016) executes a conventional
// ISA: the paper drives its SSim simulator with Alpha instruction traces
// from GEM5. This package is the trace-level substitute: it defines the
// dynamic-instruction record that workload generators emit and the
// timing simulator consumes. Only the properties that affect timing are
// represented — operation class, register dependences through the global
// logical register file, memory addresses, and branch outcomes.
//
// Registers are the paper's *global logical registers*: a 128-entry
// namespace mapped across all Slices of a virtual core (§III-B1). Local
// (physical) registers are a microarchitectural artifact modelled in
// internal/slice and internal/vcore, not part of the ISA.
package isa

import "fmt"

// NumGlobalRegs is the size of the architectural (global logical)
// register namespace shared by all Slices of a virtual core.
const NumGlobalRegs = 128

// Reg names a global logical register, 0..NumGlobalRegs-1.
// Register 0 is a conventional zero register: reads are free and writes
// are discarded, so generators use it for "no dependence".
type Reg uint8

// RegZero is the hard-wired zero register.
const RegZero Reg = 0

// Valid reports whether r is inside the architectural namespace.
func (r Reg) Valid() bool { return int(r) < NumGlobalRegs }

// Op is an operation class. The simulator cares about latency and which
// functional unit an instruction occupies, not about exact opcodes.
type Op uint8

const (
	// OpNop occupies fetch/commit bandwidth but no functional unit.
	OpNop Op = iota
	// OpALU is a single-cycle integer operation (add, sub, logic, shifts).
	OpALU
	// OpMul is a pipelined integer multiply (3 cycles).
	OpMul
	// OpDiv is an unpipelined integer divide (12 cycles).
	OpDiv
	// OpFPU is a pipelined floating-point operation (4 cycles).
	OpFPU
	// OpLoad reads memory through the Slice's load-store unit.
	OpLoad
	// OpStore writes memory through the store buffer.
	OpStore
	// OpBranch is a conditional or indirect branch resolved at execute.
	OpBranch
	numOps
)

var opNames = [numOps]string{"nop", "alu", "mul", "div", "fpu", "load", "store", "branch"}

// String returns the lower-case mnemonic class name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Latency returns the functional-unit occupancy latency in cycles for
// non-memory operations. Memory latencies are determined by the cache
// hierarchy and are not encoded in the ISA.
func (o Op) Latency() int {
	switch o {
	case OpMul:
		return 3
	case OpDiv:
		return 12
	case OpFPU:
		return 4
	default:
		return 1
	}
}

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// UsesALU reports whether the op occupies the Slice's single ALU.
// Loads and stores use the load-store unit instead; nops use neither.
func (o Op) UsesALU() bool {
	switch o {
	case OpALU, OpMul, OpDiv, OpFPU, OpBranch:
		return true
	default:
		return false
	}
}

// Instr is one dynamic instruction as seen by the timing simulator.
//
// The zero value is a nop with no dependences.
type Instr struct {
	Op Op
	// Dst is the destination register; RegZero means no result.
	Dst Reg
	// Src1, Src2 are source registers; RegZero means no dependence.
	Src1, Src2 Reg
	// Taken marks a taken branch: fetch redirects to a new block, which
	// on a multi-Slice virtual core costs a fetch-group realignment.
	Taken bool
	// Mispredict marks a branch whose prediction failed; the front end
	// stalls until this instruction resolves.
	Mispredict bool
	// Addr is the byte address touched by loads and stores.
	Addr uint64
	// PC is the instruction's own address, used for L1I modelling.
	PC uint64
}

// String renders a short human-readable form, for debugging and tests.
func (in Instr) String() string {
	switch in.Op {
	case OpLoad:
		return fmt.Sprintf("load r%d <- [%#x]", in.Dst, in.Addr)
	case OpStore:
		return fmt.Sprintf("store [%#x] <- r%d", in.Addr, in.Src1)
	case OpBranch:
		if in.Mispredict {
			return fmt.Sprintf("branch r%d,r%d (mispredict)", in.Src1, in.Src2)
		}
		return fmt.Sprintf("branch r%d,r%d", in.Src1, in.Src2)
	case OpNop:
		return "nop"
	default:
		return fmt.Sprintf("%s r%d <- r%d,r%d", in.Op, in.Dst, in.Src1, in.Src2)
	}
}
