package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestOpLatency(t *testing.T) {
	cases := []struct {
		op   Op
		want int
	}{
		{OpNop, 1}, {OpALU, 1}, {OpMul, 3}, {OpDiv, 12}, {OpFPU, 4},
		{OpLoad, 1}, {OpStore, 1}, {OpBranch, 1},
	}
	for _, c := range cases {
		if got := c.op.Latency(); got != c.want {
			t.Errorf("%v.Latency() = %d, want %d", c.op, got, c.want)
		}
	}
}

func TestOpClasses(t *testing.T) {
	for _, op := range []Op{OpLoad, OpStore} {
		if !op.IsMem() {
			t.Errorf("%v should be a memory op", op)
		}
		if op.UsesALU() {
			t.Errorf("%v should not use the ALU", op)
		}
	}
	for _, op := range []Op{OpALU, OpMul, OpDiv, OpFPU, OpBranch} {
		if op.IsMem() {
			t.Errorf("%v should not be a memory op", op)
		}
		if !op.UsesALU() {
			t.Errorf("%v should use the ALU", op)
		}
	}
	if OpNop.IsMem() || OpNop.UsesALU() {
		t.Error("nop should use no functional unit")
	}
}

func TestOpString(t *testing.T) {
	if OpALU.String() != "alu" || OpBranch.String() != "branch" {
		t.Errorf("unexpected mnemonics: %v %v", OpALU, OpBranch)
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Errorf("unknown op should render its number, got %q", Op(200))
	}
}

func TestRegValid(t *testing.T) {
	if !Reg(0).Valid() || !Reg(NumGlobalRegs-1).Valid() {
		t.Error("in-range registers must be valid")
	}
	if Reg(NumGlobalRegs).Valid() {
		t.Error("out-of-range register must be invalid")
	}
}

func TestInstrHasDst(t *testing.T) {
	if (Instr{Op: OpALU, Dst: RegZero}).HasDst() {
		t.Error("zero destination is no destination")
	}
	if !(Instr{Op: OpALU, Dst: 5}).HasDst() {
		t.Error("r5 destination should count")
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNop}, "nop"},
		{Instr{Op: OpLoad, Dst: 3, Addr: 0x40}, "load r3"},
		{Instr{Op: OpStore, Src1: 2, Addr: 0x80}, "store"},
		{Instr{Op: OpBranch, Mispredict: true}, "mispredict"},
		{Instr{Op: OpMul, Dst: 1, Src1: 2, Src2: 3}, "mul r1"},
	}
	for _, c := range cases {
		if got := c.in.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want substring %q", got, c.want)
		}
	}
}

func TestLatencyPositiveQuick(t *testing.T) {
	f := func(op uint8) bool {
		return Op(op%uint8(numOps)).Latency() >= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
