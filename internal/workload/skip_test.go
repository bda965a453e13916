package workload

import (
	"testing"

	"cash/internal/isa"
)

// TestGenSkipBookkeeping checks that Skip advances position exactly as
// generating would — same phase boundaries, same emitted and remaining counts — and
// that the post-skip stream stays within the phase it lands in.
func TestGenSkipBookkeeping(t *testing.T) {
	app := x264App
	g := NewGen(app, 42)
	p0 := app.Phases[0].Instrs

	if got := g.Skip(p0 / 2); got != p0/2 {
		t.Fatalf("Skip(%d) = %d", p0/2, got)
	}
	if g.PhaseIndex() != 0 || g.total != p0/2 {
		t.Fatalf("after half-phase skip: phase=%d emitted=%d", g.PhaseIndex(), g.total)
	}
	// Skip never crosses a phase boundary: asking for more than the
	// phase's remainder clamps to it and advances to the next phase.
	if got := g.Skip(p0); got != p0-p0/2 {
		t.Fatalf("boundary skip = %d, want %d", got, p0-p0/2)
	}
	if g.PhaseIndex() != 1 || g.total != p0 {
		t.Fatalf("after boundary skip: phase=%d emitted=%d", g.PhaseIndex(), g.total)
	}

	// Generated instructions after the skip draw from phase 1's regions.
	rg := app.Phases[1].Regions(1)
	var buf [256]isa.Instr
	n := g.Next(buf[:])
	for _, in := range buf[:n] {
		if in.Op == isa.OpLoad || in.Op == isa.OpStore {
			lo := rg.Hot.Base
			hi := rg.Main.Base + rg.Main.Size
			if in.Addr < lo || in.Addr >= hi {
				t.Fatalf("post-skip data address %#x outside phase-1 regions [%#x,%#x)", in.Addr, lo, hi)
			}
		}
	}

	// Skipping everything that remains exhausts the stream; further
	// skips and fills return 0.
	for !g.Done() {
		if g.Skip(1<<40) == 0 {
			t.Fatal("Skip returned 0 before Done")
		}
	}
	if g.total != app.TotalInstrs() || g.Remaining() != 0 {
		t.Fatalf("exhausted: emitted=%d remaining=%d", g.total, g.Remaining())
	}
	if g.Skip(1) != 0 || g.Next(buf[:]) != 0 {
		t.Fatal("exhausted generator must refuse to skip or generate")
	}
}

// TestGenSkipMatchesNextPositions walks two generators through the same
// application, one skipping spans the other generates, and checks their
// position bookkeeping stays in lockstep at every step.
func TestGenSkipMatchesNextPositions(t *testing.T) {
	app := x264App
	a := NewGen(app, 42)
	b := NewGen(app, 42)
	var buf [512]isa.Instr
	for step := 0; !a.Done(); step++ {
		span := int64(137 + 101*step%997)
		got := a.Skip(span)
		var gen int64
		for gen < got {
			want := got - gen
			if want > int64(len(buf)) {
				want = int64(len(buf))
			}
			n := b.Next(buf[:want])
			if n == 0 {
				t.Fatalf("step %d: Next exhausted while Skip had %d left", step, got-gen)
			}
			gen += int64(n)
		}
		if a.PhaseIndex() != b.PhaseIndex() || a.total != b.total {
			t.Fatalf("step %d: skip at phase=%d emitted=%d, next at phase=%d emitted=%d",
				step, a.PhaseIndex(), a.total, b.PhaseIndex(), b.total)
		}
	}
	if !b.Done() {
		t.Fatal("generating twin not exhausted")
	}
}

// TestPhaseGenSkip checks the infinite phase stream's trivial skip and
// that Gen and PhaseGen expose the same region/phase accessors the fast
// tiers consume.
func TestPhaseGenSkip(t *testing.T) {
	p := x264App.Phases[3]
	g := NewPhaseGen(p, 3, 42)
	if g.Skip(1000) != 1000 || g.Skip(0) != 0 || g.Skip(-5) != 0 {
		t.Fatal("PhaseGen.Skip must accept any positive span and refuse the rest")
	}
	if g.PhaseIndex() != 3 {
		t.Fatalf("PhaseIndex = %d, want 3", g.PhaseIndex())
	}
	if got, want := g.CurrentRegions(), p.Regions(3); got != want {
		t.Fatalf("CurrentRegions = %+v, want %+v", got, want)
	}
	full := NewGen(x264App, 42)
	if got, want := full.CurrentRegions(), x264App.Phases[0].Regions(0); got != want {
		t.Fatalf("Gen.CurrentRegions = %+v, want %+v", got, want)
	}
}
