package workload

import (
	"fmt"
	"slices"
	"testing"

	"cash/internal/isa"
)

// FuzzArrivalStream throws arbitrary shape parameters at the composed
// arrival generator. Whatever Validate accepts must produce monotone
// non-decreasing arrivals with no panics, and Reset must replay the
// identical sequence — the serving engine's byte-identity contract
// rests on it.
func FuzzArrivalStream(f *testing.F) {
	f.Add(6.0, int64(20000), 0.15, uint64(7), 40.0, 9.0, 1.0, 3.0, 4.0, 120.0, 0.75, 0.3, 4, 12.0, 3.0, 8.0, 0.35)
	f.Add(0.001, int64(1), 0.0, uint64(0), 1.0, 0.0, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 1, 0.1, 0.0, 0.0, 0.0)
	f.Add(1e6, int64(5), 0.99, uint64(42), 0.5, 100.0, 0.05, 0.1, 0.05, 1e6, 0.99, 1.0, 64, 1e5, 100.0, 50.0, 1.0)
	f.Fuzz(func(t *testing.T, baseRate float64, work int64, jitter float64, seed uint64,
		fcEvery, fcMag, fcRamp, fcHold, fcDecay float64,
		diPeriod, diSwing, diH2 float64,
		tenants int, tbEvery, tbBurst, tbMag, tbCorr float64) {

		s := &ShapedStream{
			BaseRate:         baseRate,
			InstrsPerRequest: work,
			Jitter:           jitter,
			Seed:             seed,
			Shapes: []RateShape{
				FlashCrowd{EveryMCycles: fcEvery, Magnitude: fcMag,
					RampMCycles: fcRamp, HoldMCycles: fcHold, DecayMCycles: fcDecay, Seed: seed ^ 0xf1a5},
				Diurnal{PeriodMCycles: diPeriod, Swing: diSwing, Harmonic2: diH2},
				TenantBursts{Tenants: tenants, EveryMCycles: tbEvery, BurstMCycles: tbBurst,
					Magnitude: tbMag, Correlation: tbCorr, Seed: seed ^ 0xb0b5},
			},
		}
		if s.Validate() != nil {
			return // rejected inputs must not reach the generator
		}
		const n = 512
		s.Reset()
		first := make([]int64, n)
		prev := int64(-1)
		for i := range first {
			a := s.NextArrival()
			if a < prev {
				t.Fatalf("arrival %d (%d) precedes arrival %d (%d)", i, a, i-1, prev)
			}
			if a < 0 {
				t.Fatalf("negative arrival cycle %d", a)
			}
			prev = a
			first[i] = a
		}
		if s.Issued() != n {
			t.Fatalf("issued %d, want %d", s.Issued(), n)
		}
		s.Reset()
		if s.Issued() != 0 {
			t.Fatal("Reset did not clear the issue count")
		}
		for i := range first {
			if a := s.NextArrival(); a != first[i] {
				t.Fatalf("replay diverged at arrival %d: %d vs %d", i, a, first[i])
			}
		}
	})
}

// FuzzGenTrace throws arbitrary phase parameters at the trace generator.
// Whatever Validate accepts, Gen must honour: no panics, well-formed
// instructions (ops and registers inside the architectural namespace),
// an exact emitted count, and byte-identical replay for the same seed.
// Parameters Validate rejects must be rejected with an error, never by
// crashing downstream.
func FuzzGenTrace(f *testing.F) {
	f.Add(int64(5000), 4.0, 0.5, 0.3, 256, 16, 0.6, 0, 0.0, 0.2, int64(64), 0.01, uint64(1))
	f.Add(int64(1), 1.0, 0.0, 0.0, 1, 1, 0.0, 0, 0.0, 0.0, int64(8), 0.0, uint64(0))
	f.Add(int64(100), 16.0, 1.0, 1.0, 6144, 32, 0.9, 512, 0.5, 1.0, int64(4096), 0.5, uint64(42))
	f.Fuzz(func(t *testing.T, instrs int64, depDist, depFrac, secondSrc float64,
		wsKB, hotKB int, hotFrac float64, midKB int, midFrac, streamFrac float64,
		stride int64, mispredict float64, seed uint64) {

		p := Phase{
			Name: "fuzz", Instrs: instrs,
			Mix:         InstrMix{ALU: 0.4, Mul: 0.05, Div: 0.02, FPU: 0.08, Load: 0.25, Store: 0.1, Branch: 0.1},
			MeanDepDist: depDist, DepFrac: depFrac, SecondSrcFrac: secondSrc,
			WorkingSetKB: wsKB, HotSetKB: hotKB, HotFrac: hotFrac,
			MidSetKB: midKB, MidFrac: midFrac,
			StreamFrac: streamFrac, Stride: stride,
			MispredictRate: mispredict,
		}
		if p.Validate() != nil {
			return // rejected inputs must not reach the generator
		}
		app := App{Name: "fuzz-app", Phases: []Phase{p}}

		const maxEmit = 4096
		run := func() []isa.Instr {
			g := NewGen(app, seed)
			var out []isa.Instr
			buf := make([]isa.Instr, 129)
			for len(out) < maxEmit {
				n := g.Next(buf)
				if n == 0 {
					if !g.Done() {
						t.Fatalf("Next returned 0 with %d instructions remaining", g.Remaining())
					}
					break
				}
				if n < 0 || n > len(buf) {
					t.Fatalf("Next returned %d for a %d-entry buffer", n, len(buf))
				}
				out = append(out, buf[:n]...)
			}
			return out
		}

		got := run()
		want := app.TotalInstrs()
		if want > maxEmit {
			want = maxEmit
		}
		if int64(len(got)) < want {
			t.Fatalf("emitted %d instructions, want at least %d", len(got), want)
		}
		for i, in := range got {
			if in.Op < isa.OpALU || in.Op > isa.OpBranch || !in.Dst.Valid() || !in.Src1.Valid() || !in.Src2.Valid() {
				t.Fatalf("instruction %d malformed: %+v", i, in)
			}
			switch in.Op {
			case isa.OpLoad, isa.OpStore:
				if in.Addr%8 != 0 {
					t.Fatalf("instruction %d: unaligned data address %#x", i, in.Addr)
				}
			}
			if in.PC%4 != 0 {
				t.Fatalf("instruction %d: unaligned PC %#x", i, in.PC)
			}
		}

		again := run()
		if len(again) != len(got) {
			t.Fatalf("replay emitted %d instructions, first run %d", len(again), len(got))
		}
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("replay diverged at instruction %d: %+v vs %+v", i, got[i], again[i])
			}
		}
	})
}

// FuzzTraceReplay checks a recorded trace against the generator it
// records: for a valid multi-phase app, a seed and a sequence of buffer
// sizes, each TraceReader.Next must return the chunk Gen.Next returns —
// the same length (so both stop at phase boundaries) and the same
// instructions — and after every call the reader's Done and PhaseIndex
// must answer as the generator's do, so both streams end on the same
// call. A size byte b asks for b instructions, except that 254 asks for
// exactly the rest of the current phase (a chunk ending on the phase
// boundary) and 255 for 512, the simulator's staging buffer: a batch
// run samples PhaseIndex while that many instructions may still be
// staged ahead of it.
func FuzzTraceReplay(f *testing.F) {
	f.Add(uint8(3), uint16(700), uint16(8), uint64(1), []byte{63, 0, 200, 7})
	f.Add(uint8(0), uint16(0), uint16(0), uint64(0), []byte{})
	f.Add(uint8(5), uint16(129), uint16(512), uint64(42), []byte{128})
	f.Add(uint8(4), uint16(300), uint16(64), uint64(42), []byte{0, 1, 255})
	f.Add(uint8(5), uint16(999), uint16(16), uint64(9), []byte{254, 1, 254, 255, 0})
	f.Fuzz(func(t *testing.T, phases uint8, instrs, wsKB uint16, seed uint64, sizes []byte) {
		app := App{Name: "replay"}
		for i := 0; i <= int(phases%6); i++ {
			app.Phases = append(app.Phases, Phase{
				Name: fmt.Sprintf("p%d", i), Instrs: 1 + int64(instrs)*int64(i+1)%5000,
				Mix:         InstrMix{ALU: 0.4, Mul: 0.05, Div: 0.02, FPU: 0.08 * float64(i), Load: 0.25, Store: 0.1, Branch: 0.1},
				MeanDepDist: 1 + float64(i), DepFrac: 0.5, SecondSrcFrac: 0.3,
				WorkingSetKB: 1 + int(wsKB)%8192 + i, HotSetKB: 1, HotFrac: 0.6,
				StreamFrac: 0.2, Stride: 64, MispredictRate: 0.01,
				RegionID: i % 2,
			})
		}
		if err := app.Validate(); err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(sizes, func(b byte) bool { return b != 0 }) {
			sizes = append(sizes, 63) // some call must make progress
		}

		g := NewGen(app, seed)
		r := Record(app, seed).Reader()
		// Room for a whole phase, the largest chunk a 254 asks for.
		want := make([]isa.Instr, 5000)
		got := make([]isa.Instr, 5000)
		same := func(when string) {
			t.Helper()
			if g.Done() != r.Done() || g.PhaseIndex() != r.PhaseIndex() {
				t.Fatalf("%s: generator done=%v phase=%d, replay done=%v phase=%d",
					when, g.Done(), g.PhaseIndex(), r.Done(), r.PhaseIndex())
			}
		}
		same("before the first call")
		var emitted int64
		for call := 0; !g.Done(); call++ {
			size := int(sizes[call%len(sizes)])
			switch size {
			case 254:
				size = int(g.PhaseRemaining())
			case 255:
				size = 512
			}
			gn, rn := g.Next(want[:size]), r.Next(got[:size])
			if gn != rn {
				t.Fatalf("call %d (buffer %d, %d emitted): generator returned %d, replay %d", call, size, emitted, gn, rn)
			}
			for i := 0; i < gn; i++ {
				if want[i] != got[i] {
					t.Fatalf("instruction %d: generated %+v, replayed %+v", emitted+int64(i), want[i], got[i])
				}
			}
			emitted += int64(gn)
			same(fmt.Sprintf("after call %d (buffer %d, %d emitted)", call, size, emitted))
		}
		if emitted != app.TotalInstrs() {
			t.Fatalf("streams emitted %d instructions, app has %d", emitted, app.TotalInstrs())
		}
		if rn := r.Next(got); rn != 0 {
			t.Fatalf("replay returned %d instructions after the generator's stream ended", rn)
		}
		same("after the end")
	})
}
