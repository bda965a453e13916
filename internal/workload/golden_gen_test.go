package workload

import (
	"testing"

	"cash/internal/isa"
	"cash/internal/splitmix"
)

// This file carries a verbatim copy of the seed instruction generator —
// float64 threshold draws, value-returning gen — as the behavioural
// reference for the optimized sampling path. The optimized generator
// must emit byte-identical instruction streams: the determinism of the
// oracle cache, the figure harness and the journal/chaos replay
// guarantees all rest on the stream never changing.

type refPhaseGen struct {
	p *Phase

	thrALU, thrMul, thrDiv, thrFPU, thrLoad, thrStore uint64

	recent    [recentWindow]isa.Reg
	recentLen int
	recentPos int
	nextDst   isa.Reg

	hotBase    uint64
	midBase    uint64
	midSize    uint64
	mainBase   uint64
	mainSize   uint64
	hotSize    uint64
	streamPos  uint64
	depDistMax int64

	pc       uint64
	codeBase uint64
	codeSize uint64
	hotCode  uint64
}

func (pg *refPhaseGen) init(p *Phase, phaseIndex int) {
	pg.p = p
	m := p.Mix.Normalize()
	acc := 0.0
	cum := func(f float64) uint64 {
		acc += f
		if acc >= 1 {
			return maxUint
		}
		return uint64(acc * float64(maxUint))
	}
	pg.thrALU = cum(m.ALU)
	pg.thrMul = cum(m.Mul)
	pg.thrDiv = cum(m.Div)
	pg.thrFPU = cum(m.FPU)
	pg.thrLoad = cum(m.Load)
	pg.thrStore = cum(m.Store)

	pg.recentLen = 0
	pg.recentPos = 0
	pg.nextDst = 1

	rg0 := p.Regions(phaseIndex)
	pg.hotBase = rg0.Hot.Base
	pg.hotSize = rg0.Hot.Size
	pg.midBase = rg0.Mid.Base
	pg.midSize = rg0.Mid.Size
	pg.mainBase = rg0.Main.Base
	pg.mainSize = rg0.Main.Size
	pg.streamPos = 0
	pg.depDistMax = int64(2*p.MeanDepDist) - 1
	if pg.depDistMax < 1 {
		pg.depDistMax = 1
	}

	rg := p.Regions(phaseIndex)
	pg.codeBase = rg.Code.Base
	pg.codeSize = rg.Code.Size
	pg.hotCode = rg.HotCode.Size
	pg.pc = pg.codeBase
}

func (pg *refPhaseGen) gen(r *splitmix.Rand) isa.Instr {
	var in isa.Instr
	u := r.Uint64()
	switch {
	case u < pg.thrALU:
		in.Op = isa.OpALU
	case u < pg.thrMul:
		in.Op = isa.OpMul
	case u < pg.thrDiv:
		in.Op = isa.OpDiv
	case u < pg.thrFPU:
		in.Op = isa.OpFPU
	case u < pg.thrLoad:
		in.Op = isa.OpLoad
	case u < pg.thrStore:
		in.Op = isa.OpStore
	default:
		in.Op = isa.OpBranch
	}

	if r.Float64() < pg.p.DepFrac {
		in.Src1 = pg.depReg(r)
		if r.Float64() < pg.p.SecondSrcFrac {
			in.Src2 = pg.depReg(r)
		}
	}

	switch in.Op {
	case isa.OpLoad:
		in.Addr = pg.genAddr(r)
		in.Dst = pg.allocDst()
	case isa.OpStore:
		in.Addr = pg.genAddr(r)
		if in.Src1 == isa.RegZero {
			in.Src1 = pg.depReg(r)
		}
	case isa.OpBranch:
		in.Mispredict = r.Float64() < pg.p.MispredictRate
	default:
		in.Dst = pg.allocDst()
	}

	in.PC = pg.pc
	if in.Op == isa.OpBranch && r.Float64() < takenFrac {
		in.Taken = true
		if r.Float64() < hotTargetFrac {
			pg.pc = pg.codeBase + (r.Uint64()%pg.hotCode)&^3
		} else {
			pg.pc = pg.codeBase + (r.Uint64()%pg.codeSize)&^3
		}
	} else {
		pg.pc += 4
		if pg.pc >= pg.codeBase+pg.codeSize {
			pg.pc = pg.codeBase
		}
	}
	return in
}

func (pg *refPhaseGen) depReg(r *splitmix.Rand) isa.Reg {
	if pg.recentLen == 0 {
		return isa.RegZero
	}
	d := 1 + r.Intn(pg.depDistMax)
	if d > int64(pg.recentLen) {
		d = int64(pg.recentLen)
	}
	idx := pg.recentPos - int(d)
	if idx < 0 {
		idx += recentWindow
	}
	return pg.recent[idx]
}

func (pg *refPhaseGen) allocDst() isa.Reg {
	d := pg.nextDst
	pg.nextDst++
	if !pg.nextDst.Valid() {
		pg.nextDst = 1
	}
	pg.recent[pg.recentPos] = d
	pg.recentPos++
	if pg.recentPos == recentWindow {
		pg.recentPos = 0
	}
	if pg.recentLen < recentWindow {
		pg.recentLen++
	}
	return d
}

func (pg *refPhaseGen) genAddr(r *splitmix.Rand) uint64 {
	if r.Float64() < pg.p.HotFrac {
		return pg.hotBase + (r.Uint64()%pg.hotSize)&^7
	}
	if pg.midSize > 0 && r.Float64() < pg.p.MidFrac {
		return pg.midBase + (r.Uint64()%pg.midSize)&^7
	}
	if r.Float64() < pg.p.StreamFrac {
		pg.streamPos += uint64(pg.p.Stride)
		if pg.streamPos >= pg.mainSize {
			pg.streamPos = 0
		}
		return pg.mainBase + pg.streamPos&^7
	}
	return pg.mainBase + (r.Uint64()%pg.mainSize)&^7
}

// refStream emits app's full dynamic stream with the seed generator:
// one rng shared across phases, phaseGen re-initialised per phase —
// exactly Gen's walk.
func refStream(app App, seed uint64, limit int) []isa.Instr {
	r := splitmix.New(seed)
	var pg refPhaseGen
	out := make([]isa.Instr, 0, limit)
	for pi := range app.Phases {
		p := &app.Phases[pi]
		pg.init(p, pi)
		for i := int64(0); i < p.Instrs; i++ {
			out = append(out, pg.gen(&r))
			if len(out) == limit {
				return out
			}
		}
	}
	return out
}

// TestGenMatchesSeedGenerator compares the optimized generator's output
// against the seed reference across every catalogued application, two
// seeds, and several staging-buffer sizes (phase boundaries land at
// different offsets in each).
func TestGenMatchesSeedGenerator(t *testing.T) {
	const limit = 120_000
	for _, app := range Apps() {
		app := app.Scale(0.01)
		for _, seed := range []uint64{1, 42} {
			want := refStream(app, seed, limit)
			for _, bufSize := range []int{1, 17, 512} {
				g := NewGen(app, seed)
				buf := make([]isa.Instr, bufSize)
				// Poison the buffer so stale bytes from a previous fill
				// can't masquerade as correct output.
				for i := range buf {
					buf[i] = isa.Instr{Op: isa.OpDiv, Addr: ^uint64(0), PC: ^uint64(0), Taken: true}
				}
				got := 0
				for got < len(want) {
					n := g.Next(buf)
					if n == 0 {
						break
					}
					for i := 0; i < n && got < len(want); i++ {
						if buf[i] != want[got] {
							t.Fatalf("%s seed %d buf %d: instr %d = %v, seed generator emitted %v",
								app.Name, seed, bufSize, got, buf[i], want[got])
						}
						got++
					}
				}
				if got != len(want) {
					t.Fatalf("%s seed %d buf %d: stream ended after %d instrs, want %d",
						app.Name, seed, bufSize, got, len(want))
				}
			}
		}
	}
}

// TestPhaseGenMatchesSeedGenerator covers the steady-state PhaseGen
// wrapper the oracle uses for single-phase characterisation.
func TestPhaseGenMatchesSeedGenerator(t *testing.T) {
	app := x264App
	for pi, p := range app.Phases {
		r := splitmix.New(7)
		var ref refPhaseGen
		ref.init(&app.Phases[pi], pi)
		g := NewPhaseGen(p, pi, 7)
		buf := make([]isa.Instr, 257)
		for step := 0; step < 40; step++ {
			g.Next(buf)
			for i := range buf {
				if want := ref.gen(&r); buf[i] != want {
					t.Fatalf("phase %d step %d instr %d: %v != seed %v", pi, step, i, buf[i], want)
				}
			}
		}
	}
}

// TestFracThreshold checks the draw-space threshold against the seed
// float64 comparison on the exact boundary values where rounding could
// bite, plus a dense random sweep.
func TestFracThreshold(t *testing.T) {
	fracs := []float64{0, 1e-18, 0.25, 0.5, 1.0 / 3, 0.55, 0.95, 1 - 1e-16, 1}
	r := splitmix.New(99)
	for i := 0; i < 2000; i++ {
		fracs = append(fracs, r.Float64())
	}
	draws := []uint64{0, 1, 1<<53 - 1, 1 << 52}
	dr := splitmix.New(123)
	for i := 0; i < 2000; i++ {
		draws = append(draws, dr.Uint64()>>11)
	}
	for _, f := range fracs {
		thr := fracThreshold(f)
		for _, k := range draws {
			seedDecision := float64(k)/(1<<53) < f
			if (k < thr) != seedDecision {
				t.Fatalf("frac %v draw %d: threshold says %v, seed comparison %v",
					f, k, k < thr, seedDecision)
			}
		}
	}
}
