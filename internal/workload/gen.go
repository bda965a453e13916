package workload

import (
	"fmt"
	"math"

	"cash/internal/isa"
)

// recentWindow is how many recent producer registers a generated
// dependence can reach back to. It matches the per-Slice local register
// file size (Table I: 64 local registers per Slice).
const recentWindow = 64

// Gen deterministically produces an application's dynamic instruction
// stream. The same (app, seed) pair always yields the same stream.
//
// Gen is not safe for concurrent use; create one per simulation.
type Gen struct {
	app  App
	seed uint64

	phase      int   // current phase index
	phaseInstr int64 // instructions emitted within the current phase
	total      int64 // instructions emitted overall

	r  rng
	pg phaseGen
}

// NewGen returns a generator positioned at the start of the application.
// It panics if the application definition is invalid; definitions are
// static data, so a bad one is a programming error.
func NewGen(app App, seed uint64) *Gen {
	if err := app.Validate(); err != nil {
		panic(fmt.Sprintf("workload.NewGen: %v", err))
	}
	g := &Gen{app: app, seed: seed}
	g.Reset()
	return g
}

// ResetTo repositions the generator at the start of a (possibly
// different) application and seed, reusing the allocation; the result
// is indistinguishable from NewGen(app, seed). It panics on an invalid
// definition, exactly as NewGen would.
func (g *Gen) ResetTo(app App, seed uint64) {
	if err := app.Validate(); err != nil {
		panic(fmt.Sprintf("workload.Gen.ResetTo: %v", err))
	}
	g.app = app
	g.seed = seed
	g.Reset()
}

// Reset rewinds the generator to the beginning of the application.
func (g *Gen) Reset() {
	g.phase = 0
	g.phaseInstr = 0
	g.total = 0
	g.r = newRNG(g.seed)
	g.pg.init(&g.app.Phases[0], 0)
}

// App returns the application definition the generator walks.
func (g *Gen) App() App { return g.app }

// PhaseIndex returns the index of the phase the next instruction
// belongs to, or len(phases)-1 once the stream is exhausted.
func (g *Gen) PhaseIndex() int { return g.phase }

// Emitted returns the number of instructions generated so far.
func (g *Gen) Emitted() int64 { return g.total }

// Remaining returns how many instructions are left in the stream.
func (g *Gen) Remaining() int64 { return g.app.TotalInstrs() - g.total }

// Done reports whether the stream is exhausted.
func (g *Gen) Done() bool { return g.Remaining() <= 0 }

// Next fills buf with up to len(buf) instructions and returns how many
// were produced. It returns 0 only when the stream is exhausted.
// A phase boundary ends the fill early so callers always observe
// homogeneous-phase blocks.
func (g *Gen) Next(buf []isa.Instr) int {
	if g.Done() || len(buf) == 0 {
		return 0
	}
	p := &g.app.Phases[g.phase]
	n := int64(len(buf))
	if left := p.Instrs - g.phaseInstr; n > left {
		n = left
	}
	for i := int64(0); i < n; i++ {
		g.pg.gen(&g.r, &buf[i])
	}
	g.phaseInstr += n
	g.total += n
	if g.phaseInstr >= p.Instrs && g.phase < len(g.app.Phases)-1 {
		g.phase++
		g.phaseInstr = 0
		g.pg.init(&g.app.Phases[g.phase], g.phase)
	}
	return int(n)
}

// Skip advances the stream past up to n instructions without
// generating them, returning how many were skipped. Like Next it never
// crosses a phase boundary, so callers always observe homogeneous-phase
// spans; a skip that lands exactly on a boundary advances to the next
// phase just as Next would.
//
// A skipped span leaves the RNG untouched: the instructions that follow
// are drawn from the same stationary per-phase distribution but are not
// the ones Next would have produced had it generated the span. The fast
// simulation tiers charge skipped spans analytically, so only the
// distribution matters; callers that need the exact stream (the
// cycle-level tier, the golden digests) must not skip.
func (g *Gen) Skip(n int64) int64 {
	if g.Done() || n <= 0 {
		return 0
	}
	p := &g.app.Phases[g.phase]
	if left := p.Instrs - g.phaseInstr; n > left {
		n = left
	}
	g.phaseInstr += n
	g.total += n
	if g.phaseInstr >= p.Instrs && g.phase < len(g.app.Phases)-1 {
		g.phase++
		g.phaseInstr = 0
		g.pg.init(&g.app.Phases[g.phase], g.phase)
	}
	return n
}

// CurrentRegions returns the address layout of the phase the next
// instruction belongs to, for cache warm-up by the fast simulation
// tiers.
func (g *Gen) CurrentRegions() Regions {
	return g.app.Phases[g.phase].Regions(g.phase)
}

// PhaseRemaining returns how many instructions are left in the current
// phase; the interval tier uses it to bound its cold-start charge to what
// a cycle-level run could actually incur before the phase ends.
func (g *Gen) PhaseRemaining() int64 {
	if g.Done() {
		return 0
	}
	return g.app.Phases[g.phase].Instrs - g.phaseInstr
}

// PhaseGen generates the steady-state instruction stream of a single
// phase forever. The oracle uses it to characterise one (phase, config)
// point without running the whole application.
type PhaseGen struct {
	r   rng
	pg  phaseGen
	p   Phase
	idx int
}

// NewPhaseGen returns a generator for one phase. phaseIndex seeds the
// phase's address-space base so different phases touch different data,
// just as they would in Gen.
func NewPhaseGen(p Phase, phaseIndex int, seed uint64) *PhaseGen {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("workload.NewPhaseGen: %v", err))
	}
	g := &PhaseGen{r: newRNG(seed), p: p, idx: phaseIndex}
	g.pg.init(&g.p, phaseIndex)
	return g
}

// Reset repositions the generator at the start of a (possibly
// different) phase stream, reusing the allocation; the result is
// indistinguishable from NewPhaseGen(p, phaseIndex, seed). It panics
// on an invalid phase, exactly as NewPhaseGen would.
func (g *PhaseGen) Reset(p Phase, phaseIndex int, seed uint64) {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("workload.PhaseGen.Reset: %v", err))
	}
	g.r = newRNG(seed)
	g.p, g.idx = p, phaseIndex
	g.pg.init(&g.p, phaseIndex)
}

// Next fills buf and returns len(buf); a phase stream never ends.
func (g *PhaseGen) Next(buf []isa.Instr) int {
	for i := range buf {
		g.pg.gen(&g.r, &buf[i])
	}
	return len(buf)
}

// PhaseIndex returns the index the stream was seeded with (which fixes
// its address regions), mirroring Gen.PhaseIndex.
func (g *PhaseGen) PhaseIndex() int { return g.idx }

// Skip advances the stream past n instructions without generating
// them. A phase stream is infinite and stationary, so there is no
// position bookkeeping to advance; as with Gen.Skip the RNG is left
// untouched and the post-skip stream is a fresh draw from the same
// distribution.
func (g *PhaseGen) Skip(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return n
}

// CurrentRegions returns the address layout of the generated phase.
func (g *PhaseGen) CurrentRegions() Regions {
	return g.p.Regions(g.idx)
}

// PhaseRemaining mirrors Gen.PhaseRemaining; a phase stream never ends.
func (g *PhaseGen) PhaseRemaining() int64 { return math.MaxInt64 / 2 }

// phaseGen holds the per-phase sampling state shared by Gen and PhaseGen.
type phaseGen struct {
	p *Phase

	// Cumulative mix thresholds, scaled to uint64 for branch-free pick.
	thrALU, thrMul, thrDiv, thrFPU, thrLoad, thrStore uint64

	// opTab[u>>56] resolves the op-class draw with one predictable load
	// when every draw sharing that top byte lands in the same threshold
	// interval; the handful of buckets containing a threshold hold
	// opAmbiguous and fall back to the compare cascade. The cascade's
	// branches follow the (random) draw, so they mispredict roughly
	// half the time — the table removes them for ~97% of draws.
	opTab [256]uint8

	// Per-phase probability thresholds in 53-bit draw space: comparing
	// the next draw's top 53 bits against one of these is bit-identical
	// to the seed's `r.float64() < frac` (see fracThreshold) while
	// skipping the int→float conversion and division per sample.
	thrDep, thrSecond, thrMispredict uint64
	thrHot, thrMid, thrStream        uint64

	// Dependence bookkeeping: ring of the most recent destination
	// registers, so a sampled dependence distance resolves to a concrete
	// architectural register.
	recent    [recentWindow]isa.Reg
	recentLen int
	recentPos int
	nextDst   isa.Reg

	// Address-generation state.
	hotBase    uint64
	midBase    uint64
	midSize    uint64
	mainBase   uint64
	mainSize   uint64 // bytes beyond the hot and mid sets
	hotSize    uint64
	streamPos  uint64
	depDistMax int64 // dependence distances sampled uniformly in [1, depDistMax]

	// Per-phase-constant divisors as precomputed magic-number
	// remainders: address sampling takes a modulo on most instructions,
	// and the hardware divide it replaced was among the costliest single
	// instructions on the simulator's hot path.
	fmHot, fmMid, fmMain, fmCode, fmHotCode, fmDep fastMod

	// Instruction-address state. Code lives in its own region sized
	// from the data footprint (big-footprint codes like gcc also have
	// big instruction footprints); branches mostly jump within a small
	// hot loop body, occasionally across the whole region.
	pc       uint64
	codeBase uint64
	codeSize uint64
	hotCode  uint64
}

// Code-region modelling constants.
const (
	codeBaseKB    = 48  // minimum code footprint
	codeWSDivisor = 8   // extra code per working-set KB
	codeMaxKB     = 384 // cap
	hotCodeKB     = 8   // hot loop body size
	takenFrac     = 0.55
	hotTargetFrac = 0.95
)

// fracThreshold maps a probability f in [0,1] to the threshold t for
// which `r.next()>>11 < t` decides exactly like the seed generator's
// `r.float64() < f` on the same draw. rng.float64 is float64(k)/2^53
// with k = next()>>11 < 2^53; both k and the power-of-two scaling are
// exact in float64, so `float64(k)/2^53 < f` ⇔ `k < f·2^53` as reals ⇔
// `k < ceil(f·2^53)` — bit-identical decisions, no float conversion.
func fracThreshold(f float64) uint64 {
	return uint64(math.Ceil(f * (1 << 53)))
}

// Shared-constant thresholds, computed once.
var (
	thrTaken     = fracThreshold(takenFrac)
	thrHotTarget = fracThreshold(hotTargetFrac)
)

// Region is a contiguous address range touched by a phase.
type Region struct {
	Base, Size uint64
}

// Regions describes where a phase's memory traffic lands, for cache
// prewarming by the characterisation harness (the oracle measures
// steady-state IPC, so it prefills caches instead of burning simulated
// instructions on warmup).
type Regions struct {
	// Hot is the small L1-resident data region.
	Hot Region
	// Mid is the optional intermediate working set (zero Size if unused).
	Mid Region
	// Main is the bulk working set beyond the hot and mid regions.
	Main Region
	// Code is the instruction footprint; HotCode its hot loop body.
	Code, HotCode Region
}

// Regions returns the address layout phase p uses when it is the
// phaseIndex-th phase of an application (or of a PhaseGen). A non-zero
// RegionID redirects the phase onto another phase's region.
func (p Phase) Regions(phaseIndex int) Regions {
	if p.RegionID > 0 {
		phaseIndex = p.RegionID - 1
	}
	base := uint64(phaseIndex+1) << 28
	hotSize := uint64(p.HotSetKB) * 1024
	midSize := uint64(p.MidSetKB) * 1024
	mainSize := uint64(p.WorkingSetKB-p.HotSetKB-p.MidSetKB) * 1024
	if mainSize == 0 {
		mainSize = 64
	}
	codeKB := codeBaseKB + p.WorkingSetKB/codeWSDivisor
	if codeKB > codeMaxKB {
		codeKB = codeMaxKB
	}
	if p.CodeKB > 0 {
		codeKB = p.CodeKB
	}
	codeBase := base | 1<<40
	return Regions{
		Hot:     Region{Base: base, Size: hotSize},
		Mid:     Region{Base: base + hotSize, Size: midSize},
		Main:    Region{Base: base + hotSize + midSize, Size: mainSize},
		Code:    Region{Base: codeBase, Size: uint64(codeKB) * 1024},
		HotCode: Region{Base: codeBase, Size: hotCodeKB * 1024},
	}
}

const maxUint = ^uint64(0)

func (pg *phaseGen) init(p *Phase, phaseIndex int) {
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
	for b := 0; b < 256; b++ {
		lo, hi := uint64(b)<<56, uint64(b)<<56|(1<<56-1)
		if op := pg.opFor(lo); op == pg.opFor(hi) {
			pg.opTab[b] = uint8(op)
		} else {
			pg.opTab[b] = opAmbiguous
		}
	}

	pg.thrDep = fracThreshold(p.DepFrac)
	pg.thrSecond = fracThreshold(p.SecondSrcFrac)
	pg.thrMispredict = fracThreshold(p.MispredictRate)
	pg.thrHot = fracThreshold(p.HotFrac)
	pg.thrMid = fracThreshold(p.MidFrac)
	pg.thrStream = fracThreshold(p.StreamFrac)

	pg.recentLen = 0
	pg.recentPos = 0
	pg.nextDst = 1

	// Each phase gets its own 256MB-aligned address region so phase
	// transitions naturally incur cold misses.
	rg := p.Regions(phaseIndex)
	pg.hotBase = rg.Hot.Base
	pg.hotSize = rg.Hot.Size
	pg.midBase = rg.Mid.Base
	pg.midSize = rg.Mid.Size
	pg.mainBase = rg.Main.Base
	pg.mainSize = rg.Main.Size
	pg.streamPos = 0
	pg.depDistMax = int64(2*p.MeanDepDist) - 1
	if pg.depDistMax < 1 {
		pg.depDistMax = 1
	}

	pg.codeBase = rg.Code.Base
	pg.codeSize = rg.Code.Size
	pg.hotCode = rg.HotCode.Size
	pg.pc = pg.codeBase

	pg.fmHot = newFastMod(pg.hotSize)
	if pg.midSize > 0 {
		pg.fmMid = newFastMod(pg.midSize)
	}
	pg.fmMain = newFastMod(pg.mainSize)
	pg.fmCode = newFastMod(pg.codeSize)
	pg.fmHotCode = newFastMod(pg.hotCode)
	pg.fmDep = newFastMod(uint64(pg.depDistMax))
}

// opAmbiguous marks an opTab bucket that a mix threshold splits.
const opAmbiguous = 0xFF

// opFor is the reference op-class decision for a draw, used to build
// opTab and to resolve its ambiguous buckets.
func (pg *phaseGen) opFor(u uint64) isa.Op {
	switch {
	case u < pg.thrALU:
		return isa.OpALU
	case u < pg.thrMul:
		return isa.OpMul
	case u < pg.thrDiv:
		return isa.OpDiv
	case u < pg.thrFPU:
		return isa.OpFPU
	case u < pg.thrLoad:
		return isa.OpLoad
	case u < pg.thrStore:
		return isa.OpStore
	default:
		return isa.OpBranch
	}
}

// gen produces one instruction in place, overwriting *in entirely.
// Filling the caller's buffer slot directly keeps the staging-buffer
// fill loop free of per-instruction struct copies.
func (pg *phaseGen) gen(r *rng, in *isa.Instr) {
	*in = isa.Instr{}
	u := r.next()
	if op := pg.opTab[u>>56]; op != opAmbiguous {
		in.Op = isa.Op(op)
	} else {
		in.Op = pg.opFor(u)
	}

	// Source dependences.
	if r.bits53() < pg.thrDep {
		in.Src1 = pg.depReg(r)
		if r.bits53() < pg.thrSecond {
			in.Src2 = pg.depReg(r)
		}
	}

	switch in.Op {
	case isa.OpLoad:
		in.Addr = pg.genAddr(r)
		in.Dst = pg.allocDst()
	case isa.OpStore:
		in.Addr = pg.genAddr(r)
		// Stores consume a value; ensure at least one source.
		if in.Src1 == isa.RegZero {
			in.Src1 = pg.depReg(r)
		}
	case isa.OpBranch:
		in.Mispredict = r.bits53() < pg.thrMispredict
	default:
		in.Dst = pg.allocDst()
	}

	in.PC = pg.pc
	if in.Op == isa.OpBranch && r.bits53() < thrTaken {
		in.Taken = true
		// Taken branch: usually back into the hot loop body, sometimes
		// across the whole code region (call/return, cold paths).
		if r.bits53() < thrHotTarget {
			pg.pc = pg.codeBase + pg.fmHotCode.mod(r.next())&^3
		} else {
			pg.pc = pg.codeBase + pg.fmCode.mod(r.next())&^3
		}
	} else {
		pg.pc += 4
		if pg.pc >= pg.codeBase+pg.codeSize {
			pg.pc = pg.codeBase
		}
	}
}

// depReg resolves a sampled dependence distance to a recent producer.
func (pg *phaseGen) depReg(r *rng) isa.Reg {
	if pg.recentLen == 0 {
		return isa.RegZero
	}
	d := 1 + int64(pg.fmDep.mod(r.next()))
	if d > int64(pg.recentLen) {
		d = int64(pg.recentLen)
	}
	idx := pg.recentPos - int(d)
	if idx < 0 {
		idx += recentWindow
	}
	return pg.recent[idx]
}

// allocDst picks the next destination register round-robin through the
// architectural namespace (skipping the zero register) and records it
// as a recent producer.
func (pg *phaseGen) allocDst() isa.Reg {
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

// genAddr produces a data address according to the phase's locality model.
func (pg *phaseGen) genAddr(r *rng) uint64 {
	if r.bits53() < pg.thrHot {
		return pg.hotBase + pg.fmHot.mod(r.next())&^7
	}
	if pg.midSize > 0 && r.bits53() < pg.thrMid {
		return pg.midBase + pg.fmMid.mod(r.next())&^7
	}
	if r.bits53() < pg.thrStream {
		pg.streamPos += uint64(pg.p.Stride)
		if pg.streamPos >= pg.mainSize {
			pg.streamPos = 0
		}
		return pg.mainBase + pg.streamPos&^7
	}
	return pg.mainBase + pg.fmMain.mod(r.next())&^7
}
