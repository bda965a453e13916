package ssim

import (
	"testing"

	"cash/internal/isa"
	"cash/internal/mem"
	"cash/internal/noc"
	"cash/internal/slice"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// This file carries a verbatim copy of the seed timing model — per-Slice
// state in parallel slices, one instruction pulled through the staging
// buffer at a time, modulo ring cursors — as the behavioural reference
// for the flattened hot loop. The optimized simulator must stay
// bit-identical on every observable: committed counts, the clocks, the
// per-Slice counters and the register timing state. The oracle's cached
// characterisations, the figure outputs and the journal/chaos replay
// guarantees all assume the timing model never drifts.

type refSim struct {
	vc   *vcore.VCore
	scfg slice.Config
	pol  SteeringPolicy

	n int

	fetchCycle int64
	fetchCount int
	lastIBlock uint64

	aluFree  []int64
	lsuFree  []int64
	loads    [][]int64
	loadPos  []int
	stores   [][]int64
	storePos []int
	win      [][]int64
	winPos   []int

	rob    []int64
	robPos int

	opLat []int64

	commitCycle int64
	commitCount int

	regReady [isa.NumGlobalRegs]int64
	regProd  [isa.NumGlobalRegs]int16

	buf  []isa.Instr
	bufN int
	bufI int

	committed int64
}

func refNew(cfg vcore.Config, sliceCfg slice.Config, pol SteeringPolicy) (*refSim, error) {
	vc, err := vcore.New(cfg, sliceCfg)
	if err != nil {
		return nil, err
	}
	s := &refSim{vc: vc, scfg: sliceCfg, pol: pol, buf: make([]isa.Instr, 512)}
	s.rebuild(0)
	for g := range s.regProd {
		s.regProd[g] = -1
	}
	return s, nil
}

func (s *refSim) rebuild(at int64) {
	s.n = s.vc.Config().Slices
	resize := func(p *[]int64) {
		*p = (*p)[:0]
		for i := 0; i < s.n; i++ {
			*p = append(*p, at)
		}
	}
	resize(&s.aluFree)
	resize(&s.lsuFree)
	resizeRing := func(rings *[][]int64, pos *[]int, depth int) {
		*rings = (*rings)[:0]
		*pos = (*pos)[:0]
		for i := 0; i < s.n; i++ {
			r := make([]int64, depth)
			for j := range r {
				r[j] = at
			}
			*rings = append(*rings, r)
			*pos = append(*pos, 0)
		}
	}
	resizeRing(&s.loads, &s.loadPos, s.scfg.MaxInflightLoads)
	resizeRing(&s.stores, &s.storePos, s.scfg.StoreBufferSize)
	resizeRing(&s.win, &s.winPos, s.scfg.IssueWindow)
	s.rob = make([]int64, s.scfg.ROBSize*s.n)
	for i := range s.rob {
		s.rob[i] = at
	}
	s.robPos = 0
	s.lastIBlock = ^uint64(0)
	s.opLat = make([]int64, s.n*s.n)
	for p := 0; p < s.n; p++ {
		for k := 0; k < s.n; k++ {
			s.opLat[p*s.n+k] = int64(noc.OperandLatency(s.vc.SliceDistance(p, k)))
		}
	}
	if s.fetchCycle < at {
		s.fetchCycle = at
	}
	s.fetchCount = 0
	if s.commitCycle < at {
		s.commitCycle = at
	}
	s.commitCount = 0
	for g := range s.regProd {
		if int(s.regProd[g]) >= s.n {
			s.regProd[g] = int16(s.vc.PrimaryHolder(isa.Reg(g)))
		}
	}
}

func (s *refSim) Reconfigure(to vcore.Config) (int64, error) {
	if to == s.vc.Config() {
		return 0, nil
	}
	sliceCountChanged := to.Slices != s.vc.Config().Slices
	stall, err := s.vc.Reconfigure(to)
	if err != nil {
		return 0, err
	}
	if sliceCountChanged {
		for _, sl := range s.vc.Slices() {
			sl.L1D.Flush()
			sl.L1I.Flush()
		}
	}
	at := s.commitCycle + stall
	if f := s.fetchCycle + stall; f > at {
		at = f
	}
	s.rebuild(at)
	s.fetchCycle = at
	s.commitCycle = at
	return stall, nil
}

func (s *refSim) Run(src InstrSource, maxInstrs int64) (instrs, cycles int64) {
	start := s.commitCycle
	for instrs < maxInstrs {
		in, ok := s.next(src)
		if !ok {
			break
		}
		s.exec(in)
		instrs++
	}
	return instrs, s.commitCycle - start
}

func (s *refSim) RunCycles(src InstrSource, budget int64) (instrs, cycles int64) {
	start := s.commitCycle
	deadline := start + budget
	for s.commitCycle < deadline {
		in, ok := s.next(src)
		if !ok {
			break
		}
		s.exec(in)
		instrs++
	}
	return instrs, s.commitCycle - start
}

func (s *refSim) PrefillL1I(base, size uint64) {
	l2 := s.vc.L2()
	for a := base &^ (mem.BlockBytes - 1); a < base+size; a += mem.BlockBytes {
		home, iaddr := 0, a
		if s.n > 1 {
			home, iaddr = l1dLocate(a, s.n)
		}
		s.vc.Slice(home).L1I.Access(iaddr, false)
		l2.Access(a, false)
	}
	for _, sl := range s.vc.Slices() {
		sl.L1I.ResetStats()
	}
	l2.ResetStats()
}

func (s *refSim) next(src InstrSource) (isa.Instr, bool) {
	if s.bufI >= s.bufN {
		s.bufN = src.Next(s.buf)
		s.bufI = 0
		if s.bufN == 0 {
			return isa.Instr{}, false
		}
	}
	in := s.buf[s.bufI]
	s.bufI++
	return in, true
}

func (s *refSim) exec(in isa.Instr) {
	cfg := s.scfg
	n := s.n

	if blk := in.PC & fetchBlockMask; blk != s.lastIBlock {
		s.lastIBlock = blk
		home := 0
		iaddr := in.PC
		if n > 1 {
			home, iaddr = l1dLocate(in.PC, n)
		}
		if hit, _ := s.vc.Slice(home).L1I.Access(iaddr, false); !hit {
			l2hit, delay, _ := s.vc.L2().Access(in.PC, false)
			stall := int64(delay)
			if !l2hit {
				stall += int64(cfg.MemDelay)
			}
			s.fetchCycle += stall
			s.fetchCount = 0
		}
	}
	if free := s.rob[s.robPos]; free > s.fetchCycle {
		s.fetchCycle = free
		s.fetchCount = 0
	}
	fetch := s.fetchCycle
	s.fetchCount++
	if s.fetchCount >= cfg.FetchWidth*n {
		s.fetchCycle++
		s.fetchCount = 0
	}

	dispatch := fetch + frontDepth
	if n > 1 {
		dispatch += globalRenameSync
	}

	src1, src2 := in.Src1, in.Src2
	var r1, r2 int64
	p1, p2 := -1, -1
	if src1 != isa.RegZero {
		r1 = s.regReady[src1]
		p1 = int(s.regProd[src1])
	}
	if src2 != isa.RegZero {
		r2 = s.regReady[src2]
		p2 = int(s.regProd[src2])
	}

	k := s.steer(dispatch, r1, r2, p1, p2, in.Op)
	sl := s.vc.Slice(k)

	if src1 != isa.RegZero {
		if hops := s.vc.RecordRead(src1, k); hops > 0 {
			r1 += int64(noc.OperandLatency(hops))
			sl.Counters.OperandMsgs++
		}
	}
	if src2 != isa.RegZero {
		if hops := s.vc.RecordRead(src2, k); hops > 0 {
			r2 += int64(noc.OperandLatency(hops))
			sl.Counters.OperandMsgs++
		}
	}

	start := dispatch
	if wfree := s.win[k][s.winPos[k]]; wfree > start {
		start = wfree
	}
	if r1 > start {
		start = r1
	}
	if r2 > start {
		start = r2
	}

	var done int64
	switch in.Op {
	case isa.OpLoad:
		start, done = s.execLoad(in, k, start, sl)
	case isa.OpStore:
		start = s.execStore(in, k, start, sl)
		done = start
	case isa.OpNop:
		done = start
	default:
		if a := s.aluFree[k]; a > start {
			start = a
		}
		lat := int64(in.Op.Latency())
		done = start + lat
		if in.Op == isa.OpDiv {
			s.aluFree[k] = done
		} else {
			s.aluFree[k] = start + 1
		}
	}

	s.win[k][s.winPos[k]] = start
	s.winPos[k] = (s.winPos[k] + 1) % cfg.IssueWindow

	if in.Dst != isa.RegZero {
		s.vc.RecordWrite(in.Dst, k)
		s.regReady[in.Dst] = done
		s.regProd[in.Dst] = int16(k)
	}

	if in.Op == isa.OpBranch {
		if in.Mispredict {
			sl.Counters.BranchMispredicts++
			penalty := int64(cfg.MispredictPenalty)
			penalty += 2 * int64(n-1)
			if t := done + penalty; t > s.fetchCycle {
				s.fetchCycle = t
				s.fetchCount = 0
			}
		} else if in.Taken && n > 1 {
			s.fetchCycle += int64((n - 1) / 2)
			s.fetchCount = 0
		}
	}

	c := done + 1
	if c < s.commitCycle {
		c = s.commitCycle
	}
	if c > s.commitCycle {
		s.commitCycle = c
		s.commitCount = 0
	}
	s.commitCount++
	if s.commitCount >= cfg.FetchWidth*n {
		s.commitCycle++
		s.commitCount = 0
	}
	s.rob[s.robPos] = c
	s.robPos = (s.robPos + 1) % len(s.rob)

	sl.Counters.Committed++
	s.committed++
}

func (s *refSim) execLoad(in isa.Instr, k int, start int64, sl *slice.Slice) (int64, int64) {
	if f := s.lsuFree[k]; f > start {
		start = f
	}
	if lfree := s.loads[k][s.loadPos[k]]; lfree > start {
		start = lfree
	}
	s.lsuFree[k] = start + 1

	lat := s.dataAccess(in.Addr, k, false, sl)
	done := start + lat
	s.loads[k][s.loadPos[k]] = done
	s.loadPos[k] = (s.loadPos[k] + 1) % s.scfg.MaxInflightLoads
	return start, done
}

func (s *refSim) execStore(in isa.Instr, k int, start int64, sl *slice.Slice) int64 {
	if f := s.lsuFree[k]; f > start {
		start = f
	}
	if sfree := s.stores[k][s.storePos[k]]; sfree > start {
		start = sfree
	}
	s.lsuFree[k] = start + 1

	lat := s.dataAccess(in.Addr, k, true, sl)
	s.stores[k][s.storePos[k]] = start + lat
	s.storePos[k] = (s.storePos[k] + 1) % s.scfg.StoreBufferSize
	return start
}

func (s *refSim) dataAccess(addr uint64, k int, write bool, sl *slice.Slice) int64 {
	n := s.n
	bank, bankAddr := l1dLocate(addr, n)
	lat := int64(mem.L1HitDelay)
	if bank != k {
		lat += s.opLat[k*n+bank]
	}
	home := s.vc.Slice(bank)
	l1hit, _ := home.L1D.Access(bankAddr, false)
	if l1hit && !write {
		return lat
	}
	if !l1hit {
		sl.Counters.L1DMisses++
	}
	l2hit, delay, _ := s.vc.L2().Access(addr, write)
	if !l1hit {
		lat += int64(delay)
		if !l2hit {
			sl.Counters.L2Misses++
			lat += int64(s.scfg.MemDelay)
		}
	}
	return lat
}

func (s *refSim) steer(dispatch, r1, r2 int64, p1, p2 int, op isa.Op) int {
	n := s.n
	if n == 1 {
		return 0
	}
	if s.pol == SteerRoundRobin {
		k := int(s.committed) % n
		return k
	}
	best, bestStart := 0, int64(1<<62)
	for k := 0; k < n; k++ {
		t := dispatch
		if r1 > 0 {
			rr := r1
			if p1 >= 0 && p1 < n {
				rr += s.opLat[p1*n+k]
			}
			if rr > t {
				t = rr
			}
		}
		if r2 > 0 {
			rr := r2
			if p2 >= 0 && p2 < n {
				rr += s.opLat[p2*n+k]
			}
			if rr > t {
				t = rr
			}
		}
		var fu int64
		if op.IsMem() {
			fu = s.lsuFree[k]
		} else if op.UsesALU() {
			fu = s.aluFree[k]
		}
		if fu > t {
			t = fu
		}
		if wfree := s.win[k][s.winPos[k]]; wfree > t {
			t = wfree
		}
		if t < bestStart {
			best, bestStart = k, t
		}
	}
	return best
}

// compareState asserts the optimized simulator matches the reference on
// every observable the rest of the system can see: the clocks, the
// committed count, the register-timing state, and each Slice's counters.
func compareState(t *testing.T, tag string, got *Sim, want *refSim) {
	t.Helper()
	if got.committed != want.committed {
		t.Fatalf("%s: committed %d != ref %d", tag, got.committed, want.committed)
	}
	if got.commitCycle != want.commitCycle {
		t.Fatalf("%s: commitCycle %d != ref %d", tag, got.commitCycle, want.commitCycle)
	}
	if got.fetchCycle != want.fetchCycle || got.fetchCount != want.fetchCount {
		t.Fatalf("%s: fetch clock (%d,%d) != ref (%d,%d)",
			tag, got.fetchCycle, got.fetchCount, want.fetchCycle, want.fetchCount)
	}
	if got.regReady != want.regReady {
		t.Fatalf("%s: regReady diverged", tag)
	}
	if got.regProd != want.regProd {
		t.Fatalf("%s: regProd diverged", tag)
	}
	gs, ws := got.vc.Slices(), want.vc.Slices()
	if len(gs) != len(ws) {
		t.Fatalf("%s: %d slices != ref %d", tag, len(gs), len(ws))
	}
	for i := range gs {
		if gs[i].Counters != ws[i].Counters {
			t.Fatalf("%s: slice %d counters %+v != ref %+v", tag, i, gs[i].Counters, ws[i].Counters)
		}
	}
}

// TestSimMatchesSeedTimingModel runs the optimized simulator and the
// seed reference in lockstep over real workload streams — several
// applications, both steering policies, multiple seeds and a schedule
// of reconfigurations that crosses the n==1 fast path in both
// directions — and requires bit-identical state at every checkpoint.
func TestSimMatchesSeedTimingModel(t *testing.T) {
	apps := workload.Apps()
	if len(apps) < 4 {
		t.Fatalf("expected at least 4 catalogued apps, have %d", len(apps))
	}
	picks := []workload.App{apps[0], apps[3], apps[7], apps[11]}
	schedule := []vcore.Config{
		{Slices: 1, L2KB: 64},
		{Slices: 4, L2KB: 512},
		{Slices: 2, L2KB: 128},
		{Slices: 8, L2KB: 1024},
		{Slices: 1, L2KB: 256},
		{Slices: 3, L2KB: 512},
	}
	for _, pol := range []SteeringPolicy{SteerEarliest, SteerRoundRobin} {
		for _, app := range picks {
			app := app.Scale(0.02)
			for _, seed := range []uint64{3, 99} {
				opt, err := New(schedule[0], slice.DefaultConfig(), pol)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := refNew(schedule[0], slice.DefaultConfig(), pol)
				if err != nil {
					t.Fatal(err)
				}
				opt.PrefillL1I(0, 16384)
				ref.PrefillL1I(0, 16384)

				// Two independent generators over the same (app, seed)
				// emit identical streams, so the sims never share state.
				gOpt := workload.NewGen(app, seed)
				gRef := workload.NewGen(app, seed)

				for step, cfg := range schedule {
					tag := func(what string) string {
						return app.Name + "/" + cfg.String() + "/" + what +
							map[SteeringPolicy]string{SteerEarliest: "/earliest", SteerRoundRobin: "/rr"}[pol]
					}
					if step > 0 {
						so, eo := opt.Reconfigure(cfg)
						sr, er := ref.Reconfigure(cfg)
						if eo != nil || er != nil {
							t.Fatalf("%s: reconfigure errs %v / %v", tag("reconf"), eo, er)
						}
						if so != sr {
							t.Fatalf("%s: stall %d != ref %d", tag("reconf"), so, sr)
						}
						compareState(t, tag("reconf"), opt, ref)
					}
					// An instruction-bounded chunk (batched fill path)...
					io, co := opt.Run(gOpt, 12_000)
					ir, cr := ref.Run(gRef, 12_000)
					if io != ir || co != cr {
						t.Fatalf("%s: Run (%d,%d) != ref (%d,%d)", tag("run"), io, co, ir, cr)
					}
					compareState(t, tag("run"), opt, ref)
					// ...then a cycle-bounded chunk, which stops mid-batch.
					io, co = opt.RunBudget(gOpt, 1<<62, 3_000)
					ir, cr = ref.RunCycles(gRef, 3_000)
					if io != ir || co != cr {
						t.Fatalf("%s: RunCycles (%d,%d) != ref (%d,%d)", tag("cyc"), io, co, ir, cr)
					}
					compareState(t, tag("cyc"), opt, ref)
				}
			}
		}
	}
}
