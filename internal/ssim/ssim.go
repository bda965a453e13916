// Package ssim is SSim, the cycle-level timing simulator for the CASH
// architecture (§V-A). It models every subsystem the paper lists —
// fetch, rename, issue, execution, memory, commit and the on-chip
// networks — for a virtual core of N Slices and a banked L2, with
// accurate out-of-order, inter-Slice and Slice-to-memory latencies.
//
// # Timing model
//
// SSim is a timestamped-dataflow simulator: instructions are processed
// in program order and each one's fetch, dispatch, issue, completion
// and commit cycles are computed from (a) the readiness of its source
// operands, including scalar-operand-network transfer time when the
// producer ran on a different Slice, and (b) per-resource next-free
// cursors that enforce the structural limits of Table I — fetch width,
// per-Slice issue window, ROB capacity, one ALU and one LSU per Slice,
// the store buffer, and the in-flight load limit. Caches are real tag
// arrays fed the workload's actual address stream. The model is O(1)
// per instruction, which is what makes the paper's brute-force oracle
// (§V-C) affordable, while preserving the constraints that give the
// configuration space its non-convex shape.
//
// The simulator supports mid-run reconfiguration with the overheads of
// §VI-A applied, which is how the runtime experiments of §VI drive it.
package ssim

import (
	"fmt"

	"cash/internal/isa"
	"cash/internal/mem"
	"cash/internal/noc"
	"cash/internal/slice"
	"cash/internal/vcore"
)

// InstrSource supplies dynamic instructions. workload.Gen,
// workload.PhaseGen and workload.TraceReader (a replay of a recorded
// workload.Trace) implement it.
type InstrSource interface {
	// Next fills buf with up to len(buf) instructions and returns how
	// many were produced; 0 means the stream is exhausted.
	Next(buf []isa.Instr) int
}

// SteeringPolicy selects which Slice executes each instruction.
type SteeringPolicy uint8

const (
	// SteerEarliest greedily picks the Slice where the instruction can
	// start soonest, accounting for operand-network transfers — the
	// CASH default.
	SteerEarliest SteeringPolicy = iota
	// SteerRoundRobin distributes instructions blindly; the ablation
	// baseline.
	SteerRoundRobin
)

// frontDepth is the fetch-to-dispatch pipeline depth in cycles
// (fetch, decode, global rename, local rename, dispatch; Fig 4).
const frontDepth = 5

// globalRenameSync is the extra front-end cycle a multi-Slice virtual
// core pays for global rename & scoreboard synchronization (Fig 4).
const globalRenameSync = 1

// fetchBlock groups instructions into I-cache line probes.
const fetchBlockMask = ^uint64(mem.BlockBytes - 1)

// lane is one Slice's structural state, flattened into a single struct
// so the per-instruction hot path (steering in particular) walks one
// contiguous array instead of chasing parallel slices. The scalar
// fields the steering loop reads sit first, in one cache line.
type lane struct {
	sl  *slice.Slice
	l1i *mem.Cache
	l1d *mem.Cache

	win      []int64 // issue-time ring, IssueWindow deep
	winPos   int
	loads    []int64 // completion-time ring, MaxInflightLoads deep
	loadPos  int
	stores   []int64 // store-buffer drain-time ring
	storePos int
}

// Sim is one virtual core executing one instruction stream.
type Sim struct {
	vc   *vcore.VCore
	scfg slice.Config
	pol  SteeringPolicy

	n int // current Slice count (cached from vc)

	// Front end.
	fetchCycle int64
	fetchCount int
	lastIBlock uint64 // last fetched I-block (the fetch unit streams blocks)

	// Per-Slice structural resources. The three per-Slice scalars the
	// steering scan reads — FU cursors and the cached next-window-slot
	// free time (win[winPos], so the per-candidate probe is an array
	// read, not a double-indexed ring lookup) — live in parallel fixed
	// arrays rather than in lane: the whole scan state for all Slices
	// then spans two host cache lines instead of one line per lane.
	aluFree [vcore.MaxSlices]int64
	lsuFree [vcore.MaxSlices]int64
	winHead [vcore.MaxSlices]int64
	lanes   []lane

	// Shared structures.
	rob    []int64 // commit-time ring, ROBSize*N deep
	robPos int

	// opLat[p*n+k] is the operand-network latency from Slice p to Slice
	// k, precomputed from the fabric layout at (re)configuration time.
	opLat []int64

	// Configuration-derived scalars, hoisted out of the per-instruction
	// path at (re)configuration time.
	l2       *mem.BankedL2
	bwLimit  int   // FetchWidth*n: fetch and commit bandwidth per cycle
	frontLat int64 // frontDepth (+ globalRenameSync when n > 1)
	memDelay int64
	// homeMask/homeShift replace the bank-interleave divide in locate
	// when the Slice count is a power of two (the fallback divide only
	// runs for n ∈ {3,5,6,7}).
	homePow2  bool
	homeShift uint
	homeMask  uint64

	// Commit cursors.
	commitCycle int64
	commitCount int

	// Register timing: ready cycle and producing Slice per global.
	regReady [isa.NumGlobalRegs]int64
	regProd  [isa.NumGlobalRegs]int16

	// Instruction staging buffer.
	buf  []isa.Instr
	bufN int
	bufI int

	committed int64
}

// New builds a simulator for the given initial configuration.
func New(cfg vcore.Config, sliceCfg slice.Config, pol SteeringPolicy) (*Sim, error) {
	vc, err := vcore.New(cfg, sliceCfg)
	if err != nil {
		return nil, err
	}
	s := &Sim{vc: vc, scfg: sliceCfg, pol: pol, buf: make([]isa.Instr, 512)}
	s.rebuild(0)
	for g := range s.regProd {
		s.regProd[g] = -1
	}
	return s, nil
}

// MustNew is New for statically-valid configurations.
func MustNew(cfg vcore.Config, sliceCfg slice.Config, pol SteeringPolicy) *Sim {
	s, err := New(cfg, sliceCfg, pol)
	if err != nil {
		panic(err)
	}
	return s
}

// rebuild resizes the per-Slice structures after (re)configuration,
// marking every resource free at cycle `at`. Rings and tables are
// refilled in place when their capacity allows — every entry is
// rewritten, so reuse is invisible to the timing model (guarded by the
// golden lockstep tests) but keeps reconfiguration and pooled-Sim
// recycling allocation-free after the first build at each size.
func (s *Sim) rebuild(at int64) {
	s.n = s.vc.Config().Slices
	ring := func(r []int64, depth int) []int64 {
		if cap(r) < depth {
			r = make([]int64, depth)
		}
		r = r[:depth]
		for j := range r {
			r[j] = at
		}
		return r
	}
	if cap(s.lanes) < s.n {
		grown := make([]lane, s.n)
		copy(grown, s.lanes[:cap(s.lanes)])
		s.lanes = grown
	}
	s.lanes = s.lanes[:s.n]
	for i := range s.lanes {
		ln := &s.lanes[i]
		sl := s.vc.Slice(i)
		ln.sl, ln.l1i, ln.l1d = sl, sl.L1I, sl.L1D
		ln.win = ring(ln.win, s.scfg.IssueWindow)
		ln.loads = ring(ln.loads, s.scfg.MaxInflightLoads)
		ln.stores = ring(ln.stores, s.scfg.StoreBufferSize)
		ln.winPos, ln.loadPos, ln.storePos = 0, 0, 0
	}
	for i := range s.aluFree {
		s.aluFree[i] = at
		s.lsuFree[i] = at
		s.winHead[i] = at
	}
	s.rob = ring(s.rob, s.scfg.ROBSize*s.n)
	s.robPos = 0
	s.lastIBlock = ^uint64(0)
	if cap(s.opLat) < s.n*s.n {
		s.opLat = make([]int64, s.n*s.n)
	}
	s.opLat = s.opLat[:s.n*s.n]
	for p := 0; p < s.n; p++ {
		for k := 0; k < s.n; k++ {
			s.opLat[p*s.n+k] = int64(noc.OperandLatency(s.vc.SliceDistance(p, k)))
		}
	}
	s.l2 = s.vc.L2()
	s.bwLimit = s.scfg.FetchWidth * s.n
	s.frontLat = frontDepth
	if s.n > 1 {
		s.frontLat += globalRenameSync
	}
	s.memDelay = int64(s.scfg.MemDelay)
	s.homePow2 = s.n&(s.n-1) == 0
	s.homeShift, s.homeMask = 0, 0
	if s.homePow2 {
		for 1<<s.homeShift < s.n {
			s.homeShift++
		}
		s.homeMask = uint64(s.n - 1)
	}
	if s.fetchCycle < at {
		s.fetchCycle = at
	}
	s.fetchCount = 0
	if s.commitCycle < at {
		s.commitCycle = at
	}
	s.commitCount = 0
	// Register values survive reconfiguration (the flush protocol moved
	// them), but producers may have moved; re-home them.
	for g := range s.regProd {
		if int(s.regProd[g]) >= s.n {
			s.regProd[g] = int16(s.vc.PrimaryHolder(isa.Reg(g)))
		}
	}
}

// Reset returns the simulator to the state New(cfg, sliceCfg, pol)
// would construct, reusing the retained virtual core, lane rings, ROB
// and staging buffer. A reset simulator produces bit-identical timing
// for any instruction stream (guarded by the pooled golden tests),
// which is what lets the oracle recycle simulators across
// characterisation cells instead of reallocating ~megabytes per cell.
func (s *Sim) Reset(cfg vcore.Config) error {
	if err := s.vc.Reset(cfg); err != nil {
		return err
	}
	s.fetchCycle, s.fetchCount = 0, 0
	s.commitCycle, s.commitCount = 0, 0
	s.committed = 0
	s.bufN, s.bufI = 0, 0
	for g := range s.regReady {
		s.regReady[g] = 0
		s.regProd[g] = -1
	}
	s.rebuild(0)
	return nil
}

// Config returns the current virtual-core configuration.
func (s *Sim) Config() vcore.Config { return s.vc.Config() }

// VCore exposes the underlying virtual core (for per-Slice counters and
// rename inspection).
func (s *Sim) VCore() *vcore.VCore { return s.vc }

// Cycle returns the current committed-work clock.
func (s *Sim) Cycle() int64 { return s.commitCycle }

// Committed returns total committed instructions.
func (s *Sim) Committed() int64 { return s.committed }

// Counters aggregates per-Slice counters into a virtual-core view.
func (s *Sim) Counters() slice.Counters {
	var buf [vcore.MaxSlices]slice.Sample
	samples := buf[:0]
	for _, sl := range s.vc.Slices() {
		samples = append(samples, sl.ReadCounters(s.commitCycle))
	}
	return slice.SynthesizeVCore(samples)
}

// CheckInvariants verifies the simulator's structural consistency: the
// clocks are non-negative, committed work is non-negative, the current
// configuration is legal, and the per-Slice machinery matches the
// configuration's Slice count. The chaos soak calls it after every
// control quantum; a violation means adversarial input corrupted
// simulator state rather than merely producing bad performance.
func (s *Sim) CheckInvariants() error {
	if s.commitCycle < 0 || s.fetchCycle < 0 {
		return fmt.Errorf("ssim: negative clock (commit=%d fetch=%d)", s.commitCycle, s.fetchCycle)
	}
	if s.committed < 0 {
		return fmt.Errorf("ssim: negative committed count %d", s.committed)
	}
	cfg := s.vc.Config()
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("ssim: illegal live configuration: %w", err)
	}
	if s.n != cfg.Slices || len(s.vc.Slices()) != cfg.Slices {
		return fmt.Errorf("ssim: slice machinery (%d cached, %d live) disagrees with configuration %s",
			s.n, len(s.vc.Slices()), cfg)
	}
	if len(s.lanes) != s.n || len(s.rob) != s.scfg.ROBSize*s.n {
		return fmt.Errorf("ssim: resource cursors not sized for %d Slices", s.n)
	}
	return nil
}

// Reconfigure switches the virtual core to a new configuration,
// charging the architectural stall (§VI-A) to the committed-work clock.
// It returns the stall cycles.
func (s *Sim) Reconfigure(to vcore.Config) (int64, error) {
	if to == s.vc.Config() {
		return 0, nil
	}
	sliceCountChanged := to.Slices != s.vc.Config().Slices
	stall, err := s.vc.Reconfigure(to)
	if err != nil {
		return 0, err
	}
	if sliceCountChanged {
		// The L1D address interleave is Slice-count dependent; banks
		// hold stale partitions after the change. L1s are write-through
		// (no dirty data), so this costs only cold misses.
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

// ForceShrink is the involuntary counterpart of Reconfigure: the fabric
// lost a tile (a slice or bank failure with no spare to remap onto) and
// the virtual core must drop to the surviving configuration `to` right
// now. Unlike a planned reconfiguration — which overlaps the register
// flush with useful work on the survivors — a forced shrink first
// drains every in-flight instruction so no architectural state is lost
// with the failing tile; the drain is bounded by the ROB capacity, so
// we charge one cycle per ROB entry on top of the ordinary
// reconfiguration stall. It returns the total stall cycles.
func (s *Sim) ForceShrink(to vcore.Config) (int64, error) {
	cur := s.vc.Config()
	if to == cur {
		return 0, nil
	}
	if to.Slices > cur.Slices || to.L2KB > cur.L2KB {
		return 0, fmt.Errorf("ssim: forced shrink to %s is not a shrink from %s", to, cur)
	}
	drain := int64(s.scfg.ROBSize)
	stall, err := s.Reconfigure(to)
	if err != nil {
		return 0, err
	}
	s.AdvanceIdle(drain)
	return stall + drain, nil
}

// Run executes up to maxInstrs instructions (or until the source is
// exhausted) and returns how many committed and the cycles consumed.
// The loop drains the staging buffer in batches — one bounds-checked
// slice walk per refill instead of a pull-one-instruction call per
// committed instruction.
func (s *Sim) Run(src InstrSource, maxInstrs int64) (instrs, cycles int64) {
	start := s.commitCycle
	for instrs < maxInstrs {
		batch := s.fill(src)
		if len(batch) == 0 {
			break
		}
		if rem := maxInstrs - instrs; int64(len(batch)) > rem {
			batch = batch[:rem]
		}
		if s.n == 1 {
			for i := range batch {
				s.exec1(&batch[i])
			}
		} else {
			for i := range batch {
				s.exec(&batch[i])
			}
		}
		instrs += int64(len(batch))
		s.bufI += len(batch)
	}
	return instrs, s.commitCycle - start
}

// RunBudget executes instructions until either maxInstrs commit or the
// committed-work clock advances by maxCycles, whichever comes first (or
// the source is exhausted).
func (s *Sim) RunBudget(src InstrSource, maxInstrs, maxCycles int64) (instrs, cycles int64) {
	start := s.commitCycle
	deadline := start + maxCycles
	for instrs < maxInstrs && s.commitCycle < deadline {
		batch := s.fill(src)
		if len(batch) == 0 {
			break
		}
		if rem := maxInstrs - instrs; int64(len(batch)) > rem {
			batch = batch[:rem]
		}
		// The deadline is re-checked after every instruction, exactly as
		// the one-at-a-time loop did.
		done := 0
		if s.n == 1 {
			for i := range batch {
				s.exec1(&batch[i])
				done++
				if s.commitCycle >= deadline {
					break
				}
			}
		} else {
			for i := range batch {
				s.exec(&batch[i])
				done++
				if s.commitCycle >= deadline {
					break
				}
			}
		}
		instrs += int64(done)
		s.bufI += done
	}
	return instrs, s.commitCycle - start
}

// AdvanceIdle advances the clock by the given cycles without executing
// instructions — the virtual core is parked (race-to-idle's idle time,
// or the idle tail of a CASH schedule).
func (s *Sim) AdvanceIdle(cycles int64) {
	if cycles <= 0 {
		return
	}
	s.commitCycle += cycles
	s.commitCount = 0
	if s.fetchCycle < s.commitCycle {
		s.fetchCycle = s.commitCycle
		s.fetchCount = 0
	}
}

// fill returns the staging buffer's unconsumed tail, refilling from the
// source when it is empty. An empty result means the source is
// exhausted. Callers advance s.bufI by however many entries they
// consume.
func (s *Sim) fill(src InstrSource) []isa.Instr {
	if s.bufI >= s.bufN {
		s.bufN = src.Next(s.buf)
		s.bufI = 0
	}
	return s.buf[s.bufI:s.bufN]
}

// exec runs one instruction through the timing model (n > 1 path; the
// single-Slice case takes exec1).
func (s *Sim) exec(in *isa.Instr) {
	n := s.n

	// --- Fetch ------------------------------------------------------
	// The fetch unit streams instruction blocks; blocks interleave
	// across the composed Slices' L1Is (block mod n), so a multi-Slice
	// virtual core has proportionally more instruction-cache capacity.
	if blk := in.PC & fetchBlockMask; blk != s.lastIBlock {
		s.lastIBlock = blk
		home, iaddr := s.locate(in.PC)
		if hit, _ := s.lanes[home].l1i.Access(iaddr, false); !hit {
			// L1I miss: probe the L2; a further miss goes to memory.
			l2hit, delay, _ := s.l2.Access(in.PC, false)
			stall := int64(delay)
			if !l2hit {
				stall += s.memDelay
			}
			s.fetchCycle += stall
			s.fetchCount = 0
		}
	}
	// ROB occupancy: this slot reuses the entry of the instruction
	// ROBSize*n back, which must have committed.
	if free := s.rob[s.robPos]; free > s.fetchCycle {
		s.fetchCycle = free
		s.fetchCount = 0
	}
	fetch := s.fetchCycle
	s.fetchCount++
	if s.fetchCount >= s.bwLimit {
		s.fetchCycle++
		s.fetchCount = 0
	}

	dispatch := fetch + s.frontLat

	// --- Steering & sources -----------------------------------------
	// The loads are unconditional: regReady[RegZero] is never written
	// (the writeback below is guarded), so a missing source reads the
	// same r = 0 the explicit RegZero test produced — and with r = 0 the
	// producer index is never consulted.
	src1, src2 := in.Src1, in.Src2
	r1, r2 := s.regReady[src1], s.regReady[src2]
	p1, p2 := int(s.regProd[src1]), int(s.regProd[src2])

	k := s.steer(dispatch, r1, r2, p1, p2, in.Op)
	ln := &s.lanes[k]
	sl := ln.sl

	// Operand-network transfers for remote sources (and rename
	// bookkeeping via the virtual core's global register protocol).
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

	// --- Issue -------------------------------------------------------
	// Window slot: reuses the entry of the instruction IssueWindow back
	// on this Slice, freed when that instruction issued.
	start := max(dispatch, s.winHead[k], r1, r2)

	var done int64
	switch in.Op {
	case isa.OpLoad:
		start, done = s.execLoad(in.Addr, k, start, ln)
	case isa.OpStore:
		start = s.execStore(in.Addr, k, start, ln)
		done = start // stores produce no value; commit waits for issue only
	case isa.OpNop:
		done = start
	default:
		start = max(start, s.aluFree[k])
		lat := int64(in.Op.Latency())
		done = start + lat
		if in.Op == isa.OpDiv {
			s.aluFree[k] = done // unpipelined
		} else {
			s.aluFree[k] = start + 1
		}
	}

	ln.win[ln.winPos] = start
	ln.winPos++
	if ln.winPos == len(ln.win) {
		ln.winPos = 0
	}
	s.winHead[k] = ln.win[ln.winPos]

	// --- Writeback ----------------------------------------------------
	if in.Dst != isa.RegZero {
		s.vc.RecordWrite(in.Dst, k)
		s.regReady[in.Dst] = done
		s.regProd[in.Dst] = int16(k)
	}

	// --- Branch resolution --------------------------------------------
	if in.Op == isa.OpBranch {
		if in.Mispredict {
			sl.Counters.BranchMispredicts++
			penalty := int64(s.scfg.MispredictPenalty)
			// Multi-Slice fetch must re-synchronize across the fetch &
			// BTB sync network (Fig 4) after a squash.
			penalty += 2 * int64(n-1)
			if t := done + penalty; t > s.fetchCycle {
				s.fetchCycle = t
				s.fetchCount = 0
			}
		} else if in.Taken {
			// Correctly-predicted taken branch: the distributed fetch
			// group still realigns to the new target across n Slices.
			s.fetchCycle += int64((n - 1) / 2)
			s.fetchCount = 0
		}
	}

	s.commit(done, sl)
}

// exec1 is the single-Slice specialization of exec: no steering loop,
// no L1D bank interleave (l1dLocate is the identity at n == 1), no
// operand-network terms (every producer is local, so transfer hops are
// structurally zero), no fetch-group realignment, and no global-rename
// synchronization cycle. The register-protocol calls remain — rename
// state must be exactly what a later expansion to n > 1 would observe.
func (s *Sim) exec1(in *isa.Instr) {
	ln := &s.lanes[0]

	// --- Fetch ------------------------------------------------------
	if blk := in.PC & fetchBlockMask; blk != s.lastIBlock {
		s.lastIBlock = blk
		if hit, _ := ln.l1i.Access(in.PC, false); !hit {
			l2hit, delay, _ := s.l2.Access(in.PC, false)
			stall := int64(delay)
			if !l2hit {
				stall += s.memDelay
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
	if s.fetchCount >= s.bwLimit {
		s.fetchCycle++
		s.fetchCount = 0
	}

	dispatch := fetch + frontDepth

	// --- Sources ------------------------------------------------------
	// Producers are always Slice 0, so readiness needs no transfer
	// terms; the rename bookkeeping still runs for its side effects.
	src1, src2 := in.Src1, in.Src2
	var r1, r2 int64
	if src1 != isa.RegZero {
		r1 = s.regReady[src1]
		s.vc.RecordRead(src1, 0)
	}
	if src2 != isa.RegZero {
		r2 = s.regReady[src2]
		s.vc.RecordRead(src2, 0)
	}

	// --- Issue -------------------------------------------------------
	start := max(dispatch, s.winHead[0], r1, r2)

	var done int64
	switch in.Op {
	case isa.OpLoad:
		start, done = s.execLoad1(in.Addr, start, ln)
	case isa.OpStore:
		start = s.execStore1(in.Addr, start, ln)
		done = start
	case isa.OpNop:
		done = start
	default:
		start = max(start, s.aluFree[0])
		done = start + int64(in.Op.Latency())
		if in.Op == isa.OpDiv {
			s.aluFree[0] = done
		} else {
			s.aluFree[0] = start + 1
		}
	}

	ln.win[ln.winPos] = start
	ln.winPos++
	if ln.winPos == len(ln.win) {
		ln.winPos = 0
	}
	s.winHead[0] = ln.win[ln.winPos]

	// --- Writeback ----------------------------------------------------
	if in.Dst != isa.RegZero {
		s.vc.RecordWrite(in.Dst, 0)
		s.regReady[in.Dst] = done
		s.regProd[in.Dst] = 0
	}

	// --- Branch resolution --------------------------------------------
	if in.Op == isa.OpBranch && in.Mispredict {
		ln.sl.Counters.BranchMispredicts++
		if t := done + int64(s.scfg.MispredictPenalty); t > s.fetchCycle {
			s.fetchCycle = t
			s.fetchCount = 0
		}
	}

	s.commit(done, ln.sl)
}

// commit retires one instruction whose execution completed at `done`,
// advancing the committed-work clock under the commit-bandwidth limit
// and recording the freed ROB slot.
func (s *Sim) commit(done int64, sl *slice.Slice) {
	c := max(done+1, s.commitCycle)
	if c > s.commitCycle {
		s.commitCycle = c
		s.commitCount = 0
	}
	s.commitCount++
	if s.commitCount >= s.bwLimit {
		s.commitCycle++
		s.commitCount = 0
	}
	s.rob[s.robPos] = c
	s.robPos++
	if s.robPos == len(s.rob) {
		s.robPos = 0
	}

	sl.Counters.Committed++
	s.committed++
}

// execLoad models a load on Slice k starting no earlier than `start`.
// It returns the actual issue time and the completion time.
func (s *Sim) execLoad(addr uint64, k int, start int64, ln *lane) (int64, int64) {
	// In-flight load limit: reuse the slot of the load MaxInflightLoads
	// back on this Slice.
	start = max(start, s.lsuFree[k], ln.loads[ln.loadPos])
	s.lsuFree[k] = start + 1

	lat := s.dataAccess(addr, k, false, ln.sl)
	done := start + lat
	ln.loads[ln.loadPos] = done
	ln.loadPos++
	if ln.loadPos == len(ln.loads) {
		ln.loadPos = 0
	}
	return start, done
}

// execStore models a store on Slice k. The store retires into the
// store buffer at issue and drains to the memory system in the
// background; a full store buffer stalls issue.
func (s *Sim) execStore(addr uint64, k int, start int64, ln *lane) int64 {
	start = max(start, s.lsuFree[k], ln.stores[ln.storePos])
	s.lsuFree[k] = start + 1

	lat := s.dataAccess(addr, k, true, ln.sl)
	ln.stores[ln.storePos] = start + lat
	ln.storePos++
	if ln.storePos == len(ln.stores) {
		ln.storePos = 0
	}
	return start
}

// execLoad1 and execStore1 are the n == 1 memory paths: the home bank
// is always Slice 0's L1D and the bank-local address is the address
// itself, so the interleave math and the remote-bank hop test drop out.
func (s *Sim) execLoad1(addr uint64, start int64, ln *lane) (int64, int64) {
	start = max(start, s.lsuFree[0], ln.loads[ln.loadPos])
	s.lsuFree[0] = start + 1

	lat := s.dataAccess1(addr, false, ln)
	done := start + lat
	ln.loads[ln.loadPos] = done
	ln.loadPos++
	if ln.loadPos == len(ln.loads) {
		ln.loadPos = 0
	}
	return start, done
}

func (s *Sim) execStore1(addr uint64, start int64, ln *lane) int64 {
	start = max(start, s.lsuFree[0], ln.stores[ln.storePos])
	s.lsuFree[0] = start + 1

	lat := s.dataAccess1(addr, true, ln)
	ln.stores[ln.storePos] = start + lat
	ln.storePos++
	if ln.storePos == len(ln.stores) {
		ln.storePos = 0
	}
	return start
}

// dataAccess walks the data path: the address's home L1D bank (remote
// banks cost load-store sorting-network hops), then the banked L2, then
// memory. L1s are write-through/write-allocate, so stores mark lines
// dirty only in the L2 — which is what makes Slice contraction cheap
// (§VI-A) while L2 reconfiguration pays the dirty flush.
func (s *Sim) dataAccess(addr uint64, k int, write bool, sl *slice.Slice) int64 {
	n := s.n
	bank, bankAddr := s.locate(addr)
	lat := int64(mem.L1HitDelay)
	if bank != k {
		lat += s.opLat[k*n+bank]
	}
	l1hit, _ := s.lanes[bank].l1d.Access(bankAddr, false)
	if l1hit && !write {
		return lat
	}
	if !l1hit {
		sl.Counters.L1DMisses++
	}
	// L1 miss (or write-through store): access the L2.
	l2hit, delay, _ := s.l2.Access(addr, write)
	if !l1hit {
		lat += int64(delay)
		if !l2hit {
			sl.Counters.L2Misses++
			lat += s.memDelay
		}
	}
	return lat
}

// dataAccess1 is dataAccess for n == 1: home bank 0, no interleave, no
// remote-bank hop.
func (s *Sim) dataAccess1(addr uint64, write bool, ln *lane) int64 {
	lat := int64(mem.L1HitDelay)
	l1hit, _ := ln.l1d.Access(addr, false)
	if l1hit && !write {
		return lat
	}
	if !l1hit {
		ln.sl.Counters.L1DMisses++
	}
	l2hit, delay, _ := s.l2.Access(addr, write)
	if !l1hit {
		lat += int64(delay)
		if !l2hit {
			ln.sl.Counters.L2Misses++
			lat += s.memDelay
		}
	}
	return lat
}

// locate is l1dLocate with the interleave divide replaced by the
// precomputed power-of-two mask/shift when the Slice count allows it.
// The returned bank-local address is block-aligned rather than carrying
// the raw low bits; every consumer indexes caches at block granularity,
// so the two forms are interchangeable.
func (s *Sim) locate(addr uint64) (bank int, bankAddr uint64) {
	if s.homePow2 {
		block := addr / mem.BlockBytes
		return int(block & s.homeMask), (block >> s.homeShift) * mem.BlockBytes
	}
	return l1dLocate(addr, s.n)
}

// l1dLocate maps a data address to its home Slice's L1D bank and the
// bank-local address under the load-store sorting network's
// block-granularity interleave (Fig 4). The (bank, local block) pair is
// a bijection of the block address, so no aliasing occurs and every L1
// set stays usable at any Slice count.
func l1dLocate(addr uint64, n int) (bank int, bankAddr uint64) {
	if n == 1 {
		return 0, addr
	}
	block := addr / mem.BlockBytes
	un := uint64(n)
	return int(block % un), (block / un) * mem.BlockBytes
}

// zeroRow stands in for a producer's opLat row when the source has no
// pending producer, letting steer's scan add row[k] unconditionally.
var zeroRow [vcore.MaxSlices]int64

// steer picks the executing Slice for an instruction.
func (s *Sim) steer(dispatch, r1, r2 int64, p1, p2 int, op isa.Op) int {
	n := s.n
	if n == 1 {
		return 0
	}
	if s.pol == SteerRoundRobin {
		// Reduce in int64 first: narrowing s.committed to int before the
		// modulo truncates on 32-bit platforms and can go negative, which
		// would index out of range on long runs.
		return int(s.committed % int64(n))
	}
	// Greedy earliest-start: for each candidate Slice, estimate when
	// the instruction could begin (operand transfers + FU availability)
	// and pick the earliest; ties go to the least-loaded.
	//
	// No-pending-source instructions (the common case — a source whose
	// producer already completed has readiness 0 here) depend only on
	// one FU cursor and the window head per lane, so they get dedicated
	// scans without the operand-transfer arithmetic.
	// The builtin max lowers to conditional moves: every compare below is
	// against data-dependent cycle counts, so branching on them would
	// mispredict roughly half the time in this — the hottest — loop.
	wh := s.winHead[:n]
	if r1 == 0 && r2 == 0 {
		best, bestStart := 0, int64(1<<62)
		switch {
		case op.IsMem():
			lsu := s.lsuFree[:n]
			for k := range wh {
				t := max(dispatch, lsu[k], wh[k])
				if t < bestStart {
					best, bestStart = k, t
				}
			}
		case op.UsesALU():
			alu := s.aluFree[:n]
			for k := range wh {
				t := max(dispatch, alu[k], wh[k])
				if t < bestStart {
					best, bestStart = k, t
				}
			}
		default:
			for k := range wh {
				t := max(dispatch, wh[k])
				if t < bestStart {
					best, bestStart = k, t
				}
			}
		}
		return best
	}
	// General path: the per-producer opLat rows and the op-class
	// predicates are loop-invariant, so they are hoisted out of the
	// candidate scan. An absent source is folded in branchlessly: its
	// readiness is forced to a large negative value (and its row to the
	// shared zero row) so the max() contribution is a no-op.
	a1, a2 := int64(-1)<<62, int64(-1)<<62
	row1, row2 := zeroRow[:n], zeroRow[:n]
	if r1 > 0 {
		a1 = r1
		if p1 >= 0 && p1 < n {
			row1 = s.opLat[p1*n : p1*n+n]
		}
	}
	if r2 > 0 {
		a2 = r2
		if p2 >= 0 && p2 < n {
			row2 = s.opLat[p2*n : p2*n+n]
		}
	}
	best, bestStart := 0, int64(1<<62)
	switch {
	case op.IsMem():
		lsu := s.lsuFree[:n]
		for k := range wh {
			t := max(dispatch, a1+row1[k], a2+row2[k], wh[k], lsu[k])
			if t < bestStart {
				best, bestStart = k, t
			}
		}
	case op.UsesALU():
		alu := s.aluFree[:n]
		for k := range wh {
			t := max(dispatch, a1+row1[k], a2+row2[k], wh[k], alu[k])
			if t < bestStart {
				best, bestStart = k, t
			}
		}
	default:
		for k := range wh {
			t := max(dispatch, a1+row1[k], a2+row2[k], wh[k])
			if t < bestStart {
				best, bestStart = k, t
			}
		}
	}
	return best
}
