package ssim

import (
	"cash/internal/isa"
)

// Functional execution: the cache-state half of the timing model
// without the timing half.
//
// SSim probes its caches in program order — the fetch path per distinct
// fetch block, the data path per load and store — and every probe's
// placement (home Slice, bank-local address, write-through policy) is a
// pure function of the instruction, never of the timing state around
// it. FuncRun exploits that: it replays exactly the probe sequence
// exec/exec1 would issue, through the caches' statistics-free Touch
// mode, so the tag arrays, LRU stamps and dirty bits evolve
// bit-identically to a detailed run of the same stream while skipping
// all per-instruction timing work. The equivalence is pinned by
// TestFuncRunMatchesDetailedCacheState; it is what lets the interval
// tier measure miss rates, and burn in cache recency after a prefill,
// without paying for timing.

// FuncStats summarises one functional span: the instruction-class mix
// and the cache/branch events the interval model's penalty terms
// consume. Load- and store-side misses are split because only the load
// side stalls commit; summing the sides reproduces the detailed
// counters' aggregate attribution.
type FuncStats struct {
	Instrs int64

	Loads, Stores, Branches int64
	MulOps, DivOps, FPUOps  int64

	// FetchBlocks counts distinct-consecutive fetch-block probes;
	// L1IMisses the ones that missed L1I, L1IL2Misses the subset that
	// also missed the L2 (an instruction fetch from memory).
	FetchBlocks, L1IMisses, L1IL2Misses int64

	// L1DMisses/L2Misses are load-side misses; StoreL1Misses /
	// StoreL2Misses the store-side ones (stores are write-through, so a
	// store L1D miss lengthens the store-buffer drain but never stalls
	// commit directly). The detailed model's perf.Counters aggregate both
	// sides: Counters.L1DMisses = L1DMisses + StoreL1Misses and
	// Counters.L2Misses = L2Misses + StoreL2Misses, which
	// TestFuncRunCountsMatchStream pins.
	L1DMisses, L2Misses, StoreL1Misses, StoreL2Misses int64

	Mispredicts int64
}

// FuncRun executes up to maxInstrs instructions functionally: caches
// and branch accounting advance exactly as a detailed run would, the
// clocks and structural resources do not move at all. It shares the
// staging buffer and fetch-block state with the detailed paths, so
// detailed and functional spans can interleave on one simulator with no
// seam: a detailed window run after a functional span observes the
// cache state a fully-detailed history would have produced.
func (s *Sim) FuncRun(src InstrSource, maxInstrs int64) FuncStats {
	var st FuncStats
	for st.Instrs < maxInstrs {
		batch := s.fill(src)
		if len(batch) == 0 {
			break
		}
		if rem := maxInstrs - st.Instrs; int64(len(batch)) > rem {
			batch = batch[:rem]
		}
		if s.n == 1 {
			for i := range batch {
				s.funcExec1(&batch[i], &st)
			}
		} else {
			for i := range batch {
				s.funcExec(&batch[i], &st)
			}
		}
		st.Instrs += int64(len(batch))
		s.bufI += len(batch)
	}
	return st
}

// funcExec mirrors exec's cache-probe sequence for n > 1.
func (s *Sim) funcExec(in *isa.Instr, st *FuncStats) {
	if blk := in.PC & fetchBlockMask; blk != s.lastIBlock {
		s.lastIBlock = blk
		st.FetchBlocks++
		home, iaddr := s.locate(in.PC)
		if !s.lanes[home].l1i.Touch(iaddr, false) {
			st.L1IMisses++
			if !s.l2.Touch(in.PC, false) {
				st.L1IL2Misses++
			}
		}
	}
	s.funcData(in, st)
}

// funcExec1 mirrors exec1's cache-probe sequence for n == 1 (the L1I is
// probed at the raw PC; locate's block alignment is cache-equivalent,
// but the paths are kept textually parallel to the detailed ones so an
// audit diffs them line for line).
func (s *Sim) funcExec1(in *isa.Instr, st *FuncStats) {
	if blk := in.PC & fetchBlockMask; blk != s.lastIBlock {
		s.lastIBlock = blk
		st.FetchBlocks++
		if !s.lanes[0].l1i.Touch(in.PC, false) {
			st.L1IMisses++
			if !s.l2.Touch(in.PC, false) {
				st.L1IL2Misses++
			}
		}
	}
	s.funcData(in, st)
}

// funcData is the op-class dispatch shared by both widths: the data
// path mirrors dataAccess/dataAccess1 (write-through stores always
// reach the L2; loads only on an L1D miss), the rest only counts.
func (s *Sim) funcData(in *isa.Instr, st *FuncStats) {
	switch in.Op {
	case isa.OpLoad:
		st.Loads++
		var l1hit bool
		if s.n == 1 {
			l1hit = s.lanes[0].l1d.Touch(in.Addr, false)
		} else {
			bank, bankAddr := s.locate(in.Addr)
			l1hit = s.lanes[bank].l1d.Touch(bankAddr, false)
		}
		if !l1hit {
			st.L1DMisses++
			if !s.l2.Touch(in.Addr, false) {
				st.L2Misses++
			}
		}
	case isa.OpStore:
		st.Stores++
		var l1hit bool
		if s.n == 1 {
			l1hit = s.lanes[0].l1d.Touch(in.Addr, false)
		} else {
			bank, bankAddr := s.locate(in.Addr)
			l1hit = s.lanes[bank].l1d.Touch(bankAddr, false)
		}
		l2hit := s.l2.Touch(in.Addr, true)
		if !l1hit {
			st.StoreL1Misses++
			if !l2hit {
				st.StoreL2Misses++
			}
		}
	case isa.OpBranch:
		st.Branches++
		if in.Mispredict {
			st.Mispredicts++
		}
	case isa.OpMul:
		st.MulOps++
	case isa.OpDiv:
		st.DivOps++
	case isa.OpFPU:
		st.FPUOps++
	}
}

// Add accumulates another span's statistics, so a caller assembling one
// logical span from several FuncRun calls (a budget-bounded probe) can
// merge them.
func (a *FuncStats) Add(b FuncStats) {
	a.Instrs += b.Instrs
	a.Loads += b.Loads
	a.Stores += b.Stores
	a.Branches += b.Branches
	a.MulOps += b.MulOps
	a.DivOps += b.DivOps
	a.FPUOps += b.FPUOps
	a.FetchBlocks += b.FetchBlocks
	a.L1IMisses += b.L1IMisses
	a.L1IL2Misses += b.L1IL2Misses
	a.L1DMisses += b.L1DMisses
	a.L2Misses += b.L2Misses
	a.StoreL1Misses += b.StoreL1Misses
	a.StoreL2Misses += b.StoreL2Misses
	a.Mispredicts += b.Mispredicts
}

// MemDelay exposes the configured main-memory latency for the interval
// model's penalty terms.
func (s *Sim) MemDelay() int64 { return s.memDelay }

// MeanL2HitDelay exposes the current L2 placement's mean hit delay for
// the interval model's penalty terms.
func (s *Sim) MeanL2HitDelay() float64 { return s.l2.MeanHitDelay() }

// BWLimit exposes the per-cycle fetch/commit bandwidth
// (FetchWidth × Slices) — the structural dispatch limit of Table I that
// floors the interval model's CPI.
func (s *Sim) BWLimit() int { return s.bwLimit }

// MispredictPenalty exposes the effective squash penalty of the current
// composition: the Slice pipeline refill (Table I) plus the fetch/BTB
// re-synchronisation hops a multi-Slice virtual core pays (Fig 4).
func (s *Sim) MispredictPenalty() int64 {
	p := int64(s.scfg.MispredictPenalty)
	if s.n > 1 {
		p += 2 * int64(s.n-1)
	}
	return p
}
