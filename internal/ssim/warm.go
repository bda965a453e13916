package ssim

import (
	"cash/internal/mem"
	"cash/internal/workload"
)

// Cache prefill helpers. The oracle (§V-C) characterises steady-state
// performance of a (phase, configuration) point; rather than burning
// millions of simulated instructions to warm multi-megabyte working
// sets, it prefills the tag arrays with the phase's address regions and
// then measures.
//
// Placement is shared with the hot loop: every prefill homes a block
// exactly where exec/exec1 would probe it (locate's power-of-two
// mask/shift path and l1dLocate's mod/div are the same interleave, and
// raw vs block-aligned addresses are equivalent under the caches' block
// shift), so a prefilled line is always the line the run will hit. What
// a single in-order sweep cannot reproduce is LRU *recency*: sweeping
// region B after region A leaves B most-recent regardless of which one
// the phase re-references, and a sweep of a region that aliases a
// hotter one (HotCode is the head of Code) can evict the hot lines it
// just loaded. WarmPhaseStats below orders the sweeps so no later,
// colder sweep evicts a hotter earlier one; the residual recency error
// is washed out by a short FuncRun burn-in of the real stream, which
// the warm-up pinning tests hold against a long detailed warm.

// PrefillL2 touches every block of [base, base+size) in the banked L2
// without recording statistics, and returns how many touches missed —
// the lines the prefill installed that were not already resident.
func (s *Sim) PrefillL2(base, size uint64) (missed int) {
	l2 := s.vc.L2()
	for a := base &^ (mem.BlockBytes - 1); a < base+size; a += mem.BlockBytes {
		if !l2.Touch(a, false) {
			missed++
		}
	}
	return missed
}

// PrefillL1D touches every block of [base, base+size) in its home
// Slice's L1D (respecting the Slice-count-dependent address interleave)
// and in the L2, returning the L2 miss count.
func (s *Sim) PrefillL1D(base, size uint64) (missed int) {
	l2 := s.vc.L2()
	for a := base &^ (mem.BlockBytes - 1); a < base+size; a += mem.BlockBytes {
		bank, bankAddr := l1dLocate(a, s.n)
		s.vc.Slice(bank).L1D.Touch(bankAddr, false)
		if !l2.Touch(a, false) {
			missed++
		}
	}
	return missed
}

// PrefillL1I touches every block of [base, base+size) in its home
// Slice's L1I (instruction blocks interleave across the composed
// Slices, the same interleave the fetch path's locate uses) and in the
// L2, returning the L2 miss count and the L1I miss count — the
// instruction blocks the sweep installed that the fetch path had not
// yet pulled in.
func (s *Sim) PrefillL1I(base, size uint64) (missed, missedL1I int) {
	l2 := s.vc.L2()
	for a := base &^ (mem.BlockBytes - 1); a < base+size; a += mem.BlockBytes {
		home, iaddr := 0, a
		if s.n > 1 {
			home, iaddr = l1dLocate(a, s.n)
		}
		if !s.vc.Slice(home).L1I.Touch(iaddr, false) {
			missedL1I++
		}
		if !l2.Touch(a, false) {
			missed++
		}
	}
	return missed, missedL1I
}

// WarmStats breaks a WarmPhaseStats prefill's installed-line count down by
// region, so a consumer that knows the regions' re-reference behaviour
// (the interval tier's cold-start model) can weigh each region's compulsory
// misses separately. CodeI is the L1I-side deficit: instruction blocks
// the prefill installed into the composed L1I that the fetch path had
// not yet pulled in. It is tracked separately from the L2 counts
// because code warms on a different timescale — cold-path fetches
// trickle in via the occasional non-hot branch target, so an L1I
// compulsory transition can outlive the L2 one by hundreds of
// thousands of instructions.
type WarmStats struct {
	Main, Code, Mid, Hot int
	CodeI                int
}

// WarmPhaseStats is the canonical phase warm-up recipe: it prefills every
// cache level with the phase's address regions, ordered so each sweep
// is at least as re-referenced as the one before it — a later sweep may
// evict part of an earlier one, never the reverse.
//
// The previous ad-hoc recipe (Main, Mid, Code into the L2; Hot into the
// L1D; HotCode only into the L1I) had two measurable defects this
// ordering fixes. The Code sweep ran last, so on L2 configurations
// smaller than Main+Mid+Code it evicted the heavily re-referenced mid
// set in favour of code blocks the L1I mostly absorbs (~38% excess
// first-window L2 misses on x264's p2-me-wide at 512KB). And the L1I
// was seeded with only the 8KB hot loop body while a warmed L1I holds
// much of the code footprint — on 4- and 8-Slice virtual cores (64KB+
// of composed L1I) a long-warmed run shows zero first-window L1I misses
// where the old recipe left hundreds. Seeding the full Code region
// would in turn evict the hot body (HotCode aliases the head of Code),
// so the hot body is swept last.
//
// Prefill alone still cannot reproduce a warmed cache's recency
// interleaving; callers that need the first measured window to match a
// long-warmed run follow WarmPhaseStats with a short FuncRun of the real
// stream (the interval tier's recency burn). The combination is pinned
// against a long detailed warm by TestWarmPhaseMatchesLongWarmedRun.
//
// The returned counts are the L2 lines, per region, that the prefill
// installed and that were not already resident — the phase's residency
// deficit at the moment of the call, which is what the interval tier's
// cold-start model charges for. (Measuring the deficit as the change in L2 ValidLines is
// wrong for every phase but the first: once earlier phases have filled
// the L2, prefill replaces stale lines and ValidLines never moves.)
func (s *Sim) WarmPhaseStats(rg workload.Regions) WarmStats {
	var st WarmStats
	// L2, least re-referenced first: bulk working set, then code (the
	// L1I filters most re-references but the footprint belongs in the
	// L2), then the mid and hot sets the phase hammers.
	st.Main = s.PrefillL2(rg.Main.Base, rg.Main.Size)
	st.Code = s.PrefillL2(rg.Code.Base, rg.Code.Size)
	if rg.Mid.Size > 0 {
		st.Mid = s.PrefillL2(rg.Mid.Base, rg.Mid.Size)
	}
	// L1I: the full code footprint, hot loop body last so the full
	// sweep cannot evict it. (The L2 touches re-visit the code sweep
	// above, so any misses here are self-eviction refills.)
	l2m, l1im := s.PrefillL1I(rg.Code.Base, rg.Code.Size)
	st.Code += l2m
	st.CodeI += l1im
	l2m, l1im = s.PrefillL1I(rg.HotCode.Base, rg.HotCode.Size)
	st.Code += l2m
	st.CodeI += l1im
	// L1D (and L2 recency) for the hot set last: it is the most
	// re-referenced region of all.
	st.Hot = s.PrefillL1D(rg.Hot.Base, rg.Hot.Size)
	return st
}
