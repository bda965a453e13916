package isim

import (
	"math"

	"cash/internal/mem"
	"cash/internal/ssim"
	"cash/internal/workload"
)

// Cold-start accounting for the interval tier.
//
// An in-context cycle-level run pays a cache-warming transition at
// every phase entry: each phase lives in its own 256MB address regions,
// so the caches hold nothing useful and the phase begins with a burst
// of compulsory misses that decays as the footprint (or the L2
// capacity, whichever is smaller) fills. On large-L2 configurations
// that transition spans millions of instructions and dominates the
// phase's average CPI — a fast tier that jumps straight to steady state
// after a short warm-up misses most of it (observed: up to +62%
// IPC error on 8-Slice/2MB cells before this model existed).
//
// The tiers account for it without executing the transition:
//
//  1. The phase-entry span runs detailed from the true cold state,
//     measuring the cold CPI and cold miss rates — exactly what the
//     cycle-level run pays there — split into halves so per-miss prices
//     can be solved (point 6).
//  2. A functional probe then continues on the *still-cold* caches:
//     cache and branch state advance over the real stream while clocks
//     stand still, and the probe's event counts measure the
//     mid-transition miss rates over a span long enough to give the
//     slow-decaying channels real statistics (a 20k-instruction pilot
//     half sees ~3 cold-code fetches at low branch rates; the probe
//     sees 3-5x that).
//  3. ssim.WarmPhaseStats then prefills the caches. The lines the prefill
//     installs that were not already resident are precisely the
//     compulsory misses the cycle-level run still has ahead of it at
//     this point of the stream: its residency deficit. A short warm
//     functional burn follows to restore LRU recency before the steady
//     window opens.
//  4. A steady detailed span on the warmed state measures the steady
//     CPI and miss rates. The marginal cycle cost of one additional
//     miss on this (machine, phase) point falls out of the measured
//     spans — overlap, correlated warm-up and bandwidth effects
//     included, because it is measured, not assumed.
//  5. Not every line of the deficit is an *excess* miss. A streamed or
//     thrashing working set misses at the same rate warm or cold, so
//     its compulsory misses are already inside the steady miss rate and
//     charging them again double-counts (observed: −20..−50% IPC on
//     streaming phases when the raw deficit was charged). Only retained
//     lines — installed lines the phase will re-reference before
//     evicting — cost extra. Retention is structural: the model walks
//     the phase's regions against the L2's line budget in re-reference
//     order and keeps each region's installed lines in proportion to
//     how much of the region fits. Code outranks the bulk working set
//     only when it fits in the space the hot layers leave: a resident
//     code footprint is re-referenced through the L1I every few hundred
//     instructions and wins the LRU race against a streaming data set,
//     but a code region too large for its share of the L2 churns with
//     the data and retains nothing.
//  6. The transition has a second, independent channel: the L1I. The
//     code footprint warms through the fetch path, and its cold-path
//     blocks are only reached via the rare non-hot branch target, so
//     the L1I compulsory transition can outlive the L2 one by hundreds
//     of thousands of instructions — and every L1I miss stalls the
//     composed front end, which on a wide virtual core costs far more
//     than an L2 hit's latency (observed: +17% IPC on 8-Slice cells
//     when this channel was unmodeled). The prefill's L1I touch-miss
//     count is that channel's deficit, retained in proportion to how
//     much of the code region the composed L1I holds, and discounted by
//     churn absorption: when the warmed L1I still misses at a steady
//     conflict rate, a cold block that would have been conflict-evicted
//     anyway misses at the steady rate warm or cold, so only the
//     competing-rates fraction d/(d+steady) of the deficit costs extra
//     (measured: 441 deficit blocks but only ~190 excess misses above
//     steady on a 2-Slice cell whose churn rate matched the cold rate).
//  7. Each channel's per-miss price is solved from the entry span's two
//     halves: two equations (each half's CPI excess over steady) in two
//     unknowns (κ per excess L2 miss, κI per excess L1I miss). The
//     halves often decay in lockstep, making the 2×2 system
//     ill-conditioned, so the estimator cascades: a channel whose
//     excess is already gone is dropped; a lone surviving L1I channel
//     is priced from the span's second half, where the short L2
//     compulsory burst is over and cold code is the only thing still
//     decaying (the direct solve there matched the observed ~90-cycle
//     effective front-end cost within ~10%); and when both channels
//     remain active and the 2×2 solve is degenerate, the aggregate
//     excess is split in proportion to each channel's structural
//     latency (memory delay for the L2, half of it for the L1I's
//     amplified front-end stall). Prices are clamped to
//     [0, 2·memDelay].
//  8. Measured guards bound each channel: the probe's mid-transition
//     rate caps how fast excess misses can accrue over the remainder,
//     and when the L2 rate is still visibly decaying between the entry
//     span's second half and the probe, the exponential through those
//     two points caps the L2 excess integral (a linear rate×remaining
//     cap let a slowly-decaying streaming transition charge its whole
//     deficit; observed −10% IPC on 8-Slice streaming cells).
//  9. A third channel covers what neither price sees: a cold code
//     block's *first* touch misses the L2 as well as the L1I, and when
//     the composed L1I cannot hold the code footprint that L1I miss is
//     churn — already priced inside the steady CPI at L2-*hit* cost —
//     while the cycle-level run pays an L2 *miss* there. The probe's
//     fetch-from-memory count (L1IL2Misses) measures this fresh-touch
//     process directly; the remainder's fresh touches are charged the
//     memory delay, after subtracting the ones the L1I channel already
//     priced (observed: +5..6% IPC on 1-Slice cells, whose 16KB L1I
//     holds a third of the code footprint, before this channel).
//  10. The rest of the phase is charged at the steady model plus the
//     one-time cold charge, minus the transition premium the
//     functionally-executed spans were already charged at the cold
//     rate. The net charge may be negative: a warm-up span charged cold
//     can overpay a short transition, and the refund keeps the phase
//     total anchored to the measured model.
type coldModel struct {
	cpiCold float64 // phase-entry span CPI
	mCold   float64 // entry span L2 misses per instruction
	mColdI  float64 // entry span L1I misses per instruction

	// Per-half measurements of the entry span (the κ/κI solve).
	cpi1, m1, mI1 float64 // first half
	cpi2, m2, mI2 float64 // second half
	fx2           float64 // second-half fetch-from-memory rate

	// Cold-probe measurements: event rates over the functional span that
	// ran on the still-cold caches, centered later in the transition than
	// the entry span's halves.
	probeN int64   // cold probe span length, instructions
	ap     float64 // probe L2 data-side misses per instruction
	bp     float64 // probe L1I misses per instruction
	rf     float64 // probe fetch-from-memory (L1I and L2 both miss) rate

	deficit  float64 // retained L2 data lines the prefill installed (doc point 5)
	deficitI float64 // retained L1I blocks the prefill installed (doc point 6)
	freshC   float64 // retained cold code L2 lines at prefill time (doc point 9)

	halfSnap snapshot // counters at the entry span's midpoint
	halfI    int64    // instructions into the entry span at the midpoint
	halfC    int64    // cycles into the entry span at the midpoint
	halfSeen bool
}

// markHalf snapshots the event counters at the phase-entry span's
// midpoint (got instructions and cyc cycles into the span), so
// entryDone can split the span into halves.
func (cm *coldModel) markHalf(det *ssim.Sim, got, cyc int64) {
	cm.halfSnap = snap(det)
	cm.halfI = got
	cm.halfC = cyc
	cm.halfSeen = true
}

// entryDone folds the completed phase-entry span (instrs, cycles, and
// the counter delta since phase entry) into the model. The caches are
// left cold: the probe that follows measures the mid-transition rates
// before warmDone prefills.
func (cm *coldModel) entryDone(instrs, cycles int64, pre, post snapshot) {
	cm.cpiCold = float64(cycles) / float64(instrs)
	cm.mCold = float64(post.l2-pre.l2) / float64(instrs)
	cm.mColdI = float64(post.l1i-pre.l1i) / float64(instrs)
	cm.cpi1, cm.m1, cm.mI1 = cm.cpiCold, cm.mCold, cm.mColdI
	cm.cpi2, cm.m2, cm.mI2 = cm.cpiCold, cm.mCold, cm.mColdI
	if cm.halfSeen && cm.halfI > 0 && instrs > cm.halfI {
		h, rest := cm.halfSnap, float64(instrs-cm.halfI)
		cm.cpi1 = float64(cm.halfC) / float64(cm.halfI)
		cm.m1 = float64(h.l2-pre.l2) / float64(cm.halfI)
		cm.mI1 = float64(h.l1i-pre.l1i) / float64(cm.halfI)
		cm.cpi2 = float64(cycles-cm.halfC) / rest
		cm.m2 = float64(post.l2-h.l2) / rest
		cm.mI2 = float64(post.l1i-h.l1i) / rest
		cm.fx2 = float64(post.fx-h.fx) / rest
	}
}

// probeDone folds the cold functional probe's event counts into the
// model (doc point 2).
func (cm *coldModel) probeDone(st ssim.FuncStats) {
	cm.probeN = st.Instrs
	if st.Instrs == 0 {
		return
	}
	n := float64(st.Instrs)
	cm.ap = float64(st.L2Misses+st.StoreL2Misses) / n
	cm.bp = float64(st.L1IMisses) / n
	cm.rf = float64(st.L1IL2Misses) / n
}

// warmDone prefills the caches for the phase and records the residency
// deficits (doc points 3, 5, 6, 9). It runs after the cold probe, so
// the deficits are what the cycle-level run still has ahead of it at
// this point of the stream, not at pilot end.
func (cm *coldModel) warmDone(det *ssim.Sim, src Source) {
	rg := src.CurrentRegions()
	ws := det.WarmPhaseStats(rg)
	// Re-reference-ordered retention walk (doc point 5). The budget is
	// what the prefilled L2 actually holds — its capacity, or less when
	// the regions underfill it.
	budget := float64(det.VCore().L2().ValidLines())
	walk := func(missed int, lines float64) float64 {
		if lines <= 0 {
			return 0
		}
		keep := lines
		if keep > budget {
			keep = budget
		}
		budget -= keep
		return float64(missed) * keep / lines
	}
	cm.deficit = walk(ws.Hot, regionLines(rg.Hot))
	cm.deficit += walk(ws.Mid, regionLines(rg.Mid))
	// Code claims budget before the bulk working set only when it fits
	// in what the hot layers leave (doc point 5); either way its missed
	// count feeds the fresh-touch channel, not the data channel.
	codeLines := regionLines(rg.Code)
	if codeLines <= budget {
		cm.freshC = walk(ws.Code, codeLines)
		cm.deficit += walk(ws.Main, regionLines(rg.Main))
	} else {
		cm.deficit += walk(ws.Main, regionLines(rg.Main))
		cm.freshC = walk(ws.Code, codeLines)
	}
	// L1I channel (doc point 6): the prefill's L1I installs, retained in
	// proportion to how much of the code footprint the composed L1I
	// holds.
	if codeLines > 0 {
		vc := det.VCore()
		var capLines float64
		for k := 0; k < len(vc.Slices()); k++ {
			capLines += float64(vc.Slice(k).L1I.SizeKB()) * 1024 / mem.BlockBytes
		}
		fit := capLines / codeLines
		if fit > 1 {
			fit = 1
		}
		cm.deficitI = float64(ws.CodeI) * fit
		// Fetches reach the L2 only through L1I misses, so a code block
		// the composed L1I retains can never become a fresh touch no
		// matter how cold the L2 is. When the L1I covers the code
		// region, only its own missing blocks (ws.CodeI) can fetch; when
		// it covers none of it, every cold L2 line eventually does.
		if e := float64(ws.CodeI) + (1-fit)*cm.freshC; e < cm.freshC {
			cm.freshC = e
		}
	}
}

// coldCharge returns the one-time cycle charge for the transition the
// skipped remainder will never execute. steadyCPI/mSteady/mISteady come
// from the warmed detailed span; burnPremium is the transition premium
// already paid by spans charged at the cold rate (charging them cold
// and then charging the full cold charge would double-count the early
// transition). remaining is the phase's uncharged instruction count.
func (cm *coldModel) coldCharge(det *ssim.Sim, steadyCPI, mSteady, mISteady, sfx float64, remaining int64, burnPremium float64) float64 {
	R := float64(remaining)
	// L2 data channel: deficit gated and capped by the probe's
	// mid-transition rate, and by the exponential decay through the entry
	// span's second half and the probe when both show the rate falling
	// (doc point 8).
	// Each channel splits into a span part — the excess events measured
	// during the probe itself, which golden pays on this very stretch of
	// the stream and the flat cold-rate pricing of the functional spans
	// does not itemise — and a remainder part extrapolated from the
	// deficit under the caps below. Span events are measurements, so
	// only the remainder part is capped.
	var excess float64
	a2 := cm.m2 - mSteady
	// Relative noise floor: on a miss-heavy steady state (a streaming
	// phase at ~0.5 misses per instruction) a rate delta of a percent or
	// two is measurement jitter between two short spans, but multiplied
	// by the remainder it charges real cycles. Deltas within 2% of the
	// steady rate are treated as zero.
	if d := cm.ap - mSteady; d > 0.02*mSteady && d > 0 {
		rem := cm.deficit
		if e := d * R; e < rem {
			rem = e
		}
		if a2 > d && cm.probeN > 0 {
			// Rate fell from a2 (span centered at 3/4 of the pilot) to d
			// (probe center); extrapolate the decay over the remainder,
			// which starts roughly a probe length past the probe center.
			tau := (float64(cm.halfI)/2 + float64(cm.probeN)/2) / math.Log(a2/d)
			if e := d * tau * math.Exp(-float64(cm.probeN)/tau); e < rem {
				rem = e
			}
		}
		if mSteady > 0 && cm.probeN > 0 {
			// Structural decay cap. A capacity transient — stale lines
			// depressing the hit rate until the phase's own traffic has
			// displaced them — is gone after one L2 turnover, and a
			// measured golden trajectory shows the excess rate recovering
			// roughly linearly across it (equivalent to an exponential
			// with τ of half the turnover). The two-point fit above cannot
			// see this when τ exceeds the fit baseline: a 0.027→0.025
			// rate drop reads as τ≈500k when the truth is ~150k, charging
			// 5x the realised excess.
			tauS := float64(det.VCore().L2().ValidLines()) / mSteady / 2
			if e := d * tauS * math.Exp(-float64(cm.probeN)/tauS); e < rem {
				rem = e
			}
		}
		excess = d*float64(cm.probeN) + rem
	}
	// L1I channel: deficit discounted by churn absorption and capped by
	// the probe rate (doc point 6). The coupon-collector tail decays far
	// slower than exponentially, so no decay cap here — the deficit and
	// churn discount bound it instead.
	var excessI, exIRem float64
	if dI := cm.bp - mISteady; dI > 0 {
		cf := dI / (dI + mISteady)
		exIRem = cm.deficitI
		if e := dI * R; e < exIRem {
			exIRem = e
		}
		exIRem *= cf
		excessI = cf*dI*float64(cm.probeN) + exIRem
	}
	// Price the channels from the entry span's halves (doc point 7).
	b1, y1 := cm.mI1-mISteady, cm.cpi1-steadyCPI
	b2, y2 := cm.mI2-mISteady, cm.cpi2-steadyCPI
	a1 := cm.m1 - mSteady
	dm, dmI := cm.mCold-mSteady, cm.mColdI-mISteady
	M := float64(det.MemDelay())
	maxK := 2 * M
	clampK := func(k float64) float64 {
		if k < 0 {
			return 0
		}
		if k > maxK {
			return maxK
		}
		return k
	}
	var kappa, kappaI float64
	switch {
	case excess > 0 && excessI <= 0:
		if dm > 1e-5 {
			kappa = clampK((cm.cpiCold - steadyCPI) / dm)
		} else {
			kappa = M
		}
	case excessI > 0 && excess <= 0:
		switch {
		case b2 > 1e-6 && y2 > 0 && abs(a2) < 0.1*b2:
			// The second half isolates the L1I channel.
			kappaI = clampK(y2 / b2)
		case dmI > 1e-5:
			kappaI = clampK((cm.cpiCold - steadyCPI) / dmI)
		default:
			kappaI = M / 2
		}
	case excess > 0 && excessI > 0:
		if d := a1*b2 - a2*b1; abs(d) > 0.1*(abs(a1*b2)+abs(a2*b1)) {
			kappa = (y1*b2 - y2*b1) / d
			kappaI = (a1*y2 - a2*y1) / d
		}
		if kappa < 0 || kappaI < 0 || kappa > maxK || kappaI > maxK {
			// Degenerate solve: split the aggregate by structural
			// latency ratio.
			alpha := (cm.cpiCold - steadyCPI) / (dm*M + dmI*M/2)
			kappa = clampK(alpha * M)
			kappaI = clampK(alpha * M / 2)
		}
	}
	// Average-cost ceilings. κ is a *marginal* price, and on a phase
	// whose steady state is already miss-bound the marginal cost of one
	// more miss cannot exceed the average cost the steady span observed
	// per miss — the memory-level parallelism that absorbs the steady
	// misses absorbs the excess ones identically (a gather phase's
	// measured marginal cost is ~2.5 cycles against an ill-conditioned
	// solve's 12.9). The ceiling is inert on miss-light phases, where
	// the steady rate is tiny and the ratio exceeds the clamp anyway.
	floor := 1 / float64(det.BWLimit())
	if mSteady > 0 {
		if ka := (steadyCPI - floor) / mSteady; ka < kappa {
			kappa = ka
		}
	}
	if mISteady > 0 {
		if ka := (steadyCPI - floor) / mISteady; ka < kappaI {
			kappaI = ka
		}
	}
	// When the pilot's second half still carried a measurable data-miss
	// excess over steady state, that half is a direct two-point probe of
	// the marginal price: (CPI₂ − steadyCPI)/a₂ is the observed cost per
	// excess miss, free of the average-cost bound's assumption that all
	// non-floor CPI is miss-attributable. Guard against noise — the
	// excess must be well above the measurement floor and the half must
	// actually have run slower than steady.
	if a2 > 0.02*mSteady && a2 > 1e-4 && cm.cpi2 > steadyCPI {
		if ka := (cm.cpi2 - steadyCPI) / a2; ka < kappa {
			kappa = ka
		}
	}
	// Fresh-touch channel (doc point 9): cold code lines' first touches
	// fetch from memory; the probe's fetch-from-memory rate bounds how
	// many the remainder realises, each block pays at most once, and the
	// ones the L1I channel already priced are subtracted. sfx — the
	// steady span's fetch-from-memory rate — gates the channel the same
	// way churn gates the L1I channel: when streaming data keeps evicting
	// code from the L2, fetches reach memory at the steady rate warm or
	// cold, the cost is already inside the steady CPI, and only the
	// competing-rates fraction of the deficit is genuinely transitional.
	var fresh float64
	if df := cm.rf - sfx; df > 0 {
		fresh = cm.freshC * df / (df + sfx)
		if e := df * R; e < fresh {
			fresh = e
		}
		if cm.fx2 > cm.rf && cm.rf > 0 && cm.probeN > 0 && mISteady < 1e-4 {
			// The fetch-from-memory rate fell from the entry span's
			// second half to the probe, and the warmed steady span shows
			// the composed L1I absorbing the whole fetch stream. Then the
			// fetch process provably dies once the L1I warms — after that
			// no fetch reaches the L2 at all, resident code or not — and
			// the decay through the two measured points caps how many
			// fresh touches the remainder can realise. A churning L1I
			// (steady misses > 0) keeps compulsory coverage alive
			// indefinitely, so there the deficit is the honest bound.
			tau := (float64(cm.halfI)/2 + float64(cm.probeN)/2) / math.Log(cm.fx2/cm.rf)
			if e := df * tau * math.Exp(-float64(cm.probeN)/tau); e < fresh {
				fresh = e
			}
		}
		fresh -= exIRem
		if fresh < 0 {
			fresh = 0
		}
	}

	if excess < 0 {
		excess = 0
	}
	if excessI < 0 {
		excessI = 0
	}
	// A fresh touch misses the L1I, pays the L2 lookup, and then goes to
	// memory — the detailed fetch path stalls for the L2 access delay
	// plus the memory delay, so the fresh price includes both.
	MF := M + det.VCore().L2().MeanHitDelay()
	return kappa*excess + kappaI*excessI + MF*fresh - burnPremium
}

func regionLines(r workload.Region) float64 {
	return float64((r.Size + mem.BlockBytes - 1) / mem.BlockBytes)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// snapshot captures the detailed simulator's event counters, so a
// stage can measure its own event rates as deltas. fx is the fetch-path
// L2 miss count: the cache-level L2 stats see every detailed Access
// (fetch and data side; functional Touches record nothing) while the
// perf counters attribute only the data side, so the difference is
// instruction fetches that reached memory.
type snapshot struct {
	l1i, l1d, l2, fx, br int64
}

func snap(det *ssim.Sim) snapshot {
	c := det.Counters()
	s := snapshot{l1d: c.L1DMisses, l2: c.L2Misses, br: c.BranchMispredicts}
	vc := det.VCore()
	s.fx = vc.L2().Stats().Misses - c.L2Misses
	for k := 0; k < len(vc.Slices()); k++ {
		s.l1i += vc.Slice(k).L1I.Stats().Misses
	}
	return s
}

func clamp(want, max int64) int64 {
	if want > max {
		return max
	}
	if want < 1 {
		return 1
	}
	return want
}
