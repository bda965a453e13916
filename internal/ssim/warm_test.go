package ssim

import (
	"math"
	"testing"

	"cash/internal/slice"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// winProfile runs one detailed measurement window of n instructions and
// returns its IPC and the window's delta in L1I misses (cache stats),
// load-side L1D misses and load-side L2 misses (counters).
func winProfile(s *Sim, src InstrSource, n int64) (ipc float64, i1, d1, l2m int64) {
	i0 := int64(0)
	for k := 0; k < len(s.VCore().Slices()); k++ {
		i0 += s.VCore().Slice(k).L1I.Stats().Misses
	}
	c0 := s.Counters()
	cyc0 := s.Cycle()
	instrs, _ := s.Run(src, n)
	i1 = -i0
	for k := 0; k < len(s.VCore().Slices()); k++ {
		i1 += s.VCore().Slice(k).L1I.Stats().Misses
	}
	c1 := s.Counters()
	return float64(instrs) / float64(s.Cycle()-cyc0), i1,
		c1.L1DMisses - c0.L1DMisses, c1.L2Misses - c0.L2Misses
}

// TestFuncRunMatchesDetailedCacheState pins the load-bearing equivalence
// behind the interval tier: executing a span functionally (FuncRun) leaves
// the caches in the same state as executing it in the detailed timing
// model, because ssim's cache probes happen in program order and are
// independent of timing. Two simulators consume the same stream — one
// functionally, one detailed — and a subsequent detailed measurement
// window must then observe identical miss counts on both (the cache
// state is bit-identical; only pipeline occupancy differs, which shifts
// IPC by at most a fraction of a percent).
func TestFuncRunMatchesDetailedCacheState(t *testing.T) {
	app := workload.X264()
	for _, tc := range []struct {
		pidx   int
		slices int
		l2kb   int
	}{
		{1, 1, 512}, {1, 4, 512}, {1, 8, 2048},
		{4, 2, 64}, {4, 3, 128},
		{6, 8, 8192}, {6, 4, 1024},
	} {
		p := app.Phases[tc.pidx]
		cfg := vcore.Config{Slices: tc.slices, L2KB: tc.l2kb}
		const span = 400_000
		const window = 200_000

		fs := MustNew(cfg, slice.DefaultConfig(), SteerEarliest)
		fg := workload.NewPhaseGen(p, tc.pidx, 42)
		fst := fs.FuncRun(fg, span)
		if fst.Instrs != span {
			t.Fatalf("p%d n=%d l2=%d: FuncRun executed %d of %d instrs",
				tc.pidx+1, tc.slices, tc.l2kb, fst.Instrs, span)
		}
		fIPC, fI, fD, fL2 := winProfile(fs, fg, window)

		ds := MustNew(cfg, slice.DefaultConfig(), SteerEarliest)
		dg := workload.NewPhaseGen(p, tc.pidx, 42)
		ds.Run(dg, span)
		dIPC, dI, dD, dL2 := winProfile(ds, dg, window)

		if fI != dI || fD != dD || fL2 != dL2 {
			t.Errorf("p%d n=%d l2=%d: window miss profile diverged after functional vs detailed span: "+
				"L1I %d vs %d, L1D %d vs %d, L2 %d vs %d",
				tc.pidx+1, tc.slices, tc.l2kb, fI, dI, fD, dD, fL2, dL2)
		}
		if rel := math.Abs(fIPC-dIPC) / dIPC; rel > 0.01 {
			t.Errorf("p%d n=%d l2=%d: window IPC diverged %.4f vs %.4f (%.2f%% > 1%%)",
				tc.pidx+1, tc.slices, tc.l2kb, fIPC, dIPC, 100*rel)
		}
	}
}

// TestFuncRunCountsMatchStream checks FuncStats' bookkeeping: the
// op-class counts of a functional span equal those of the generated
// stream, and the miss counters equal the detailed model's for the same
// cold-start span (both probe the same sequence from the same initial
// state).
func TestFuncRunCountsMatchStream(t *testing.T) {
	p := workload.X264().Phases[1]
	cfg := vcore.Config{Slices: 4, L2KB: 1024}
	const span = 300_000

	fs := MustNew(cfg, slice.DefaultConfig(), SteerEarliest)
	st := fs.FuncRun(workload.NewPhaseGen(p, 1, 42), span)

	ds := MustNew(cfg, slice.DefaultConfig(), SteerEarliest)
	ds.Run(workload.NewPhaseGen(p, 1, 42), span)
	c := ds.Counters()

	if d1 := st.L1DMisses + st.StoreL1Misses; d1 != c.L1DMisses {
		t.Errorf("functional L1D misses (load %d + store %d) diverge from detailed counter %d",
			st.L1DMisses, st.StoreL1Misses, c.L1DMisses)
	}
	if l2 := st.L2Misses + st.StoreL2Misses; l2 != c.L2Misses {
		t.Errorf("functional L2 misses (load %d + store %d) diverge from detailed counter %d",
			st.L2Misses, st.StoreL2Misses, c.L2Misses)
	}
	if st.Mispredicts != c.BranchMispredicts {
		t.Errorf("mispredicts %d vs detailed %d", st.Mispredicts, c.BranchMispredicts)
	}
	var dI int64
	for k := 0; k < len(ds.VCore().Slices()); k++ {
		dI += ds.VCore().Slice(k).L1I.Stats().Misses
	}
	if st.L1IMisses != dI {
		t.Errorf("functional L1I misses %d vs detailed %d", st.L1IMisses, dI)
	}
	if st.Loads == 0 || st.Stores == 0 || st.Branches == 0 {
		t.Errorf("op-class counts implausibly zero: %+v", st)
	}
	if got := st.Loads + st.Stores + st.Branches + st.MulOps + st.DivOps + st.FPUOps; got > st.Instrs {
		t.Errorf("op-class counts %d exceed instruction count %d", got, st.Instrs)
	}
}

// TestWarmPhaseMatchesLongWarmedRun pins the warm-up recipe: WarmPhase
// prefill followed by a short functional burn-in must land the first
// measured window within a few percent of a long detailed warm. The old
// recipe failed this by ~10% IPC (38% excess L2 misses) on mid-size L2
// configurations because its final Code sweep evicted the mid set, and
// left hundreds of first-window L1I misses on wide cores where a warmed
// run has none.
//
// The measurement span is 500k instructions (several windows) because
// single-window profiles are inherently noisy near L2 capacity: the
// streaming component's position makes window miss counts oscillate even
// between two long-warmed runs. Cells whose working set sits on the L2
// capacity boundary are excluded for the same reason — the long-warm
// reference itself does not converge there (observed: warm lengths of
// 1M..16M instructions yield window IPCs spanning 0.84..1.06 on x264 p2
// at 8 Slices/2MB).
func TestWarmPhaseMatchesLongWarmedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-instruction warm runs")
	}
	app := workload.X264()
	for _, tc := range []struct {
		pidx   int
		slices int
		l2kb   int
	}{
		{1, 1, 512}, {1, 4, 512}, {1, 8, 512}, {1, 4, 4096},
		{4, 2, 64}, {4, 3, 128}, {4, 8, 1024},
		{6, 4, 1024}, {6, 8, 8192},
	} {
		p := app.Phases[tc.pidx]
		cfg := vcore.Config{Slices: tc.slices, L2KB: tc.l2kb}
		rg := p.Regions(tc.pidx)
		const span = 500_000

		ws := MustNew(cfg, slice.DefaultConfig(), SteerEarliest)
		wg := workload.NewPhaseGen(p, tc.pidx, 42)
		ws.WarmPhase(rg)
		ws.FuncRun(wg, 300_000)
		wIPC, wI, _, wL2 := winProfile(ws, wg, span)

		ls := MustNew(cfg, slice.DefaultConfig(), SteerEarliest)
		lg := workload.NewPhaseGen(p, tc.pidx, 42)
		ls.Run(lg, 2_000_000)
		lIPC, lI, _, lL2 := winProfile(ls, lg, span)

		if rel := math.Abs(wIPC-lIPC) / lIPC; rel > 0.03 {
			t.Errorf("p%d n=%d l2=%d: prefilled window IPC %.4f vs long-warmed %.4f (%.2f%% > 3%%)",
				tc.pidx+1, tc.slices, tc.l2kb, wIPC, lIPC, 100*rel)
		}
		// On wide cores the composed L1I holds the code footprint: a
		// warmed run shows (near-)zero L1I misses and the prefill must
		// too — this is exactly what the old HotCode-only seeding broke.
		if lI <= 5 && wI > 50 {
			t.Errorf("p%d n=%d l2=%d: prefilled window has %d L1I misses where long-warmed has %d",
				tc.pidx+1, tc.slices, tc.l2kb, wI, lI)
		}
		// L2 miss volume within 2x + slack: recency interleaving differs,
		// but the gross residency (the old recipe's 38% excess) must not.
		if wL2 > 2*lL2+200 {
			t.Errorf("p%d n=%d l2=%d: prefilled window L2 misses %d vs long-warmed %d",
				tc.pidx+1, tc.slices, tc.l2kb, wL2, lL2)
		}
	}
}
