package ssim

import (
	"testing"

	"cash/internal/isa"
	"cash/internal/slice"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// chainSource produces a pure serial dependence chain of ALU ops:
// instruction i reads the result of instruction i-1.
type chainSource struct{ pc uint64 }

func (c *chainSource) Next(buf []isa.Instr) int {
	for i := range buf {
		buf[i] = isa.Instr{Op: isa.OpALU, Dst: 1, Src1: 1, PC: c.pc}
		c.pc += 4
		if c.pc >= 8192 {
			c.pc = 0
		}
	}
	return len(buf)
}

// wideSource produces fully independent ALU ops.
type wideSource struct {
	pc  uint64
	dst isa.Reg
}

func (w *wideSource) Next(buf []isa.Instr) int {
	for i := range buf {
		w.dst++
		if !w.dst.Valid() {
			w.dst = 1
		}
		buf[i] = isa.Instr{Op: isa.OpALU, Dst: w.dst, PC: w.pc}
		w.pc += 4
		if w.pc >= 8192 {
			w.pc = 0
		}
	}
	return len(buf)
}

func newSim(t *testing.T, cfg vcore.Config) *Sim {
	t.Helper()
	s, err := New(cfg, slice.DefaultConfig(), SteerEarliest)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ipcOf(t *testing.T, s *Sim, src InstrSource, n int64) float64 {
	t.Helper()
	s.PrefillL1I(0, 8192)
	s.Run(src, 2000)
	start := s.Cycle()
	instrs, _ := s.Run(src, n)
	if instrs != n {
		t.Fatalf("ran %d instructions, want %d", instrs, n)
	}
	return float64(instrs) / float64(s.Cycle()-start)
}

func TestSerialChainIPCIsOne(t *testing.T) {
	// A pure dependence chain of single-cycle ops can never exceed one
	// instruction per cycle, on any number of Slices.
	for _, slices := range []int{1, 4, 8} {
		s := newSim(t, vcore.Config{Slices: slices, L2KB: 256})
		got := ipcOf(t, s, &chainSource{}, 20000)
		if got > 1.01 {
			t.Errorf("%d slices: serial chain IPC %.3f exceeds 1", slices, got)
		}
		if got < 0.90 {
			t.Errorf("%d slices: serial chain IPC %.3f too far below the dataflow limit", slices, got)
		}
	}
}

func TestIndependentOpsScaleWithSlices(t *testing.T) {
	ipc1 := ipcOf(t, newSim(t, vcore.Config{Slices: 1, L2KB: 256}), &wideSource{}, 20000)
	ipc8 := ipcOf(t, newSim(t, vcore.Config{Slices: 8, L2KB: 256}), &wideSource{}, 20000)
	if ipc1 > 2.01 {
		t.Errorf("1 slice cannot exceed its fetch width: IPC %.3f", ipc1)
	}
	if ipc8 < ipc1*1.5 {
		t.Errorf("independent work should scale with Slices: %.3f -> %.3f", ipc1, ipc8)
	}
}

func TestFetchWidthBound(t *testing.T) {
	for _, slices := range []int{1, 2, 4} {
		s := newSim(t, vcore.Config{Slices: slices, L2KB: 256})
		got := ipcOf(t, s, &wideSource{}, 20000)
		bound := float64(2 * slices)
		if got > bound+0.01 {
			t.Errorf("%d slices: IPC %.3f exceeds fetch bound %.0f", slices, got, bound)
		}
	}
}

func TestDeterminism(t *testing.T) {
	app := x264().Scale(0.005)
	run := func() (int64, int64) {
		s := newSim(t, vcore.Config{Slices: 3, L2KB: 512})
		g := workload.NewGen(app, 42)
		instrs, cycles := s.Run(g, 1<<40)
		return instrs, cycles
	}
	i1, c1 := run()
	i2, c2 := run()
	if i1 != i2 || c1 != c2 {
		t.Errorf("simulation not deterministic: (%d,%d) vs (%d,%d)", i1, c1, i2, c2)
	}
}

func TestRunBudgetStopsAtInstrs(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 1, L2KB: 64})
	instrs, _ := s.RunBudget(&wideSource{}, 777, 1<<40)
	if instrs != 777 {
		t.Errorf("RunBudget ran %d instructions, want 777", instrs)
	}
}

func TestRunBudgetStopsAtCycles(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 1, L2KB: 64})
	_, cycles := s.RunBudget(&chainSource{}, 1<<40, 5000)
	if cycles < 5000 || cycles > 5200 {
		t.Errorf("RunBudget consumed %d cycles, want ~5000", cycles)
	}
}

func TestRunCyclesAdvancesClock(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 1, L2KB: 64})
	before := s.Cycle()
	_, cycles := s.RunBudget(&wideSource{}, 1<<62, 3000)
	if s.Cycle()-before != cycles {
		t.Error("returned cycles must match the clock advance")
	}
}

func TestAdvanceIdle(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 1, L2KB: 64})
	s.Run(&wideSource{}, 100)
	before := s.Cycle()
	s.AdvanceIdle(12345)
	if s.Cycle() != before+12345 {
		t.Errorf("idle advanced to %d, want %d", s.Cycle(), before+12345)
	}
	s.AdvanceIdle(-5)
	if s.Cycle() != before+12345 {
		t.Error("negative idle must be a no-op")
	}
}

func TestReconfigureChargesStall(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 2, L2KB: 128})
	s.Run(&wideSource{}, 5000)
	before := s.Cycle()
	stall, err := s.Reconfigure(vcore.Config{Slices: 4, L2KB: 128})
	if err != nil {
		t.Fatal(err)
	}
	if stall < slice.ExpandCycles {
		t.Errorf("stall = %d, want >= %d", stall, slice.ExpandCycles)
	}
	if s.Cycle() < before+stall {
		t.Error("stall must advance the clock")
	}
	if s.Config() != (vcore.Config{Slices: 4, L2KB: 128}) {
		t.Errorf("config = %s after reconfigure", s.Config())
	}
	// Same-config reconfigure is free.
	if st, _ := s.Reconfigure(s.Config()); st != 0 {
		t.Errorf("no-op reconfigure cost %d", st)
	}
}

func TestCountersMatchCommitted(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 4, L2KB: 256})
	app := x264().Scale(0.002)
	g := workload.NewGen(app, 9)
	instrs, _ := s.Run(g, 1<<40)
	agg := s.Counters()
	if agg.Committed != instrs || s.Committed() != instrs {
		t.Errorf("counters disagree: agg=%d sim=%d ran=%d", agg.Committed, s.Committed(), instrs)
	}
}

func TestL2CapacityMatters(t *testing.T) {
	// A phase whose working set fits in 2MB but not in 128KB must run
	// faster with the larger cache.
	p := workload.Phase{
		Name: "cap", Instrs: 1 << 20,
		Mix:         workload.InstrMix{ALU: 0.5, Load: 0.3, Store: 0.1, Branch: 0.1},
		MeanDepDist: 4, DepFrac: 0.8, SecondSrcFrac: 0.4,
		WorkingSetKB: 1024, HotSetKB: 8, HotFrac: 0.4,
		StreamFrac: 0.2, Stride: 64, MispredictRate: 0.03,
	}
	measure := func(l2 int) float64 {
		s := newSim(t, vcore.Config{Slices: 2, L2KB: l2})
		g := workload.NewPhaseGen(p, 0, 5)
		rg := p.Regions(0)
		s.PrefillL2(rg.Main.Base, rg.Main.Size)
		s.PrefillL2(rg.Code.Base, rg.Code.Size)
		s.PrefillL1D(rg.Hot.Base, rg.Hot.Size)
		s.PrefillL1I(rg.HotCode.Base, rg.HotCode.Size)
		s.Run(g, 4000)
		start := s.Cycle()
		instrs, _ := s.Run(g, 40000)
		return float64(instrs) / float64(s.Cycle()-start)
	}
	small, big := measure(128), measure(2048)
	if big < small*1.3 {
		t.Errorf("2MB L2 should clearly beat 128KB on a 1MB working set: %.3f vs %.3f", big, small)
	}
}

func TestMispredictsHurt(t *testing.T) {
	base := workload.Phase{
		Name: "bp", Instrs: 1 << 20,
		Mix:         workload.InstrMix{ALU: 0.6, Load: 0.1, Store: 0.1, Branch: 0.2},
		MeanDepDist: 4, DepFrac: 0.8,
		WorkingSetKB: 64, HotSetKB: 8, HotFrac: 0.9,
		StreamFrac: 0.5, Stride: 64,
	}
	measure := func(rate float64) float64 {
		p := base
		p.MispredictRate = rate
		s := newSim(t, vcore.Config{Slices: 2, L2KB: 256})
		g := workload.NewPhaseGen(p, 0, 5)
		s.Run(g, 4000)
		start := s.Cycle()
		instrs, _ := s.Run(g, 40000)
		return float64(instrs) / float64(s.Cycle()-start)
	}
	good, bad := measure(0), measure(0.15)
	if bad >= good {
		t.Errorf("mispredicts must cost cycles: %.3f vs %.3f", good, bad)
	}
}

func TestSteeringPoliciesDiffer(t *testing.T) {
	p := x264().Phases[3] // high-ILP transform phase
	measure := func(pol SteeringPolicy) float64 {
		s := MustNew(vcore.Config{Slices: 4, L2KB: 512}, slice.DefaultConfig(), pol)
		g := workload.NewPhaseGen(p, 0, 5)
		s.Run(g, 5000)
		start := s.Cycle()
		instrs, _ := s.Run(g, 40000)
		return float64(instrs) / float64(s.Cycle()-start)
	}
	greedy, rr := measure(SteerEarliest), measure(SteerRoundRobin)
	if greedy < rr*0.95 {
		t.Errorf("greedy steering should not lose badly to round-robin: %.3f vs %.3f", greedy, rr)
	}
}

func TestSourceExhaustion(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 1, L2KB: 64})
	app := x264().Scale(0.0001)
	g := workload.NewGen(app, 1)
	instrs, _ := s.Run(g, 1<<40)
	if instrs != app.TotalInstrs() {
		t.Errorf("ran %d, want the app's %d instructions", instrs, app.TotalInstrs())
	}
	if more, _ := s.Run(g, 10); more != 0 {
		t.Error("exhausted source must yield no instructions")
	}
}

func TestDescribeMentionsTableI(t *testing.T) {
	d := Describe(slice.DefaultConfig())
	for _, want := range []string{"ROB=64", "IW=32", "distance*2+4"} {
		if !contains(d, want) {
			t.Errorf("Describe() missing %q:\n%s", want, d)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestForceShrinkDrainsAndContinues(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 4, L2KB: 512})
	src := &wideSource{}
	s.Run(src, 5_000)
	before := s.Cycle()
	committed := s.Committed()

	// A forced shrink must charge at least the planned-reconfiguration
	// stall plus the pipeline drain (one cycle per ROB entry).
	stall, err := s.ForceShrink(vcore.Config{Slices: 3, L2KB: 512})
	if err != nil {
		t.Fatal(err)
	}
	if stall <= int64(slice.DefaultConfig().ROBSize) {
		t.Errorf("forced shrink stall %d should exceed the %d-cycle drain alone",
			stall, slice.DefaultConfig().ROBSize)
	}
	if s.Cycle() < before+stall {
		t.Errorf("clock %d did not advance by the stall (%d + %d)", s.Cycle(), before, stall)
	}
	if s.Config() != (vcore.Config{Slices: 3, L2KB: 512}) {
		t.Errorf("config = %s after forced shrink", s.Config())
	}
	if s.Committed() != committed {
		t.Error("forced shrink must not lose committed instructions")
	}

	// The run must survive: instructions keep committing afterwards.
	n, cycles := s.Run(src, 5_000)
	if n != 5_000 || cycles <= 0 {
		t.Fatalf("post-shrink run committed %d instrs in %d cycles", n, cycles)
	}
}

func TestForceShrinkRejectsGrowth(t *testing.T) {
	s := newSim(t, vcore.Config{Slices: 2, L2KB: 128})
	if _, err := s.ForceShrink(vcore.Config{Slices: 4, L2KB: 128}); err == nil {
		t.Error("forced shrink must reject a slice expansion")
	}
	if _, err := s.ForceShrink(vcore.Config{Slices: 2, L2KB: 256}); err == nil {
		t.Error("forced shrink must reject an L2 expansion")
	}
	if stall, err := s.ForceShrink(vcore.Config{Slices: 2, L2KB: 128}); err != nil || stall != 0 {
		t.Errorf("no-op forced shrink: stall=%d err=%v", stall, err)
	}
}

// x264 is the paper's motivating application.
func x264() workload.App {
	app, ok := workload.ByName("x264")
	if !ok {
		panic("workload: no x264 app")
	}
	return app
}
