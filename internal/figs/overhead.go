package figs

import (
	"fmt"
	"io"
	"time"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/isa"
	"cash/internal/mem"
	"cash/internal/slice"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// Table1 prints the base Slice configuration actually simulated
// (Table I of the paper).
func (h *Harness) Table1() {
	c := slice.DefaultConfig()
	h.printf("Table I: base Slice configuration\n")
	rows := []struct {
		k string
		v int
	}{
		{"Number of Functional Units/Slice", c.FunctionalUnits},
		{"Number of Physical Registers", c.PhysRegs},
		{"Number of Local Registers/Slice", c.LocalRegs},
		{"Issue Window Size", c.IssueWindow},
		{"Load/Store Queue Size", c.IssueWindow},
		{"ROB size", c.ROBSize},
		{"Store Buffer Size", c.StoreBufferSize},
		{"Maximum In-flight Loads", c.MaxInflightLoads},
		{"Memory Delay", c.MemDelay},
		{"Fetch Width", c.FetchWidth},
	}
	for _, r := range rows {
		h.printf("  %-36s %d\n", r.k, r.v)
	}
}

// Table2 prints the base cache configuration (Table II).
func (h *Harness) Table2() {
	h.printf("Table II: base cache configurations\n")
	h.printf("  %-6s %-9s %-16s %-14s %s\n", "Level", "Size(KB)", "Block Size(B)", "Associativity", "Hit Delay")
	h.printf("  %-6s %-9d %-16d %-14d %d\n", "L1D", mem.L1SizeKB, mem.BlockBytes, mem.L1Assoc, mem.L1HitDelay)
	h.printf("  %-6s %-9d %-16d %-14d %d\n", "L1I", mem.L1SizeKB, mem.BlockBytes, mem.L1Assoc, mem.L1HitDelay)
	h.printf("  %-6s %-9s %-16d %-14d %s\n", "L2", "64/bank", mem.BlockBytes, mem.L2Assoc, "distance*2+4")
}

// Overhead regenerates §VI-A: the architectural reconfiguration
// overheads (Slice expansion/contraction, L2 flush) measured on live
// virtual cores, and the runtime overhead of Algorithm 1 as simulated
// cycles when the decision loop executes on 1–3 Slices of the CASH
// fabric itself. The host-side wall time of Algorithm 1 also runs here
// but reports to the diagnostic log: it is environment noise, and the
// report must stay byte-reproducible across resumes.
func (h *Harness) Overhead() error {
	h.textCell("overhead", "Section VI-A", h.overheadRender)
	return nil
}

// overheadRender writes the section to w.
func (h *Harness) overheadRender(w io.Writer) error {
	printf := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }
	printf("Section VI-A: overheads of reconfiguration\n\n")

	// --- Architectural overheads -------------------------------------
	scfg := slice.DefaultConfig()

	vc := vcore.MustNew(vcore.Config{Slices: 2, L2KB: 128}, scfg)
	stall, err := vc.Reconfigure(vcore.Config{Slices: 3, L2KB: 128})
	if err != nil {
		return err
	}
	printf("Slice expansion (pipeline flush):        %4d cycles\n", stall)

	// Contraction with a fully dirty register file: write every global
	// register from the departing Slice so the flush set is maximal.
	vc = vcore.MustNew(vcore.Config{Slices: 2, L2KB: 128}, scfg)
	for g := 1; g < isa.NumGlobalRegs; g++ {
		vc.RecordWrite(isa.Reg(g), g%2)
	}
	stall, err = vc.Reconfigure(vcore.Config{Slices: 1, L2KB: 128})
	if err != nil {
		return err
	}
	printf("Slice contraction (register flush):      %4d cycles (bounded by %d local registers)\n",
		stall, scfg.LocalRegs)

	// L2 contraction with every line dirty: worst case is
	// BankSize/NetworkWidth cycles per bank (64KB/8B = 8000).
	vc = vcore.MustNew(vcore.Config{Slices: 1, L2KB: 64}, scfg)
	bankBytes := uint64(mem.L2BankKB * 1024)
	for a := uint64(0); a < bankBytes; a += mem.BlockBytes {
		vc.L2().Access(a, true)
	}
	stall, err = vc.Reconfigure(vcore.Config{Slices: 1, L2KB: 128})
	if err != nil {
		return err
	}
	printf("L2 reconfiguration (all lines dirty):    %4d cycles per 64KB bank (worst case %d)\n",
		stall, mem.L2BankKB*1024/mem.NetworkWidthBytes)

	// --- Runtime overhead --------------------------------------------
	// Wall time of Algorithm 1 on the host — diagnostics only.
	target := 0.5
	rt := cashrt.MustNew(target, cost.Default(), cashrt.Options{Seed: h.Seed})
	obs := []alloc.Observation{{
		Config: vcore.Min(), Cycles: 100_000, Instrs: 45_000, QoS: 0.45,
	}}
	const iters = 10_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		rt.Decide(obs, 100_000)
	}
	perIter := time.Since(start) / iters
	h.logf("# runtime (Algorithm 1) on the host: %v per iteration\n", perIter)

	// Simulated cycles when the runtime's decision loop runs on the
	// CASH fabric itself (§VI-A measures its C implementation on 1–3
	// Slices). The decision loop is modelled as a short integer phase:
	// table scans over 64 configurations with modest ILP and an
	// L1-resident footprint.
	decide := workload.Phase{
		Name: "runtime-decide", Instrs: 700,
		Mix:         workload.InstrMix{ALU: 0.55, Mul: 0.02, Load: 0.22, Store: 0.09, Branch: 0.12},
		MeanDepDist: 2.6,
		DepFrac:     0.85, SecondSrcFrac: 0.5,
		WorkingSetKB: 16, HotSetKB: 8, HotFrac: 0.8,
		StreamFrac: 0.5, Stride: 16, MispredictRate: 0.02,
	}
	printf("\nRuntime executing on the CASH fabric (1000 iterations averaged):\n")
	for slices := 1; slices <= 3; slices++ {
		sim := ssim.MustNew(vcore.Config{Slices: slices, L2KB: 64}, scfg, ssim.SteerEarliest)
		gen := workload.NewPhaseGen(decide, 0, 11)
		// Warm the loop, then time 1000 iterations.
		sim.Run(gen, decide.Instrs*20)
		startCycle := sim.Cycle()
		sim.Run(gen, decide.Instrs*1000)
		cycles := (sim.Cycle() - startCycle) / 1000
		printf("  %d Slice(s): %4d cycles per iteration\n", slices, cycles)
	}
	return nil
}
