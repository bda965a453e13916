package ssim

import (
	"fmt"

	"cash/internal/mem"
	"cash/internal/slice"
)

// Describe returns a human-readable summary of the simulated
// microarchitecture (Tables I and II), for the harness output.
func Describe(cfg slice.Config) string {
	return fmt.Sprintf(
		"Slice: %d FUs, %d phys regs, %d local regs, IW=%d, ROB=%d, SB=%d, loads<=%d, mem=%d cyc, bp penalty=%d\n"+
			"L1: %dKB %d-way %dB blocks, %d-cycle hit; L2: %dKB %d-way banks, hit=distance*2+4; memory: %d cycles",
		cfg.FunctionalUnits, cfg.PhysRegs, cfg.LocalRegs, cfg.IssueWindow, cfg.ROBSize,
		cfg.StoreBufferSize, cfg.MaxInflightLoads, cfg.MemDelay, cfg.MispredictPenalty,
		mem.L1SizeKB, mem.L1Assoc, mem.BlockBytes, mem.L1HitDelay,
		mem.L2BankKB, mem.L2Assoc, mem.MemDelay)
}
