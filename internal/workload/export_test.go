package workload

// PhaseAt maps a global instruction index to its phase index.
// Indexes past the end return the last phase.
func (a App) PhaseAt(instr int64) int {
	var acc int64
	for i, p := range a.Phases {
		acc += p.Instrs
		if instr < acc {
			return i
		}
	}
	return len(a.Phases) - 1
}
