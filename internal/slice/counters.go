package slice

// Counters is the per-Slice hardware counter block of CASH performance
// monitoring (§III-B2). All values are cumulative since the Slice was
// last reset; SynthesizeVCore combines timestamped samples of them into
// a virtual-core view.
//
// The paper's problem: counters are normally read at core level, but
// CASH has no fixed cores. Its solution is to keep counters per Slice,
// timestamp every sample, and let the runtime synthesize virtual-core
// QoS from the per-Slice samples. The paper carries the samples over a
// dedicated runtime interface network; this model reads them directly
// ((*Slice).ReadCounters), because that network's latency was never
// charged to a run.
type Counters struct {
	// Cycles is the Slice's cycle counter.
	Cycles int64
	// Committed counts instructions this Slice committed.
	Committed int64
	// L1DMisses, L2Misses count data-side cache misses attributed to
	// this Slice's accesses.
	L1DMisses int64
	L2Misses  int64
	// BranchMispredicts counts resolved mispredicted branches.
	BranchMispredicts int64
	// OperandMsgs counts scalar-operand-network transfers this Slice
	// initiated (a proxy for inter-Slice communication pressure).
	OperandMsgs int64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Cycles = max(c.Cycles, other.Cycles) // cycles are a shared clock, not additive
	c.Committed += other.Committed
	c.L1DMisses += other.L1DMisses
	c.L2Misses += other.L2Misses
	c.BranchMispredicts += other.BranchMispredicts
	c.OperandMsgs += other.OperandMsgs
}

// IPC returns committed instructions per cycle, or 0 before any cycle
// has elapsed.
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Committed) / float64(c.Cycles)
}

// Sample is one timestamped counter reading of one Slice. Timestamps
// let the runtime align samples taken from different Slices of the same
// virtual core (§III-B2).
type Sample struct {
	// SliceID identifies the sampled Slice.
	SliceID int
	// Timestamp is the cycle at which the counters were latched.
	Timestamp int64
	Counters  Counters
}

// SynthesizeVCore combines per-Slice samples of one virtual core into
// an aggregate counter view. Samples may be taken at different cycles;
// the aggregate clock is the latest timestamp, which is safe because
// commit counts are cumulative.
func SynthesizeVCore(samples []Sample) Counters {
	var agg Counters
	var latest int64
	for _, s := range samples {
		if s.Timestamp > latest {
			latest = s.Timestamp
		}
		agg.Committed += s.Counters.Committed
		agg.L1DMisses += s.Counters.L1DMisses
		agg.L2Misses += s.Counters.L2Misses
		agg.BranchMispredicts += s.Counters.BranchMispredicts
		agg.OperandMsgs += s.Counters.OperandMsgs
	}
	agg.Cycles = latest
	return agg
}
