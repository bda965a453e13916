// Package experiment is the evaluation harness (§VI): it runs an
// application on the simulated CASH fabric under a resource-allocation
// policy, applies reconfiguration overheads, bills rental cost, and
// records the cost/performance time series and QoS-violation counts
// that every figure and table of the paper's evaluation is built from.
package experiment

import (
	"fmt"

	"cash/internal/alloc"
	"cash/internal/cost"
	"cash/internal/guard"
	"cash/internal/noc"
	"cash/internal/perf"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// Sample is one control quantum's outcome.
type Sample struct {
	// Cycle is the quantum's end time.
	Cycle int64
	// Config is the configuration occupying most of the quantum.
	Config vcore.Config
	// CostRate is the average $/hour over the quantum (idle time bills
	// nothing).
	CostRate float64
	// QoS is the delivered IPC over the whole quantum, idle included.
	QoS float64
	// Violated marks QoS below target*(1-tolerance).
	Violated bool
	// Phase is the workload phase at quantum end.
	Phase int
	// Stall is reconfiguration stall cycles incurred in the quantum.
	Stall int64
}

// Result is a completed run.
type Result struct {
	App       string
	Allocator string
	Target    float64
	Tau       int64

	Samples []Sample

	TotalCost     float64
	TotalCycles   int64
	TotalInstrs   int64
	Violations    int
	ViolationRate float64
	ReconfigCount int64
	StallCycles   int64

	FaultStats

	// Guard holds the guardrail trip counters when the policy runs with
	// guardrails enabled (zero otherwise). Carried here so the figure
	// harness and the reliability artifact can report them per run.
	Guard guard.Stats
}

// MeanCostRate returns the run's average $/hour.
func (r Result) MeanCostRate() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return r.TotalCost / (float64(r.TotalCycles) / cost.CyclesPerHour)
}

// Run executes app under the policy until the workload completes.
func Run(app workload.App, policy alloc.Allocator, opts Opts) (Result, error) {
	b := &batch{app: app, res: Result{App: app.Name, Allocator: policy.Name()}}
	err := b.drive(policy, opts, b)
	return b.res, err
}

// batch is the batch mode of the quantum engine: run steps execute the
// app's instruction stream, and a quantum's QoS is its delivered IPC.
type batch struct {
	engine
	app   workload.App
	src   stream
	meter *perfMeter
	res   Result

	// The current quantum: instructions committed and cycles run per
	// configuration.
	qInstrs   int64
	occupancy map[vcore.Config]int64
}

// stream is a batch run's instruction source: a workload.Gen, or a
// workload.TraceReader, which reads exactly as the generator does.
type stream interface {
	ssim.InstrSource
	Done() bool
	PhaseIndex() int
}

func (b *batch) setup() error {
	if b.opts.Target == 0 {
		return fmt.Errorf("experiment: QoS target %v must be positive", b.opts.Target)
	}
	b.res.Target, b.res.Tau = b.opts.Target, b.opts.Tau
	if tr := b.opts.Trace; tr != nil {
		if !tr.Of(b.app, b.opts.Seed) {
			return fmt.Errorf("experiment: trace was not recorded from this definition of %s at seed %d",
				b.app.Name, b.opts.Seed)
		}
		b.src = tr.Reader()
	} else {
		b.src = workload.NewGen(b.app, b.opts.Seed)
	}
	b.meter = newPerfMeter()
	b.occupancy = map[vcore.Config]int64{}
	return nil
}

func (b *batch) more() bool      { return !b.src.Done() }
func (b *batch) exhausted() bool { return b.src.Done() }
func (b *batch) phase() int      { return b.src.PhaseIndex() }

func (b *batch) begin() {
	b.qInstrs = 0
	clear(b.occupancy)
}

func (b *batch) idle(ob alloc.Observation, budget int64) (alloc.Observation, bool) {
	b.sim.AdvanceIdle(budget)
	b.remaining -= budget
	ob.Cycles = budget
	return ob, true
}

func (b *batch) run(ob alloc.Observation, step alloc.Step, budget int64) (alloc.Observation, error) {
	maxInstrs := step.TargetInstrs
	if maxInstrs <= 0 {
		maxInstrs = 1 << 62
	}
	startInstr := b.sim.Committed()
	instrs, cycles := b.sim.RunBudget(b.src, maxInstrs, budget)
	// Read the step's instructions through the runtime interface network
	// and hold them to the simulator's own count.
	if err := b.meter.measure(b.sim, startInstr, instrs); err != nil {
		return ob, err
	}
	b.remaining -= cycles
	ob.Cycles += cycles
	ob.Instrs = instrs
	if cycles > 0 {
		ob.QoS = float64(instrs) / float64(cycles)
	}
	b.qCost += b.opts.Model.Charge(ob.Config, cycles)
	b.qInstrs += instrs
	b.occupancy[ob.Config] += cycles
	return ob, nil
}

func (b *batch) sample(qCycles int64) {
	if qCycles == 0 {
		return
	}
	qos := float64(b.qInstrs) / float64(qCycles)
	dominant := b.sim.Config()
	var domCycles int64
	for c, cyc := range b.occupancy {
		// Ties break toward the smaller configuration so the sample
		// is independent of map iteration order.
		if cyc > domCycles || (cyc == domCycles && cyc > 0 && configLess(c, dominant)) {
			dominant, domCycles = c, cyc
		}
	}
	s := Sample{
		Cycle:    b.sim.Cycle(),
		Config:   dominant,
		CostRate: b.qCost / (float64(qCycles) / cost.CyclesPerHour),
		QoS:      qos,
		Violated: qos < b.opts.Target*(1-b.opts.Tolerance),
		Phase:    b.src.PhaseIndex(),
		Stall:    b.qStall,
	}
	b.res.Samples = append(b.res.Samples, s)
	b.res.TotalCost += b.qCost
	b.res.TotalInstrs += b.qInstrs
	b.res.StallCycles += b.qStall
	if s.Violated {
		b.res.Violations++
	}
}

func (b *batch) finish(g guard.Stats) {
	b.res.TotalCycles = b.sim.Cycle()
	if len(b.res.Samples) > 0 {
		b.res.ViolationRate = float64(b.res.Violations) / float64(len(b.res.Samples))
	}
	b.res.ReconfigCount = b.reconfigs + int64(b.faults.Degradations)
	b.res.FaultStats = b.faults
	b.res.Guard = g
}

func configLess(a, b vcore.Config) bool {
	if a.Slices != b.Slices {
		return a.Slices < b.Slices
	}
	return a.L2KB < b.L2KB
}

// perfMeter measures committed instructions through the CASH runtime
// interface network: a monitor node issues timestamped counter requests
// to every Slice and synthesizes the virtual-core view from the replies
// (§III-B2). It exists so the evaluation exercises the paper's
// hardware-software monitoring interface rather than peeking at
// simulator internals; a reading that fails or disagrees with the
// simulator's own count fails the run.
type perfMeter struct {
	net     *noc.Network
	monitor *perf.Monitor
	nowFn   func() int64
	now     int64
}

const monitorNode noc.NodeID = 1000

func newPerfMeter() *perfMeter {
	m := &perfMeter{net: noc.NewCtrlNetwork()}
	m.nowFn = func() int64 { return m.now }
	// The runtime executes on a single-Slice virtual core adjacent to
	// the client's tiles (§III-B1).
	m.monitor = perf.NewMonitor(m.net, monitorNode, noc.Coord{X: 2, Y: -1})
	return m
}

// measure samples all Slices over the network and checks the committed
// instructions since startInstr against the simulator's directInstrs.
func (m *perfMeter) measure(sim *ssim.Sim, startInstr, directInstrs int64) error {
	m.now = sim.Cycle()
	slices := sim.VCore().Slices()
	targets := make([]noc.NodeID, 0, len(slices))
	for _, sl := range slices {
		perf.NewResponder(m.net, sl.ID, sl.Pos, sl, m.nowFn)
		targets = append(targets, sl.ID)
	}
	if _, err := m.monitor.RequestAll(targets, m.now); err != nil {
		return fmt.Errorf("experiment: perf-net counter request at cycle %d: %w", m.now, err)
	}
	// Let requests and replies propagate.
	m.net.DeliverUntil(m.now + 1_000)
	agg := perf.SynthesizeVCore(m.monitor.Drain())
	if measured := agg.Committed - startInstr; measured != directInstrs {
		return fmt.Errorf("experiment: perf-net read %d committed instructions at cycle %d, the simulator %d",
			measured, m.now, directInstrs)
	}
	return nil
}
