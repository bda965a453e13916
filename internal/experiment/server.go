package experiment

import (
	"fmt"

	"cash/internal/alloc"
	"cash/internal/cost"
	"cash/internal/guard"
	"cash/internal/stats"
	"cash/internal/workload"
)

// Server-mode experiment (Fig 9 and the tail-latency study): an
// interactive server processes an open-loop request stream; QoS is
// request latency against a cycles-per-request budget rather than IPC.
// The allocator sees QoS(t) = targetLatency / currentLatency, so "1.0"
// means exactly meeting the latency target and the generic controllers
// regulate it like any other QoS signal.
//
// The serving engine is open-loop and overload-safe: arrivals the
// bounded queue cannot hold are shed (counted, never silently dropped),
// per-request latencies feed an HDR-style histogram so results report
// tail quantiles (p50/p95/p99/p999) and SLO-violation minutes alongside
// the means the paper plots, and each control quantum publishes a tail
// QoS signal (budget over p99, pending age included) that the guard
// subsystem's tail breaker consumes.

// ShedPolicy selects how the serving engine degrades under overload.
type ShedPolicy int

const (
	// ShedDropNewest drops arrivals that find the queue at its cap (the
	// classic bounded-queue policy: reject new work, finish admitted
	// work). This is the default.
	ShedDropNewest ShedPolicy = iota
	// ShedDeadline additionally sheds queued requests whose sojourn
	// already exceeds deadlineFactor × the latency budget before they
	// reach the server: their SLO is unrecoverably blown, so serving
	// them would spend capacity making every later request slower too.
	ShedDeadline
)

// String names the policy for reports and flags.
func (p ShedPolicy) String() string {
	switch p {
	case ShedDropNewest:
		return "drop-newest"
	case ShedDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("ShedPolicy(%d)", int(p))
	}
}

// ShedPolicyByName parses a -shed flag value.
func ShedPolicyByName(name string) (ShedPolicy, error) {
	switch name {
	case "", "drop-newest", "newest":
		return ShedDropNewest, nil
	case "deadline":
		return ShedDeadline, nil
	default:
		return 0, fmt.Errorf("experiment: unknown shed policy %q (have drop-newest, deadline)", name)
	}
}

// DefaultQueueCap bounds the pending-request queue when ServerOpts
// leaves QueueCap zero. At the Fig 9 service time (~tens of Kcycles per
// request) a 4096-deep queue already represents latencies two orders of
// magnitude past any SLO — deeper queues only convert memory into dead
// requests.
const DefaultQueueCap = 4096

// deadlineFactor sets ShedDeadline's cut: queued requests older than
// deadlineFactor × TargetLatencyCycles are shed before service.
const deadlineFactor = 4

// ServerOpts configure a server run.
type ServerOpts struct {
	Opts
	// Arrivals is the arrival process (default the paper's sinusoid,
	// workload.DefaultApacheStream): any seeded deterministic generator
	// (diurnal cycles, flash crowds, correlated tenant bursts — see
	// workload.StreamByName).
	Arrivals workload.ArrivalStream
	// TargetLatencyCycles is the per-request latency budget (the paper
	// uses 110K cycles for apache).
	TargetLatencyCycles int64
	// Horizon ends the run after this many cycles.
	Horizon int64

	// QueueCap bounds the pending-request queue: arrivals beyond it are
	// shed rather than queued (0 = DefaultQueueCap; negative =
	// unbounded, the pre-shedding behaviour, which admits unbounded
	// memory and unbounded latency under sustained overload).
	QueueCap int
	// Shed selects the overload policy (default ShedDropNewest).
	Shed ShedPolicy
	// TailTargetCycles is the SLO tail budget: a quantum whose p99
	// request latency (or oldest pending age, when nothing completes)
	// exceeds it counts as an SLO-violating quantum (default =
	// TargetLatencyCycles).
	TailTargetCycles int64
}

// ServerSample is one control quantum of a server run.
type ServerSample struct {
	Cycle int64
	// RequestRate is the arrival rate over the quantum (requests per
	// million cycles).
	RequestRate float64
	// Latency is the mean latency of requests completed in the quantum
	// (0 when none completed — see Starved).
	Latency float64
	// NormLatency is Latency over the target (>1 = violating).
	NormLatency float64
	// P99 is the quantum's tail latency: the p99 of completions, or the
	// oldest pending request's age when nothing completed under load.
	P99      float64
	CostRate float64
	Violated bool
	// Starved marks a quantum that completed nothing while requests
	// were pending: the saturated regime in which mean-based accounting
	// has no sample at all. Starved quanta are excluded from the
	// on-target (mean) accounting and count as SLO tail violations.
	Starved   bool
	Completed int
	// Shed counts arrivals dropped at the queue cap this quantum;
	// TimedOut counts queued requests shed past their deadline
	// (ShedDeadline only).
	Shed     int
	TimedOut int
	// QueueDepth is the pending-queue depth at quantum end.
	QueueDepth int
}

// ServerResult is a completed server run.
type ServerResult struct {
	Allocator string
	Samples   []ServerSample
	TotalCost float64
	// MeanLatency is over all completed requests.
	MeanLatency   float64
	Violations    int
	ViolationRate float64
	Served        int64

	// Tail latency over all completed requests (cycles).
	P50, P95, P99, P999 float64
	// Shed counts arrivals dropped at the queue cap; TimedOut counts
	// queued requests shed past their deadline.
	Shed     int64
	TimedOut int64
	// SLOViolationMinutes is simulated wall-clock (at the billing
	// clock) spent in quanta whose tail latency exceeded the SLO tail
	// budget — the serving metric that survives overload, since starved
	// quanta count here even though they produce no latency samples.
	SLOViolationMinutes float64
	// TailViolations counts those quanta; StarvedSamples counts quanta
	// that completed nothing while work was pending.
	TailViolations int
	StarvedSamples int
	// MaxQueueDepth is the deepest the pending queue ever got.
	MaxQueueDepth int

	FaultStats

	// Guard carries guardrail trip counters when the policy runs with
	// guardrails enabled (zero otherwise).
	Guard guard.Stats
}

// RunServer executes the apache experiment under a policy.
func RunServer(policy alloc.Allocator, opts ServerOpts) (ServerResult, error) {
	s := &server{opts: opts, res: ServerResult{Allocator: policy.Name()}}
	err := s.drive(policy, opts.Opts, s)
	return s.res, err
}

// server is the server mode of the quantum engine: run steps serve the
// request queue, and a quantum's QoS is its latency budget over its
// delivered latency.
type server struct {
	engine
	opts ServerOpts
	res  ServerResult

	work        int64 // instructions per request
	gen         *workload.PhaseGen
	queue       *reqRing
	nextArrival int64
	deadline    int64
	hist        stats.Histogram // every completed request's latency

	// The current quantum's completions, shedding and arrivals.
	qHist          stats.Histogram
	qShed          int
	qTimedOut      int
	arrivalsBefore int64
}

func (s *server) setup() error {
	o := &s.opts
	o.Opts = s.engine.opts
	if o.Arrivals == nil {
		o.Arrivals = workload.DefaultApacheStream()
	}
	if err := o.Arrivals.Validate(); err != nil {
		return err
	}
	if o.TargetLatencyCycles < 0 {
		return fmt.Errorf("experiment: target latency %d must be non-negative", o.TargetLatencyCycles)
	}
	if o.TargetLatencyCycles == 0 {
		o.TargetLatencyCycles = 110_000
	}
	if o.Horizon < 0 {
		return fmt.Errorf("experiment: horizon %d must be non-negative", o.Horizon)
	}
	if o.Horizon == 0 {
		o.Horizon = 240_000_000 // a few full load swings (Fig 9)
	}
	if o.QueueCap == 0 {
		o.QueueCap = DefaultQueueCap
	}
	if o.Shed != ShedDropNewest && o.Shed != ShedDeadline {
		return fmt.Errorf("experiment: unknown shed policy %d", int(o.Shed))
	}
	if o.TailTargetCycles < 0 {
		return fmt.Errorf("experiment: tail target %d must be non-negative", o.TailTargetCycles)
	}
	if o.TailTargetCycles == 0 {
		o.TailTargetCycles = o.TargetLatencyCycles
	}

	o.Arrivals.Reset()
	s.work = o.Arrivals.Work()
	s.gen = workload.NewPhaseGen(workload.RequestPhase(s.work), 0, o.Seed)
	s.queue = newReqRing(o.QueueCap)
	s.nextArrival = s.opts.Arrivals.NextArrival()
	s.deadline = deadlineFactor * o.TargetLatencyCycles
	return nil
}

func (s *server) more() bool    { return s.sim.Cycle() < s.opts.Horizon }
func (*server) exhausted() bool { return false }
func (*server) phase() int      { return 0 }

func (s *server) begin() {
	s.qHist.Reset()
	s.qShed, s.qTimedOut = 0, 0
	s.arrivalsBefore = s.opts.Arrivals.Issued()
}

// arrive brings the queue up to the clock. Arrivals at or before it are
// admitted; arrivals that find the queue full are shed (drop-newest) —
// the stream is open-loop, so the request happened whether or not we
// had room. Under ShedDeadline, queued requests already past their
// deadline are then shed too (only untouched ones — work already
// invested in a partially-served front request is never thrown away).
// Afterwards the next arrival lies strictly in the future.
func (s *server) arrive() {
	now := s.sim.Cycle()
	for s.nextArrival <= now {
		if s.queue.push(request{arrival: s.nextArrival, remaining: s.work}) {
			s.res.MaxQueueDepth = max(s.res.MaxQueueDepth, s.queue.len())
		} else {
			s.qShed++
		}
		s.nextArrival = s.opts.Arrivals.NextArrival()
	}
	for s.opts.Shed == ShedDeadline && !s.queue.empty() {
		front := s.queue.front()
		if front.remaining != s.work || now-front.arrival <= s.deadline {
			return
		}
		s.queue.pop()
		s.qTimedOut++
	}
}

// wait idles, free, until the next arrival or for limit cycles,
// whichever comes first, and returns the cycles waited.
func (s *server) wait(limit int64) int64 {
	idle := min(limit, s.nextArrival-s.sim.Cycle())
	s.sim.AdvanceIdle(idle)
	s.remaining -= idle
	return idle
}

// idle skips genuinely empty time only: the server cannot idle with
// work queued. Faults due during the skip apply at the next tick, not
// straight after it.
func (s *server) idle(ob alloc.Observation, budget int64) (alloc.Observation, bool) {
	s.arrive()
	if s.queue.empty() {
		ob.Cycles = s.wait(budget)
	}
	return ob, false
}

func (s *server) run(ob alloc.Observation, _ alloc.Step, budget int64) (alloc.Observation, error) {
	stepEnd := s.sim.Cycle() + budget
	for s.sim.Cycle() < stepEnd {
		s.arrive()
		if s.queue.empty() {
			s.wait(stepEnd - s.sim.Cycle())
			continue
		}
		req := s.queue.front()
		n, c := s.sim.RunBudget(s.gen, req.remaining, stepEnd-s.sim.Cycle())
		req.remaining -= n
		s.remaining -= c
		ob.Cycles += c
		ob.Instrs += n
		s.qCost += s.opts.Model.Charge(ob.Config, c)
		if req.remaining <= 0 {
			s.qHist.Record(s.sim.Cycle() - req.arrival)
			s.res.Served++
			s.queue.pop()
		}
		if c == 0 && n == 0 {
			break
		}
	}
	if ob.Cycles > 0 {
		// The allocator's QoS signal: latency budget over delivered
		// latency (1.0 = on target).
		if s.qHist.Count() > 0 {
			ob.QoS = float64(s.opts.TargetLatencyCycles) / s.qHist.Mean()
		} else {
			ob.QoS = 1
		}
		// The tail signal: budget over the quantum's p99 — with the
		// oldest pending request's age as the floor, so a saturated
		// quantum that completes nothing still reads as violating
		// instead of silent.
		if tail := quantumTail(&s.qHist, s.queue, s.sim.Cycle()); tail > 0 {
			ob.TailQoS = float64(s.opts.TargetLatencyCycles) / tail
		}
	}
	return ob, nil
}

func (s *server) sample(qCycles int64) {
	if qCycles <= 0 {
		// The plan made no progress (e.g. pure idle against an empty
		// queue with a distant arrival): jump to the arrival, but never
		// past the horizon — an exhausted or sparse stream must not
		// overshoot the run end by millions of cycles.
		s.sim.AdvanceIdle(min(s.opts.Horizon-s.sim.Cycle(), s.nextArrival-s.sim.Cycle()+1))
		return
	}
	target := float64(s.opts.TargetLatencyCycles)
	sm := ServerSample{
		Cycle:       s.sim.Cycle(),
		RequestRate: float64(s.opts.Arrivals.Issued()-s.arrivalsBefore) / (float64(qCycles) / 1e6),
		CostRate:    s.qCost / (float64(qCycles) / cost.CyclesPerHour),
		Completed:   int(s.qHist.Count()),
		Shed:        s.qShed,
		TimedOut:    s.qTimedOut,
		QueueDepth:  s.queue.len(),
	}
	switch {
	case sm.Completed > 0:
		sm.Latency = s.qHist.Mean()
		sm.NormLatency = sm.Latency / target
		sm.Violated = sm.NormLatency > 1+s.opts.Tolerance
	case !s.queue.empty():
		// Saturated and silent: nothing completed while work was
		// pending. There is no mean-latency sample to judge — the old
		// accounting scored this quantum as on-target, which is exactly
		// how average-based monitoring goes blind under overload. Mark
		// it instead of inventing an optimistic mean.
		sm.Starved = true
		s.res.StarvedSamples++
	default:
		// Genuinely idle quantum (no demand): on-target by definition.
		sm.Latency = target
		sm.NormLatency = 1
	}
	sm.P99 = quantumTail(&s.qHist, s.queue, s.sim.Cycle())
	if sm.P99 > float64(s.opts.TailTargetCycles) {
		s.res.TailViolations++
		s.res.SLOViolationMinutes += float64(qCycles) / cost.CyclesPerHour * 60
	}
	s.res.Samples = append(s.res.Samples, sm)
	s.res.TotalCost += s.qCost
	s.res.Shed += int64(s.qShed)
	s.res.TimedOut += int64(s.qTimedOut)
	if sm.Violated {
		s.res.Violations++
	}
	s.hist.Merge(&s.qHist)
}

func (s *server) finish(g guard.Stats) {
	s.res.MeanLatency = s.hist.Mean()
	// Starved quanta carry no mean-latency sample; excluding them from
	// the denominator keeps the violation rate an honest statement about
	// the quanta that were actually judged.
	if judged := len(s.res.Samples) - s.res.StarvedSamples; judged > 0 {
		s.res.ViolationRate = float64(s.res.Violations) / float64(judged)
	}
	s.res.P50 = s.hist.Quantile(0.50)
	s.res.P95 = s.hist.Quantile(0.95)
	s.res.P99 = s.hist.Quantile(0.99)
	s.res.P999 = s.hist.Quantile(0.999)
	s.res.FaultStats = s.faults
	s.res.Guard = g
}

// quantumTail is the quantum's effective tail latency: the p99 of its
// completions, floored by the oldest pending request's age. A quantum
// that completes nothing while requests wait has no latency samples at
// all — its pending age IS the tail.
func quantumTail(qHist *stats.Histogram, queue *reqRing, now int64) float64 {
	tail := 0.0
	if qHist.Count() > 0 {
		tail = qHist.Quantile(0.99)
	}
	if !queue.empty() {
		if age := float64(now - queue.front().arrival); age > tail {
			tail = age
		}
	}
	return tail
}
