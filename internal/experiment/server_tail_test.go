package experiment

import (
	"reflect"
	"testing"

	"cash/internal/alloc"
	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// overloadStream returns an arrival process that oversubscribes the
// fabric by construction: sustained demand beyond any configuration's
// throughput, with flash crowds on top.
func overloadStream(seed uint64) workload.ArrivalStream {
	return &workload.ShapedStream{
		BaseRate:         40,
		InstrsPerRequest: 60_000,
		Jitter:           0.1,
		Seed:             seed,
		Shapes: []workload.RateShape{workload.FlashCrowd{
			EveryMCycles: 4, Magnitude: 6,
			RampMCycles: 0.3, HoldMCycles: 0.8, DecayMCycles: 0.9,
			Seed: seed ^ 0xf1a5,
		}},
	}
}

// TestRunServerOverloadShedsAndBounds: a flash-crowd overload against a
// bounded queue must complete, shed a nonzero number of arrivals, never
// exceed the queue cap, and still report coherent tail quantiles.
func TestRunServerOverloadShedsAndBounds(t *testing.T) {
	const cap = 64
	res, err := RunServer(alloc.Static{Cfg: vcore.Config{Slices: 4, L2KB: 512}}, ServerOpts{
		Arrivals: overloadStream(3),
		Horizon:  20_000_000,
		QueueCap: cap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("sustained overload shed nothing")
	}
	if res.MaxQueueDepth > cap {
		t.Fatalf("queue depth %d exceeded cap %d", res.MaxQueueDepth, cap)
	}
	for _, s := range res.Samples {
		if s.QueueDepth > cap {
			t.Fatalf("sample queue depth %d exceeded cap %d", s.QueueDepth, cap)
		}
	}
	if res.Served == 0 {
		t.Fatal("overloaded server served nothing at all")
	}
	if !(res.P50 > 0 && res.P50 <= res.P95 && res.P95 <= res.P99 && res.P99 <= res.P999) {
		t.Fatalf("quantiles incoherent: p50=%v p95=%v p99=%v p999=%v",
			res.P50, res.P95, res.P99, res.P999)
	}
	if res.TailViolations == 0 || res.SLOViolationMinutes <= 0 {
		t.Fatalf("sustained overload recorded no tail violations (%d, %v min)",
			res.TailViolations, res.SLOViolationMinutes)
	}
	// The counters must reconcile with the samples.
	var shed, timedOut int64
	var completed int64
	for _, s := range res.Samples {
		shed += int64(s.Shed)
		timedOut += int64(s.TimedOut)
		completed += int64(s.Completed)
	}
	if shed != res.Shed || timedOut != res.TimedOut || completed != res.Served {
		t.Fatalf("per-sample sums (%d shed, %d timedout, %d completed) disagree with totals (%d, %d, %d)",
			shed, timedOut, completed, res.Shed, res.TimedOut, res.Served)
	}
}

// TestRunServerDeadlineSheds: the deadline policy must time out queued
// requests whose sojourn has blown the budget, and those requests must
// never appear as served.
func TestRunServerDeadlineSheds(t *testing.T) {
	stream := overloadStream(5)
	res, err := RunServer(alloc.Static{Cfg: vcore.Config{Slices: 4, L2KB: 512}}, ServerOpts{
		Arrivals: stream,
		Horizon:  20_000_000,
		QueueCap: 64,
		Shed:     ShedDeadline,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut == 0 {
		t.Fatal("deadline policy timed out nothing under sustained overload")
	}
	// The queue stays saturated, so served requests wait close to the
	// cut of deadlineFactor budgets before service starts, and one
	// service time (under a budget here) past it at most.
	const budget = 110_000
	if lo, hi := float64(deadlineFactor*budget), float64((deadlineFactor+1)*budget); !(res.P99 > lo && res.P99 <= hi) {
		t.Fatalf("p99 %v outside (%v, %v]: the %d-budget deadline did not bound the tail", res.P99, lo, hi, deadlineFactor)
	}
	if res.Served+res.Shed+res.TimedOut > stream.Issued() {
		t.Fatalf("served(%d) + shed(%d) + timedout(%d) exceeds arrivals issued (%d)",
			res.Served, res.Shed, res.TimedOut, stream.Issued())
	}
	// Deadline shedding keeps delivered latency bounded relative to
	// drop-newest alone: nothing served should have waited forever.
	if res.P999 > 0 && res.MeanLatency > res.P999 {
		t.Fatalf("mean latency %v above p999 %v", res.MeanLatency, res.P999)
	}
}

// TestRunServerByteIdentity: the same seed and stream shape must
// reproduce the entire ServerResult — samples, quantiles, shed counts,
// guard counters — byte for byte.
func TestRunServerByteIdentity(t *testing.T) {
	run := func() ServerResult {
		rt := cashrt.MustNew(1.0, cost.Default(), cashrt.Options{
			Seed: 7, SingleConfig: true, GuardStyle: cashrt.GuardCommitted,
			Margin: 0.15, Guardrails: true,
		})
		res, err := RunServer(rt, ServerOpts{
			Arrivals: overloadStream(11),
			Horizon:  10_000_000,
			QueueCap: 64,
			Shed:     ShedDeadline,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", a, b)
	}
	if a.Shed == 0 && a.TimedOut == 0 {
		t.Fatal("identity run shed nothing; overload did not materialize")
	}
}

// TestRunServerMeanBlindTailGap is the study's core claim in miniature:
// a bursty stream whose crowds blow the p99 while per-quantum means
// stay inside the tolerance band. Mean-based accounting reports zero
// violating quanta; the tail accounting reports many, and the guard's
// windowed tail breaker trips where the consecutive-K mean breaker
// (judging the same quanta) never would.
func TestRunServerMeanBlindTailGap(t *testing.T) {
	stream := &workload.ShapedStream{
		BaseRate: 6, InstrsPerRequest: 20_000, Jitter: 0.1, Seed: 7,
		Shapes: []workload.RateShape{workload.FlashCrowd{
			EveryMCycles: 10, Magnitude: 6,
			RampMCycles: 0.5, HoldMCycles: 2, DecayMCycles: 2, Seed: 99,
		}},
	}
	rt := cashrt.MustNew(1.0, cost.Default(), cashrt.Options{
		Seed: 7, SingleConfig: true, GuardStyle: cashrt.GuardCommitted,
		Margin: 0.15, Guardrails: true,
	})
	opts := ServerOpts{Arrivals: stream, Horizon: 40_000_000, QueueCap: 64}
	opts.Opts.Tolerance = 0.9
	res, err := RunServer(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("mean accounting saw %d violations; the gap regime is gone — retune the stream", res.Violations)
	}
	if res.TailViolations == 0 {
		t.Fatal("tail accounting saw nothing; the stream no longer stresses the p99")
	}
	if res.Guard.TailTrips == 0 {
		t.Fatalf("tail breaker never tripped (tail violations %d)", res.TailViolations)
	}
	if res.StarvedSamples == 0 {
		t.Fatal("no starved quanta: crowd onsets should outrun completions")
	}
}

// TestRunServerStarvedExcludedFromMeanAccounting: quanta that complete
// nothing while requests are pending must be flagged Starved, never
// scored as on-target, and excluded from the violation-rate
// denominator.
func TestRunServerStarvedExcludedFromMeanAccounting(t *testing.T) {
	res, err := RunServer(alloc.Static{Cfg: vcore.Config{Slices: 1, L2KB: 64}}, ServerOpts{
		Arrivals: overloadStream(13),
		Horizon:  10_000_000,
		QueueCap: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.StarvedSamples == 0 {
		t.Skip("no starved quanta at this configuration")
	}
	starved := 0
	for _, s := range res.Samples {
		if !s.Starved {
			continue
		}
		starved++
		if s.Completed != 0 {
			t.Fatalf("starved sample completed %d requests", s.Completed)
		}
		if s.Latency != 0 || s.NormLatency != 0 || s.Violated {
			t.Fatalf("starved sample carries an invented mean verdict: %+v", s)
		}
		if s.P99 <= 0 {
			t.Fatal("starved sample has no tail signal; pending age lost")
		}
	}
	if starved != res.StarvedSamples {
		t.Fatalf("sample flags (%d) disagree with StarvedSamples (%d)", starved, res.StarvedSamples)
	}
	judged := len(res.Samples) - res.StarvedSamples
	if judged > 0 {
		want := float64(res.Violations) / float64(judged)
		if res.ViolationRate != want {
			t.Fatalf("ViolationRate %v not computed over judged quanta (want %v)", res.ViolationRate, want)
		}
	}
}

// TestRunServerUnboundedMatchesLegacy: with an unbounded queue and the
// default policy nothing is ever shed, preserving the pre-shedding
// behaviour.
func TestRunServerUnboundedNeverSheds(t *testing.T) {
	res, err := RunServer(alloc.Static{Cfg: vcore.Config{Slices: 4, L2KB: 512}}, ServerOpts{
		Arrivals: overloadStream(17),
		Horizon:  10_000_000,
		QueueCap: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed != 0 || res.TimedOut != 0 {
		t.Fatalf("unbounded queue shed %d / timed out %d", res.Shed, res.TimedOut)
	}
	if res.MaxQueueDepth == 0 {
		t.Fatal("overload never queued anything")
	}
}

// TestRunServerPartialResultOnReconfigureError: every error path out of
// RunServer returns the partially-populated result, so callers keep the
// fault counters and samples accumulated before the failure.
func TestRunServerPartialResultOnReconfigureError(t *testing.T) {
	res, err := RunServer(&failingReconfigPolicy{after: 3}, ServerOpts{
		Arrivals: overloadStream(19),
		Horizon:  5_000_000,
	})
	if err == nil {
		t.Fatal("expected a reconfiguration error")
	}
	if len(res.Samples) != 3 || res.Allocator != "failing-reconfig" {
		t.Fatalf("error path dropped the partial result: %d samples, allocator %q",
			len(res.Samples), res.Allocator)
	}
}

// failingReconfigPolicy runs the minimal configuration for `after`
// quanta, then asks for an invalid configuration so the simulator's
// Reconfigure call fails mid-run.
type failingReconfigPolicy struct{ after, quanta int }

func (*failingReconfigPolicy) Name() string { return "failing-reconfig" }

func (p *failingReconfigPolicy) Decide(prev []alloc.Observation, tau int64) alloc.Plan {
	p.quanta++
	cfg := vcore.Min()
	if p.quanta > p.after {
		cfg = vcore.Config{Slices: 9999, L2KB: 64}
	}
	return alloc.Plan{Steps: []alloc.Step{{Config: cfg, MaxCycles: tau}}}
}
