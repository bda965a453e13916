// Package soak is the one chaos soak. Three suites register their
// scenarios — guard (the guarded control loop under adversarial
// workloads, tile faults and state corruption), fleet (chip faults
// under the lease executor) and daemon (cashd killed and restarted
// under a faulty wire) — and Run drives them through one seeds ×
// scenarios grid. Every (scenario, seed) runs twice under a panic
// barrier, a first run and a suite-defined replay, and the two digests
// must match. Broken invariants are recorded, not fatal, so one report
// carries every failing seed.
package soak

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"cash/internal/par"
)

// Counter is one named activity count a run reports, such as guard
// trips or re-executions. Summary sums it per scenario.
type Counter struct {
	Name  string
	Value int64
}

// scenario is one registry entry. seed derives the scenario's i-th
// seed; run executes one run of it, writing any journals or sockets
// under dir, and returns its Digest, Violations and Counters.
type scenario struct {
	suite, name string
	seed        func(i int) uint64
	run         func(seed uint64, dir string, replay bool) Result
}

// is reports whether name selects the scenario: its suite, or
// suite/name.
func (s scenario) is(name string) bool { return name == s.suite || name == s.suite+"/"+s.name }

// spreadSeed is the seed derivation of the guard and fleet suites.
func spreadSeed(i int) uint64 { return uint64(i)*0x9e3779b97f4a7c15 + 1 }

// registry lists every scenario in canonical order: suite, then
// scenario, as registered, each at its suite's fixed shape.
var registry = slices.Concat(
	guardSuite(guardQuanta, true),
	fleetSuite(fleetDefault),
	daemonSuite(daemonDefault),
)

// Options configure a soak.
type Options struct {
	// Seeds is how many seeds every scenario runs under (default 20).
	Seeds int
	// Dir holds the runs' journals and sockets. Empty means a temporary
	// directory, removed when the soak ends.
	Dir string
	// Scenarios restricts the soak to the named suites ("fleet") or
	// scenarios ("fleet/mixed"); nil runs all.
	Scenarios []string
}

// Result is one (scenario, seed) pair's first run — its digest, every
// invariant it broke and its activity counters — with the replay's
// verdict folded into Violations.
type Result struct {
	Suite, Scenario string
	Seed            uint64
	Digest          string
	Violations      []string
	Counters        []Counter
}

// Report is a completed soak. Results are in canonical (suite,
// scenario, seed) order.
type Report struct {
	Results []Result
	// Failures counts runs with at least one violation.
	Failures int
}

// Scenarios lists every registered scenario as suite/name.
func Scenarios() []string { return names(registry) }

func names(reg []scenario) []string {
	out := make([]string, len(reg))
	for i, s := range reg {
		out[i] = s.suite + "/" + s.name
	}
	return out
}

// Run executes the soak.
func Run(opts Options) (Report, error) { return run(registry, opts, nil) }

func run(reg []scenario, opts Options, pool *par.Pool) (Report, error) {
	if opts.Seeds == 0 {
		opts.Seeds = 20
	}
	if opts.Seeds < 0 {
		return Report{}, fmt.Errorf("soak: negative seed count %d", opts.Seeds)
	}
	for _, want := range opts.Scenarios {
		if !slices.ContainsFunc(reg, func(s scenario) bool { return s.is(want) }) {
			return Report{}, fmt.Errorf("soak: unknown scenario %q (have %v)", want, names(reg))
		}
	}
	selected := reg
	if len(opts.Scenarios) > 0 {
		selected = slices.DeleteFunc(slices.Clone(reg), func(s scenario) bool {
			return !slices.ContainsFunc(opts.Scenarios, s.is)
		})
	}
	if opts.Dir == "" {
		dir, err := os.MkdirTemp("", "cash-soak-*")
		if err != nil {
			return Report{}, err
		}
		defer os.RemoveAll(dir)
		opts.Dir = dir
	} else if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return Report{}, err
	}

	// Slot i holds scenario i/Seeds at seed index i%Seeds, so the report
	// is in canonical grid order however the pool schedules the runs.
	rep := Report{Results: make([]Result, len(selected)*opts.Seeds)}
	par.Resolve(pool).ForEach(len(rep.Results), func(i int) {
		s := selected[i/opts.Seeds]
		rep.Results[i] = runTwice(s, s.seed(i%opts.Seeds), opts.Dir)
	})
	for _, r := range rep.Results {
		if len(r.Violations) > 0 {
			rep.Failures++
		}
	}
	return rep, nil
}

// runTwice runs a seed and its replay and compares their digests. The
// replay's violations are reported only where they differ from the
// first run's, so an identical re-run does not list each one twice.
func runTwice(s scenario, seed uint64, dir string) Result {
	res := guarded(s, seed, dir, false)
	replay := guarded(s, seed, dir, true)
	res.Suite, res.Scenario, res.Seed = s.suite, s.name, seed
	if !slices.Equal(res.Violations, replay.Violations) {
		for _, v := range replay.Violations {
			res.Violations = append(res.Violations, "replay: "+v)
		}
	}
	if res.Digest != replay.Digest {
		res.Violations = append(res.Violations,
			fmt.Sprintf("replay diverged: digest %s vs %s", res.Digest, replay.Digest))
	}
	return res
}

// guarded is the panic barrier: a panicking run becomes a violation.
func guarded(s scenario, seed uint64, dir string, replay bool) (r Result) {
	defer func() {
		if p := recover(); p != nil {
			r.Violations = append(r.Violations, fmt.Sprintf("panic: %v", p))
		}
	}()
	return s.run(seed, dir, replay)
}

// Passed reports whether every run upheld every invariant and every
// replay matched.
func (r Report) Passed() bool { return r.Failures == 0 }

// Summary renders one line per scenario, with its counters summed over
// the seeds, followed by one line per violation.
func (r Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "soak: %d runs, %d failures\n", len(r.Results), r.Failures)
	// Results are grouped by scenario already, in canonical order.
	type agg struct {
		name        string
		runs, fails int
		counters    []Counter
	}
	var aggs []*agg
	for _, res := range r.Results {
		name := res.Suite + "/" + res.Scenario
		if len(aggs) == 0 || aggs[len(aggs)-1].name != name {
			aggs = append(aggs, &agg{name: name})
		}
		a := aggs[len(aggs)-1]
		a.runs++
		if len(res.Violations) > 0 {
			a.fails++
		}
		// A suite reports the same counters in the same order every run
		// (or none, from a run that failed early).
		for i, c := range res.Counters {
			if i == len(a.counters) {
				a.counters = append(a.counters, Counter{Name: c.Name})
			}
			a.counters[i].Value += c.Value
		}
	}
	for _, a := range aggs {
		fmt.Fprintf(&b, "  %-20s %3d seeds, %3d failures", a.name, a.runs, a.fails)
		for _, c := range a.counters {
			fmt.Fprintf(&b, ", %d %s", c.Value, c.Name)
		}
		b.WriteString("\n")
	}
	for _, res := range r.Results {
		for _, v := range res.Violations {
			fmt.Fprintf(&b, "  FAIL %s/%s seed %d: %s\n", res.Suite, res.Scenario, res.Seed, v)
		}
	}
	return b.String()
}
