package soak

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"cash/internal/par"
)

// fake registers a scenario whose runs are pure functions of the seed
// and the replay flag.
func fake(suite, name string, run func(seed uint64, replay bool) Result) scenario {
	return scenario{suite: suite, name: name, seed: func(i int) uint64 { return uint64(i) },
		run: func(seed uint64, _ string, replay bool) Result { return run(seed, replay) }}
}

func clean(seed uint64, _ bool) Result {
	return Result{Digest: fmt.Sprintf("d%d", seed), Counters: []Counter{{"ops", int64(seed)}}}
}

func TestPanickingRunIsAViolation(t *testing.T) {
	reg := []scenario{fake("s", "boom", func(seed uint64, replay bool) Result {
		if seed == 1 {
			panic("injected")
		}
		return clean(seed, replay)
	})}
	rep, err := run(reg, Options{Seeds: 3, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 || rep.Failures != 1 {
		t.Fatalf("got %d runs, %d failures; want 3 runs, 1 failure", len(rep.Results), rep.Failures)
	}
	if v := rep.Results[1].Violations; len(v) != 1 || v[0] != "panic: injected" {
		t.Fatalf("seed 1 violations %q, want one panic", v)
	}
	if rep.Results[2].Digest != "d2" || len(rep.Results[2].Violations) > 0 {
		t.Fatalf("the seed after the panic did not run clean: %+v", rep.Results[2])
	}
}

func TestReplayDivergenceReportsBothDigests(t *testing.T) {
	reg := []scenario{fake("s", "drift", func(seed uint64, replay bool) Result {
		if replay {
			return Result{Digest: "bbbb", Violations: []string{"late"}}
		}
		return Result{Digest: "aaaa"}
	})}
	rep, err := run(reg, Options{Seeds: 1, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"replay: late", "replay diverged: digest aaaa vs bbbb"}
	if got := rep.Results[0].Violations; !slices.Equal(got, want) || rep.Passed() {
		t.Fatalf("violations %q, want %q", got, want)
	}
}

func TestUnknownScenarioRejected(t *testing.T) {
	for _, name := range []string{"nope", "guard/nope", "fleet/corruption"} {
		if _, err := Run(Options{Scenarios: []string{name}}); err == nil {
			t.Errorf("scenario %q accepted", name)
		}
	}
	if got := Scenarios(); !slices.Contains(got, "guard/corruption") || !slices.Contains(got, "daemon/kill-restart") {
		t.Fatalf("Scenarios() = %v", got)
	}
}

// TestSoakRejectsBadShape: the seed count is the one shape a caller
// still sets, and a negative one must not run.
func TestSoakRejectsBadShape(t *testing.T) {
	if _, err := Run(Options{Seeds: -1}); err == nil {
		t.Fatal("negative seed count accepted")
	}
}

func TestResultsInCanonicalOrder(t *testing.T) {
	// Later seeds finish first, so completion order is not grid order.
	slow := func(seed uint64, replay bool) Result {
		time.Sleep(time.Duration(5-seed) * time.Millisecond)
		return clean(seed, replay)
	}
	reg := []scenario{fake("a", "x", slow), fake("a", "y", slow), fake("b", "x", slow)}
	var want []string
	for _, s := range []string{"a/x", "a/y", "b/x"} {
		for seed := 0; seed < 5; seed++ {
			want = append(want, fmt.Sprintf("%s/%d", s, seed))
		}
	}
	for _, workers := range []int{1, 2, 4} {
		rep, err := run(reg, Options{Seeds: 5, Dir: t.TempDir()}, par.New(workers))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, r := range rep.Results {
			got = append(got, fmt.Sprintf("%s/%s/%d", r.Suite, r.Scenario, r.Seed))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%d workers: order %v, want %v", workers, got, want)
		}
	}
}

func TestSummaryMentionsEveryScenario(t *testing.T) {
	reg := []scenario{fake("a", "x", clean), fake("b", "y", func(seed uint64, replay bool) Result {
		o := clean(seed, replay)
		o.Violations = []string{"broken"}
		return o
	})}
	rep, err := run(reg, Options{Seeds: 3, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary()
	for _, want := range []string{
		"soak: 6 runs, 3 failures",
		"a/x                    3 seeds,   0 failures, 3 ops",
		"b/y                    3 seeds,   3 failures, 3 ops",
		"FAIL b/y seed 2: broken",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary lacks %q:\n%s", want, s)
		}
	}
}
