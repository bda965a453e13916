package soak

import (
	"strings"
	"testing"
)

// TestSoakGuardrailsOn is the guard suite in miniature: every scenario,
// three seeds at half length, zero violations, identical replay.
func TestSoakGuardrailsOn(t *testing.T) {
	rep, err := run(guardSuite(60, true), Options{Seeds: 3, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3*len(guardScenarios) {
		t.Fatalf("ran %d runs, want %d", len(rep.Results), 3*len(guardScenarios))
	}
	if !rep.Passed() {
		t.Fatalf("guard soak failed:\n%s", rep.Summary())
	}
}

// TestGuardTripsRecorded: the guardrails must actually trip somewhere
// across the scenarios, or the guard soak proves nothing.
func TestGuardTripsRecorded(t *testing.T) {
	rep, err := run(guardSuite(60, true), Options{Seeds: 2, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var trips int64
	for _, r := range rep.Results {
		trips += r.Counters[0].Value
	}
	if trips == 0 {
		t.Fatal("no guardrail tripped across any scenario")
	}
}

// TestSoakGuardrailsOffDemonstratesHazard is the hazard baseline: with
// the guardrails off, the corruption scenario must violate the no-NaN
// invariant — if it stops doing so, the soak is no longer testing
// anything — and the unguarded stack must still degrade, not die.
func TestSoakGuardrailsOffDemonstratesHazard(t *testing.T) {
	rep, err := run(guardSuite(60, false), Options{Seeds: 3, Dir: t.TempDir(), Scenarios: []string{"guard/corruption"}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures == 0 {
		t.Fatal("guard-off corruption runs violated nothing — the guardrails have no demonstrable effect")
	}
	for _, r := range rep.Results {
		for _, v := range r.Violations {
			if strings.Contains(v, "panic") || strings.Contains(v, "replay") {
				t.Errorf("seed %d: %s", r.Seed, v)
			}
		}
	}
}
