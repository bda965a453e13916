package cash

import (
	"fmt"
	"testing"
)

// soakPins fix the per-run digests of the guardrail soak (every
// scenario, first two seeds, default shape, guardrails armed) and of
// the cashd soak (default shape, seeds 1000 and 1017). A digest folds
// a run's whole observable outcome, so any change to what a soak
// scenario does shows up here before it shows up as a different
// report.
var soakPins = []struct {
	suite, scenario string
	seed            uint64
	digest          string
}{
	{"guard", "phase-storm", 1, "b826eb672f8d001e"},
	{"guard", "phase-storm", 0x9e3779b97f4a7c16, "48eeffe2e99805ef"},
	{"guard", "load-spike", 1, "6a60b08a1447f495"},
	{"guard", "load-spike", 0x9e3779b97f4a7c16, "1000ed63f7be894d"},
	{"guard", "all-miss", 1, "9076083fe821633a"},
	{"guard", "all-miss", 0x9e3779b97f4a7c16, "602d0e9a112d35af"},
	{"guard", "corruption", 1, "035a33132e1e16a5"},
	{"guard", "corruption", 0x9e3779b97f4a7c16, "74626f74beea579d"},
	{"daemon", "kill-restart", 1000, "7967f1008db4e41b"},
	{"daemon", "kill-restart", 1017, "2f6ce571d1d1112e"},
}

// soakDigests runs the pinned soaks and keys each run's digest by
// suite/scenario/seed.
func soakDigests(t *testing.T) map[string]string {
	got := map[string]string{}
	rep, err := RunSoak(SoakOptions{Seeds: 2, Scenarios: []string{"guard", "daemon"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		got[fmt.Sprintf("%s/%s/%d", r.Suite, r.Scenario, r.Seed)] = r.Digest
	}
	return got
}

func TestSoakDigestsPinned(t *testing.T) {
	got := soakDigests(t)
	for _, p := range soakPins {
		key := fmt.Sprintf("%s/%s/%d", p.suite, p.scenario, p.seed)
		if got[key] != p.digest {
			t.Errorf("%s: digest %q, want %q", key, got[key], p.digest)
		}
	}
}
