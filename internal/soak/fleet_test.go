package soak

import "testing"

// TestFleetSoakSmall runs every fleet scenario on a smaller fleet:
// complete, exactly-once, reconciled, one journal record per cell and
// identical replay, with recovery actually exercised.
func TestFleetSoakSmall(t *testing.T) {
	sh := fleetShape{chips: 5, slots: 2, tenants: 6, cells: 3, kill: 2}
	rep, err := run(fleetSuite(sh), Options{Seeds: 2, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("fleet soak failed:\n%s", rep.Summary())
	}
	if len(rep.Results) != 2*len(fleetScenarios) {
		t.Fatalf("ran %d runs, want %d", len(rep.Results), 2*len(fleetScenarios))
	}
	var reexec, orphan int64
	for _, r := range rep.Results {
		reexec += r.Counters[0].Value
		orphan += r.Counters[1].Value
	}
	if reexec == 0 || orphan == 0 {
		t.Fatalf("soak exercised %d re-executions and %d orphan deliveries; want both", reexec, orphan)
	}
}

// TestFleetScenariosExerciseRecovery: a fault scenario whose faults
// miss every lease proves nothing about exactly-once, so at the soak's
// shape each one must make the executor recover — re-execute a cell,
// or absorb an orphan or duplicate delivery — on at least half its
// seeds.
func TestFleetScenariosExerciseRecovery(t *testing.T) {
	const seeds = 8
	for _, f := range fleetScenarios {
		exercised := 0
		for i := 0; i < seeds; i++ {
			res, o := runFleet(f, fleetDefault, spreadSeed(i), "")
			if len(o.Violations) > 0 {
				t.Fatalf("%s seed %d: %v", f.name, spreadSeed(i), o.Violations)
			}
			if st := res.Stats; st.ReExecutions+st.OrphanDeliveries+st.DupDeliveries > 0 {
				exercised++
			}
		}
		if 2*exercised < seeds {
			t.Errorf("%s exercised recovery on %d of %d seeds, want at least half", f.name, exercised, seeds)
		}
	}
}
