package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestValidateFlagsAccepts(t *testing.T) {
	goldenPath := filepath.Join(t.TempDir(), "golden.gob")
	if err := writeFile(goldenPath); err != nil {
		t.Fatal(err)
	}
	cases := []flagValues{
		{}, // all defaults
		{queueCap: 128, stream: "bursts", shed: "deadline"},
		{tier: "cycle"},
		{tier: "interval"},
		{calibGate: goldenPath}, // goldens present
		{calibGate: "/no/such/golden.gob", calibRecord: "/no/such/golden.gob"}, // record-then-gate creates them
		{calibRecord: filepath.Join(t.TempDir(), "new.gob")},
		{chaos: true, chaosSeeds: 20},
		{chips: 8, tenants: 12, kill: 3},
		{stream: "flash"}, // stream without shed compares both policies
		{daemonCmd: true, drainTimeout: time.Second},
		{chaos: true, chaosSeeds: 1},          // the soak never reads -drain-timeout
		{chaos: true, chaosSeeds: 1, kill: 2}, // nor -kill
		{socket: filepath.Join(t.TempDir(), "cashd.sock"), daemonCmd: true, drainTimeout: time.Second},
	}
	for _, v := range cases {
		if err := validateFlags(v); err != nil {
			t.Errorf("validateFlags(%+v) = %v, want nil", v, err)
		}
	}
}

func TestValidateFlagsRejects(t *testing.T) {
	cases := []struct {
		v    flagValues
		want string
	}{
		{flagValues{queueCap: -1}, "-queue-cap"},
		{flagValues{shed: "deadline"}, "-shed"},
		{flagValues{chaos: true, chaosSeeds: 0}, "-chaos-seeds"},
		{flagValues{chaos: true, chaosSeeds: -5}, "-chaos-seeds"},
		{flagValues{chips: -2}, "non-negative"},
		{flagValues{kill: -1}, "non-negative"},
		{flagValues{chips: 4, kill: 4}, "-kill"},
		{flagValues{chips: 4, kill: 9}, "-kill"},
		{flagValues{socket: "/no/such/parent/cashd.sock", daemonCmd: true, drainTimeout: time.Second}, "-socket"},
		{flagValues{daemonCmd: true}, "-drain-timeout"},
		{flagValues{daemonCmd: true, drainTimeout: -time.Second}, "-drain-timeout"},
		{flagValues{tier: "fast"}, "tier"},
		{flagValues{tier: "Cycle"}, "tier"},                     // names are case-sensitive
		{flagValues{tier: "sampled"}, "want cycle or interval"}, // the removed tier names the valid ones
		{flagValues{calibGate: "/no/such/golden.gob"}, "record them first"},
	}
	for _, c := range cases {
		err := validateFlags(c.v)
		if err == nil {
			t.Errorf("validateFlags(%+v) accepted, want error mentioning %q", c.v, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("validateFlags(%+v) = %q, want mention of %q", c.v, err, c.want)
		}
	}
}

// writeFile creates an empty placeholder at path (the -calib presence
// check only stats the file; decoding happens later in the run).
func writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return f.Close()
}

func TestValidateFlagsChaosSeedsIgnoredOutsideChaos(t *testing.T) {
	// -chaos-seeds only gates chaos mode; a plain artifact run never
	// reads it, so a bad value there must not block the run.
	if err := validateFlags(flagValues{chaosSeeds: 0}); err != nil {
		t.Fatalf("chaos-seeds validated outside -chaos: %v", err)
	}
}

func TestValidateFlagsDaemonRulesIgnoredOutsideDaemonModes(t *testing.T) {
	// A plain artifact run never waits on -drain-timeout and never
	// reads -kill as a daemon knob, so neither may block it.
	if err := validateFlags(flagValues{drainTimeout: 0}); err != nil {
		t.Fatalf("drain-timeout validated outside daemon modes: %v", err)
	}
	if err := validateFlags(flagValues{chips: 4, kill: 2, drainTimeout: time.Second}); err != nil {
		t.Fatalf("-kill flagged as a daemon knob: %v", err)
	}
}
