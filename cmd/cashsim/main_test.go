package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cash/internal/figs"
)

// parseCase is one row of a parser table: args → mode, or an error.
type parseCase struct {
	args []string
	mode string // "" = must be rejected
	want string // error mention, for rejections
}

// checkParse runs each row through the mode parser.
func checkParse(t *testing.T, cases []parseCase) {
	t.Helper()
	for _, c := range cases {
		var stderr bytes.Buffer
		cmd, err := parse(c.args, &stderr)
		switch {
		case c.mode != "" && err != nil:
			t.Errorf("parse(%q) = %v, want mode %q", c.args, err, c.mode)
		case c.mode != "" && cmd.mode != c.mode:
			t.Errorf("parse(%q) mode = %q, want %q", c.args, cmd.mode, c.mode)
		case c.mode == "" && err == nil:
			t.Errorf("parse(%q) accepted as mode %q, want error mentioning %q", c.args, cmd.mode, c.want)
		case c.mode == "" && !strings.Contains(stderr.String(), c.want):
			t.Errorf("parse(%q) reported %q, want mention of %q", c.args, stderr.String(), c.want)
		}
	}
}

// goldenFile creates an empty placeholder golden file (the -gate
// presence check only stats the file; decoding happens later).
func goldenFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "golden.gob")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestValidateFlagsAccepts(t *testing.T) {
	dir := t.TempDir()
	golden := goldenFile(t)
	missing := filepath.Join(dir, "missing.gob")
	sock := filepath.Join(dir, "cashd.sock")
	checkParse(t, []parseCase{
		// Artifact mode: every existing invocation keeps parsing.
		{args: []string{"fig1"}, mode: "fig1"}, // all defaults
		{args: []string{"-scale", "0.006", "-journal", "-", "all"}, mode: "all"},
		{args: []string{"-tier", "cycle", "fig1"}, mode: "fig1"},
		{args: []string{"-scale", "0.3", "-jobs", "2", "-tier", "interval", "table3"}, mode: "table3"},
		{args: []string{"-stream", "bursts", "-queue-cap", "128", "-shed", "deadline", "tail"}, mode: "tail"},
		{args: []string{"-stream", "flash", "tail"}, mode: "tail"}, // stream without shed compares both policies
		{args: []string{"-chips", "8", "-tenants", "12", "-kill", "3", "fleet"}, mode: "fleet"},

		// chaos reads only -seeds, -dir and -out.
		{args: []string{"chaos"}, mode: "chaos"},
		{args: []string{"chaos", "-seeds", "20"}, mode: "chaos"},
		{args: []string{"chaos", "-seeds", "1"}, mode: "chaos"},
		{args: []string{"chaos", "-seeds", "8", "-dir", dir, "-out", filepath.Join(dir, "r.txt")}, mode: "chaos"},

		// calib: record, gate, or record then gate in one call.
		{args: []string{"calib", "-record", filepath.Join(dir, "new.gob")}, mode: "calib"},
		{args: []string{"calib", "-gate", golden, "-sweep-par", "2"}, mode: "calib"},   // goldens present
		{args: []string{"calib", "-record", missing, "-gate", missing}, mode: "calib"}, // record-then-gate creates them

		// Each daemon command reads -socket plus only its own flags.
		{args: []string{"daemon-health"}, mode: "daemon-health"},
		{args: []string{"daemon-health", "-socket", sock}, mode: "daemon-health"},
		{args: []string{"daemon-submit", "-socket", sock, "-tenant", "t", "-cells", "8", "-tenant-seed", "7", "-idem", "k"}, mode: "daemon-submit"},
		{args: []string{"daemon-watch", "-drain-timeout", "1s"}, mode: "daemon-watch"},
		{args: []string{"daemon-watch", "-socket", sock, "-drain-timeout", "1s"}, mode: "daemon-watch"},
		{args: []string{"daemon-alloc"}, mode: "daemon-alloc"},
		{args: []string{"daemon-spend"}, mode: "daemon-spend"},
		{args: []string{"daemon-drain"}, mode: "daemon-drain"},
	})
}

func TestValidateFlagsRejects(t *testing.T) {
	dir := t.TempDir()
	golden := goldenFile(t)
	missing := filepath.Join(dir, "missing.gob")
	checkParse(t, []parseCase{
		// Artifact option values (Options.Validate, run at parse).
		{args: []string{"-queue-cap", "-1", "tail"}, want: "queue cap"},
		{args: []string{"-shed", "deadline", "tail"}, want: "requires a stream"},
		{args: []string{"-chips", "-2", "fleet"}, want: "non-negative"},
		{args: []string{"-kill", "-1", "fleet"}, want: "non-negative"},
		{args: []string{"-chips", "4", "-kill", "4", "fleet"}, want: "smaller than chips"},
		{args: []string{"-chips", "4", "-kill", "9", "fleet"}, want: "smaller than chips"},
		{args: []string{"-tier", "fast", "fig1"}, want: "tier"},
		{args: []string{"-tier", "Cycle", "fig1"}, want: "tier"},                     // names are case-sensitive
		{args: []string{"-tier", "sampled", "fig1"}, want: "want cycle or interval"}, // the removed tier names the valid ones

		// Artifact positionals.
		{args: []string{"nonsense"}, want: "unknown artifact"},
		{args: []string{}, want: "missing artifact"},
		{args: []string{"-scale", "0.3"}, want: "missing artifact"},
		{args: []string{"fig1", "fig2"}, want: "unexpected argument"},

		// A flag given to the wrong mode is not defined there.
		{args: []string{"-socket", filepath.Join(dir, "cashd.sock"), "fig1"}, want: "not defined: -socket"},
		{args: []string{"chaos", "-scale", "1"}, want: "not defined: -scale"},
		{args: []string{"chaos", "-kill", "2"}, want: "not defined: -kill"},
		{args: []string{"chaos", "-drain-timeout", "1s"}, want: "not defined: -drain-timeout"},
		{args: []string{"chaos", "fig1"}, want: "unexpected argument"},
		{args: []string{"calib", "-gate", golden, "-jobs", "2"}, want: "not defined: -jobs"},
		{args: []string{"daemon-health", "-tenant", "t"}, want: "not defined: -tenant"},
		{args: []string{"daemon-submit", "-tenant", "t", "-drain-timeout", "1s"}, want: "not defined: -drain-timeout"},

		// calib needs something to do, and goldens to gate against.
		{args: []string{"calib", "-gate", missing}, want: "record them first"},
		{args: []string{"calib"}, want: "-record, -gate or both"},

		// Daemon input checks.
		{args: []string{"daemon-submit"}, want: "needs -tenant"},
		{args: []string{"daemon-watch", "-drain-timeout", "0"}, want: "-drain-timeout"},
		{args: []string{"daemon-watch", "-drain-timeout", "-1s"}, want: "-drain-timeout"},
		{args: []string{"daemon-health", "-socket", "/no/such/parent/cashd.sock"}, want: "-socket"},
		{args: []string{"daemon-watch", "-socket", "/no/such/parent/cashd.sock", "-drain-timeout", "1s"}, want: "-socket"},
		{args: []string{"daemon-health", "extra"}, want: "unexpected argument"},
		{args: []string{"daemon-bogus"}, want: "unknown daemon command"},
	})
}

func TestValidateFlagsChaosSeedsIgnoredOutsideChaos(t *testing.T) {
	// The soak seed count only exists in chaos mode: a plain artifact
	// run cannot carry it, so no seed value can block (or reach) it.
	// Bare chaos (0 seeds) leaves the count to the soak's default.
	checkParse(t, []parseCase{
		{args: []string{"fig7"}, mode: "fig7"},
		{args: []string{"chaos"}, mode: "chaos"},
		{args: []string{"-chaos-seeds", "8", "fig7"}, want: "not defined: -chaos-seeds"},
		{args: []string{"-seeds", "0", "fig7"}, want: "not defined: -seeds"},
	})
}

func TestValidateFlagsDaemonRulesIgnoredOutsideDaemonModes(t *testing.T) {
	// A plain artifact run never waits on -drain-timeout, so the flag
	// is not on its FlagSet; -kill is a fleet-study knob there, not a
	// daemon one, so only the fleet rule applies to it.
	checkParse(t, []parseCase{
		{args: []string{"fig1"}, mode: "fig1"},
		{args: []string{"-drain-timeout", "0", "fig1"}, want: "not defined: -drain-timeout"},
		{args: []string{"-chips", "4", "-kill", "2", "fleet"}, mode: "fleet"},
		{args: []string{"daemon-watch", "-kill", "2"}, want: "not defined: -kill"},
	})
}

func TestUsageNamesEveryArtifact(t *testing.T) {
	var stderr bytes.Buffer
	if _, err := parse([]string{"-h"}, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("parse(-h) = %v, want flag.ErrHelp", err)
	}
	var listed []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "artifacts: "); ok {
			listed = strings.Fields(rest)
		}
	}
	for _, a := range figs.Artifacts {
		for _, n := range a.Names {
			if !slices.Contains(listed, n) {
				t.Errorf("usage does not list artifact %q:\n%s", n, stderr.String())
			}
		}
	}
	if !slices.Contains(listed, "all") {
		t.Errorf("usage does not list \"all\":\n%s", stderr.String())
	}
}

func TestDaemonCommandsAllParse(t *testing.T) {
	for _, name := range strings.Fields(daemonCommands) {
		args := []string{name}
		if name == "daemon-submit" {
			args = append(args, "-tenant", "t")
		}
		if _, err := parse(args, io.Discard); err != nil {
			t.Errorf("listed daemon command %s does not parse: %v", name, err)
		}
	}
}
