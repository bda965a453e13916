package figs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/report-0.002.txt from the current model")

// goldenReport is the committed rendering of every artifact at scale
// 0.002. A change that moves any report byte must re-record it with
// `make report-golden` and show the diff.
var goldenReport = filepath.Join("testdata", "report-0.002.txt")

// TestReportGolden pins the whole `cashsim all` report, byte for byte,
// at a scale small enough for tier-1: every artifact, its cells and its
// rendering. The oracle cache is off, so the run sweeps cold and reads
// nothing from outside the repository.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every artifact in -short mode")
	}
	t.Setenv("CASH_ORACLE_CACHE", "-")
	var buf bytes.Buffer
	if err := Reproduce(&buf, "all", Options{Scale: 0.002, JournalPath: "-"}); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenReport), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenReport, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenReport)
	if err != nil {
		t.Fatalf("%v (record it with `make report-golden`)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w || i >= len(gl) || i >= len(wl) {
			t.Fatalf("report differs from %s at line %d:\n got: %q\nwant: %q\n(re-record with `make report-golden` if the change is intended)",
				goldenReport, i+1, g, w)
		}
	}
}
