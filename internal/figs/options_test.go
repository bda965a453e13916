package figs

import (
	"bytes"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	accept := []Options{
		{}, // all defaults
		{QueueCap: 128, Stream: "bursts", Shed: "deadline"},
		{Tier: "cycle"},
		{Tier: "interval"},
		{FleetChips: 8, FleetTenants: 12, FleetKill: 3},
		{FleetChips: 4, FleetKill: 2},
		{Stream: "flash"}, // a stream without a shed policy compares both
		{Scale: 0.006, FaultRate: 5},
	}
	for _, o := range accept {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	reject := []struct {
		o    Options
		want string
	}{
		{Options{QueueCap: -1}, "queue cap"},
		{Options{Shed: "deadline"}, "requires a stream"},
		{Options{FleetChips: -2}, "non-negative"},
		{Options{FleetKill: -1}, "non-negative"},
		{Options{FleetChips: 4, FleetKill: 4}, "smaller than chips"},
		{Options{FleetChips: 4, FleetKill: 9}, "smaller than chips"},
		{Options{Tier: "fast"}, "tier"},
		{Options{Tier: "Cycle"}, "tier"},                     // names are case-sensitive
		{Options{Tier: "sampled"}, "want cycle or interval"}, // the removed tier names the valid ones
		{Options{Scale: -1}, "workload scale"},
		{Options{Scale: math.NaN()}, "workload scale"},
		{Options{Scale: math.Inf(1)}, "workload scale"},
		{Options{FaultRate: -0.5}, "fault rate"},
		{Options{FaultRate: math.NaN()}, "fault rate"},
	}
	for _, c := range reject {
		err := c.o.Validate()
		if err == nil {
			t.Errorf("Validate(%+v) accepted, want error mentioning %q", c.o, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %q, want mention of %q", c.o, err, c.want)
		}
	}
}

func TestReproduceValidatesFirst(t *testing.T) {
	t.Setenv("CASH_ORACLE_CACHE", "-")
	var buf bytes.Buffer
	if err := Reproduce(&buf, "table1", Options{QueueCap: -1}); err == nil {
		t.Error("invalid options must be rejected")
	}
	if err := Reproduce(&buf, "nonsense", Options{}); err == nil || !strings.Contains(err.Error(), "unknown artifact") {
		t.Errorf("unknown artifact: got %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("a rejected run must not write the report:\n%s", buf.String())
	}
}

func TestAllRunsEveryArtifact(t *testing.T) {
	t.Setenv("CASH_ORACLE_CACHE", "-")
	saved := Artifacts
	t.Cleanup(func() { Artifacts = saved })
	var want, ran []string
	Artifacts = nil
	for _, a := range saved {
		name := a.Names[0]
		want = append(want, name)
		Artifacts = append(Artifacts, Artifact{Names: a.Names, Spaced: a.Spaced, Run: func(h *Harness) error {
			ran = append(ran, name)
			return nil
		}})
	}
	if err := Reproduce(io.Discard, "all", Options{}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, want) {
		t.Errorf("all ran %v, want every artifact in table order %v", ran, want)
	}
}

func TestArtifactNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, n := range ArtifactNames() {
		if seen[n] {
			t.Errorf("artifact name %q appears twice", n)
		}
		seen[n] = true
	}
}

// TestMetaCoversEveryValueOption pins the journal fingerprint to every
// Options field but the supervision ones: changing a value field must
// change it, and changing a supervision field must not.
func TestMetaCoversEveryValueOption(t *testing.T) {
	supervision := map[string]bool{"Jobs": true, "SweepPar": true, "CellTimeout": true,
		"MaxRetries": true, "JournalPath": true, "Resume": true, "Log": true}
	base := testHarness(&bytes.Buffer{})
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		h := testHarness(&bytes.Buffer{})
		f := reflect.ValueOf(&h.Options).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Float64:
			f.SetFloat(0.5)
		case reflect.Int, reflect.Int64:
			f.SetInt(3)
		case reflect.Uint64:
			f.SetUint(3)
		case reflect.Interface:
			f.Set(reflect.ValueOf(io.Discard))
		default:
			t.Fatalf("field %s: unhandled kind %s", typ.Field(i).Name, f.Kind())
		}
		name := typ.Field(i).Name
		if changed := h.meta() != base.meta(); changed == supervision[name] {
			t.Errorf("field %s: fingerprint changed = %v, want %v", name, changed, !supervision[name])
		}
	}
}

// TestResumeUnderOtherQueueCapRecomputes pins the resume fingerprint to
// the tail study's knobs: a journal written at one queue cap must not
// replay into a run at another.
func TestResumeUnderOtherQueueCapRecomputes(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	run := func(queueCap int, journal string, resume bool) string {
		var buf bytes.Buffer
		h := testHarness(&buf)
		h.Scale = 0.006
		h.QueueCap = queueCap
		h.JournalPath = journal
		h.Resume = resume
		if err := h.TailStudy(); err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	run(1, journal, false)
	resumed := run(200, journal, true)
	if fresh := run(200, "", false); resumed != fresh {
		t.Errorf("resume at queue cap 200 over a queue cap 1 journal differs from a fresh run:\n--- fresh\n%s\n--- resumed\n%s", fresh, resumed)
	}
}

// TestResumeUnderOtherTierDiscardsJournal pins the resume fingerprint
// to the simulation tier, on the journal's own discard notice.
func TestResumeUnderOtherTierDiscardsJournal(t *testing.T) {
	t.Setenv("CASH_ORACLE_CACHE", "-")
	journal := filepath.Join(t.TempDir(), "journal.jsonl")
	run := func(tier string, resume bool) string {
		var log bytes.Buffer
		o := Options{Scale: 0.1, Tier: tier, JournalPath: journal, Resume: resume, Log: &log}
		if err := Reproduce(io.Discard, "reliability", o); err != nil {
			t.Fatal(err)
		}
		return log.String()
	}
	run("interval", false)
	if log := run("interval", true); !strings.Contains(log, "replayed from journal") {
		t.Fatalf("a same-tier resume must replay the journal:\n%s", log)
	}
	log := run("", true)
	if !strings.Contains(log, "discarded previous content") {
		t.Errorf("a cycle-tier resume must discard an interval-tier journal:\n%s", log)
	}
	if strings.Contains(log, "replayed from journal") {
		t.Errorf("a cycle-tier resume replayed interval-tier cells:\n%s", log)
	}
}
