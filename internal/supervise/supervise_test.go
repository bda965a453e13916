package supervise

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunOrderAndValues(t *testing.T) {
	var units []Unit
	for i := 0; i < 20; i++ {
		i := i
		units = append(units, Unit{
			Key: fmt.Sprintf("u%02d", i),
			Run: func() (any, error) { return i * i, nil },
		})
	}
	for _, jobs := range []int{1, 4, 32} {
		s := New(Options{Jobs: jobs})
		reps := s.Run(units)
		if len(reps) != len(units) {
			t.Fatalf("jobs=%d: %d reports, want %d", jobs, len(reps), len(units))
		}
		for i, r := range reps {
			if !r.OK() {
				t.Fatalf("jobs=%d: unit %d failed: %v", jobs, i, r.Failure)
			}
			var v int
			if err := r.Decode(&v); err != nil {
				t.Fatal(err)
			}
			if v != i*i || r.Key != units[i].Key {
				t.Errorf("jobs=%d: report %d = (%s, %d), want (%s, %d)",
					jobs, i, r.Key, v, units[i].Key, i*i)
			}
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	s := New(Options{})
	reps := s.Run([]Unit{
		{Key: "ok", Run: func() (any, error) { return "fine", nil }},
		{Key: "boom", Run: func() (any, error) { panic("kaboom") }},
		{Key: "also-ok", Run: func() (any, error) { return 42, nil }},
	})
	if !reps[0].OK() || !reps[2].OK() {
		t.Fatal("healthy units must survive a sibling panic")
	}
	fr := reps[1].Failure
	if fr == nil || fr.Kind != FailPanic {
		t.Fatalf("panic not recorded: %+v", reps[1])
	}
	if fr.Msg != "kaboom" || fr.Stack == "" {
		t.Errorf("panic record missing message or stack: %+v", fr)
	}
	if got := fr.Reason(); got != "panic: kaboom" {
		t.Errorf("Reason() = %q", got)
	}
}

func TestErrorFailure(t *testing.T) {
	s := New(Options{})
	reps := s.Run([]Unit{{Key: "e", Run: func() (any, error) { return nil, errors.New("nope") }}})
	fr := reps[0].Failure
	if fr == nil || fr.Kind != FailError || fr.Msg != "nope" {
		t.Fatalf("error not recorded: %+v", reps[0])
	}
	if fr.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", fr.Attempts)
	}
}

func TestHangingUnitTimesOut(t *testing.T) {
	clk := NewFakeClock()
	release := make(chan struct{})
	defer close(release)
	s := New(Options{Timeout: 2 * time.Second, Clock: clk})

	done := make(chan []Report, 1)
	go func() {
		done <- s.Run([]Unit{
			{Key: "hang", Run: func() (any, error) { <-release; return nil, nil }},
			{Key: "ok", Run: func() (any, error) { return 1, nil }},
		})
	}()
	// The hanging unit's timeout timer must be pending before we advance.
	clk.BlockUntil(1)
	clk.Advance(2 * time.Second)
	// The second unit needs its own (unfired) timer advanced past too.
	clk.BlockUntil(1)
	clk.Advance(2 * time.Second)
	reps := <-done

	fr := reps[0].Failure
	if fr == nil || fr.Kind != FailTimeout {
		t.Fatalf("hang not recorded as timeout: %+v", reps[0])
	}
	if got := fr.Reason(); got != "timeout after 2s" {
		t.Errorf("Reason() = %q", got)
	}
	if !reps[1].OK() {
		t.Errorf("fast unit must complete despite sibling hang: %+v", reps[1])
	}
}

func TestFastUnitBeatsRealTimeout(t *testing.T) {
	s := New(Options{Timeout: time.Minute})
	reps := s.Run([]Unit{{Key: "fast", Run: func() (any, error) { return "v", nil }}})
	if !reps[0].OK() {
		t.Fatalf("fast unit timed out: %+v", reps[0])
	}
}

func TestFlakyUnitRetriesWithBackoff(t *testing.T) {
	clk := NewFakeClock()
	var calls atomic.Int64
	s := New(Options{MaxRetries: 3, Seed: 9, Clock: clk})
	done := make(chan []Report, 1)
	go func() {
		done <- s.Run([]Unit{{Key: "flaky", Run: func() (any, error) {
			if calls.Add(1) < 3 {
				return nil, errors.New("transient")
			}
			return "recovered", nil
		}}})
	}()
	// Two failures → two backoff sleeps to release.
	for i := 0; i < 2; i++ {
		clk.BlockUntil(1)
		clk.Advance(time.Second)
	}
	reps := <-done
	if !reps[0].OK() {
		t.Fatalf("flaky unit should recover: %+v", reps[0])
	}
	if reps[0].Attempts != 3 {
		t.Errorf("attempts = %d, want 3", reps[0].Attempts)
	}
	slept := clk.Requested()
	if len(slept) != 2 {
		t.Fatalf("backoff sleeps = %v, want 2", slept)
	}
	// First delay jitters around 100ms (±50%), second around 200ms;
	// jitter is deterministic for a fixed seed.
	for i, d := range slept {
		base := backoffBase << i
		if lo, hi := base/2, base*3/2; d < lo || d >= hi {
			t.Errorf("backoff %d = %v, want in [%v, %v)", i, d, lo, hi)
		}
	}
	again := New(Options{MaxRetries: 3, Seed: 9, Clock: clk})
	if a, b := s.backoff("flaky", 1), again.backoff("flaky", 1); a != b {
		t.Errorf("jitter not deterministic: %v vs %v", a, b)
	}
}

func TestRetriesExhaust(t *testing.T) {
	clk := NewFakeClock()
	var calls atomic.Int64
	s := New(Options{MaxRetries: 2, Clock: clk})
	done := make(chan []Report, 1)
	go func() {
		done <- s.Run([]Unit{{Key: "dead", Run: func() (any, error) {
			calls.Add(1)
			return nil, errors.New("permanent")
		}}})
	}()
	for i := 0; i < 2; i++ {
		clk.BlockUntil(1)
		clk.Advance(time.Hour)
	}
	reps := <-done
	if reps[0].OK() {
		t.Fatal("permanently failing unit must fail")
	}
	if calls.Load() != 3 {
		t.Errorf("calls = %d, want 3 (1 + 2 retries)", calls.Load())
	}
	if reps[0].Failure.Attempts != 3 {
		t.Errorf("failure attempts = %d, want 3", reps[0].Failure.Attempts)
	}
}

func TestBackoffCapped(t *testing.T) {
	s := New(Options{})
	// The un-jittered delay doubles from 100ms and stops at the 5s cap
	// on the 7th retry (6.4s would pass it); the jittered one never
	// exceeds the cap.
	for attempt := 1; attempt <= 100; attempt++ {
		d := backoffCap
		if attempt <= 6 {
			d = backoffBase << (attempt - 1)
		}
		lo, hi := d/2, min(d*3/2, backoffCap)
		if got := s.backoff("k", attempt); got < lo || got > hi {
			t.Errorf("backoff attempt %d = %v, want in [%v, %v]", attempt, got, lo, hi)
		}
	}
}

func TestJournalShortCircuitsCompletedUnits(t *testing.T) {
	path := t.TempDir() + "/j.jsonl"
	j, err := OpenJournal(path, "meta1", false)
	if err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int64
	unit := Unit{Key: "cell", Run: func() (any, error) { ran.Add(1); return "value", nil }}
	s := New(Options{Journal: j})
	if reps := s.Run([]Unit{unit}); !reps[0].OK() || reps[0].FromJournal {
		t.Fatalf("first run: %+v", reps[0])
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "meta1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Discarded != "" {
		t.Fatalf("journal discarded on resume: %q", j2.Discarded)
	}
	s2 := New(Options{Journal: j2})
	reps := s2.Run([]Unit{unit})
	if !reps[0].OK() || !reps[0].FromJournal {
		t.Fatalf("resume should replay from journal: %+v", reps[0])
	}
	var v string
	if err := reps[0].Decode(&v); err != nil || v != "value" {
		t.Fatalf("replayed value = %q, %v", v, err)
	}
	if ran.Load() != 1 {
		t.Errorf("unit ran %d times, want 1", ran.Load())
	}
}

func TestJournaledFailureIsRetriedOnResume(t *testing.T) {
	path := t.TempDir() + "/j.jsonl"
	j, err := OpenJournal(path, "m", false)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Journal: j})
	s.Run([]Unit{{Key: "cell", Run: func() (any, error) { return nil, errors.New("boom") }}})
	j.Close()

	j2, err := OpenJournal(path, "m", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	s2 := New(Options{Journal: j2})
	reps := s2.Run([]Unit{{Key: "cell", Run: func() (any, error) { return "fixed", nil }}})
	if !reps[0].OK() || reps[0].FromJournal {
		t.Fatalf("failed cell must re-run on resume: %+v", reps[0])
	}
}

func TestReasonTruncatesNothing(t *testing.T) {
	fr := &FailureRecord{Kind: FailError, Msg: strings.Repeat("x", 10)}
	if fr.Reason() != strings.Repeat("x", 10) {
		t.Error("error reason should be the message verbatim")
	}
}
