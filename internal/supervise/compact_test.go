package supervise

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return st.Size()
}

// TestCompactKeepsWinningRecords: after compaction the journal holds
// exactly the meta header plus one final record per key, every line
// CRC-valid, and a resume sees the same completed set.
func TestCompactKeepsWinningRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, "meta-v1", false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("cell%d", i)
		// Two failed attempts and a final per key: only the final must
		// survive compaction.
		j.Record(Entry{Status: StatusAttempt, Key: key, Attempt: 1, Error: "boom"})
		j.Record(Entry{Status: StatusAttempt, Key: key, Attempt: 2, Error: "boom"})
		j.Record(Entry{Status: StatusOK, Key: key, Attempt: 3, Value: json.RawMessage(`{"v":1}`)})
	}
	before := fileSize(t, path)
	if err := j.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	after := fileSize(t, path)
	if after >= before {
		t.Fatalf("compaction did not shrink the journal: %d -> %d bytes", before, after)
	}
	// The compacted journal must still accept appends.
	if err := j.Record(Entry{Status: StatusOK, Key: "late", Value: json.RawMessage(`2`)}); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, "meta-v1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Discarded != "" {
		t.Fatalf("compacted journal not resumable: %s", j2.Discarded)
	}
	if j2.Skipped != 0 {
		t.Fatalf("compacted journal has %d corrupt lines", j2.Skipped)
	}
	if got := j2.Completed(""); got != 6 {
		t.Fatalf("completed after compact+append = %d, want 6", got)
	}
	if j2.Attempts != 0 {
		t.Fatalf("attempt records survived compaction: %d", j2.Attempts)
	}
	for i := 0; i < 5; i++ {
		e, ok := j2.Lookup(fmt.Sprintf("cell%d", i))
		if !ok || e.Status != StatusOK || e.Attempt != 3 {
			t.Fatalf("cell%d: lookup = %+v, %v", i, e, ok)
		}
	}
}

// TestCompactBoundsResumeGrowth is the regression for the unbounded-
// growth bug: J kill/resume cycles of the same run used to append
// duplicate records forever. With compaction at the end of each cycle
// the file stays at its single-cycle footprint — growth across J
// resumes is bounded by a constant, not superlinear.
func TestCompactBoundsResumeGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	const cells, cycles = 8, 12
	var sizes []int64
	for c := 0; c < cycles; c++ {
		j, err := OpenJournal(path, "meta-v1", true)
		if err != nil {
			t.Fatal(err)
		}
		// Each cycle re-runs every cell the way a crash-retry loop does:
		// one failed attempt plus a fresh final record per cell.
		for i := 0; i < cells; i++ {
			key := fmt.Sprintf("cell%02d", i)
			j.Record(Entry{Status: StatusAttempt, Key: key, Attempt: 1, Error: "killed"})
			j.Record(Entry{Status: StatusFailed, Key: key, Attempt: 2, Error: "killed"})
		}
		if err := j.Compact(); err != nil {
			t.Fatalf("cycle %d compact: %v", c, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fileSize(t, path))
	}
	// Superlinear (even linear) growth would put the final size at ~J×
	// the first; compaction keeps it flat. Allow slack for attempt-count
	// digits.
	if limit := sizes[0] + sizes[0]/4; sizes[len(sizes)-1] > limit {
		t.Fatalf("journal grew across %d resume cycles: sizes %v (limit %d)", cycles, sizes, limit)
	}
}

// TestRecordOnceDeduplicates: only the first final per key lands; later
// deliveries are reported as losers and do not grow the journal.
func TestRecordOnceDeduplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := OpenJournal(path, "meta-v1", false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	won, err := j.RecordOnce(Entry{Status: StatusOK, Key: "cell", Value: json.RawMessage(`1`)})
	if err != nil || !won {
		t.Fatalf("first RecordOnce = %v, %v; want win", won, err)
	}
	size := fileSize(t, path)
	for i := 0; i < 3; i++ {
		won, err = j.RecordOnce(Entry{Status: StatusOK, Key: "cell", Value: json.RawMessage(`2`)})
		if err != nil || won {
			t.Fatalf("duplicate RecordOnce = %v, %v; want loss", won, err)
		}
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("duplicate deliveries grew the journal: %d -> %d", size, got)
	}
	e, ok := j.Lookup("cell")
	if !ok || string(e.Value) != "1" {
		t.Fatalf("winning value = %s, want 1", e.Value)
	}
}
