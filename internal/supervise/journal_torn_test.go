package supervise

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The cashd daemon acknowledges every mutating request only after its
// journal record is written and synced, and a kill -9 can land at any
// byte of that final write. These tests cut a journal at every byte
// offset of its last record and require that (a) every prior record
// survives the reload and (b) the resumed journal accepts appends that
// themselves survive the next reload — the daemon's append path, where
// a record written after a torn tail must not merge into the garbage.

// buildJournal writes meta plus n final records and returns the byte
// offsets at which each line of the file ends.
func buildJournal(t *testing.T, path, meta string, n int) (lineEnds []int64) {
	t.Helper()
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		err := j.Record(Entry{
			Status: StatusOK,
			Key:    fmt.Sprintf("cell %03d", i),
			Value:  []byte(fmt.Sprintf("%q", fmt.Sprintf("value-%d", i))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off, b := range raw {
		if b == '\n' {
			lineEnds = append(lineEnds, int64(off)+1)
		}
	}
	if len(lineEnds) != n+1 { // meta + n records
		t.Fatalf("journal has %d lines, want %d", len(lineEnds), n+1)
	}
	return lineEnds
}

func TestJournalTornFinalRecordEveryOffset(t *testing.T) {
	const meta = "torn-property v1"
	const records = 5
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	ends := buildJournal(t, full, meta, records)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	prevEnd := ends[len(ends)-2] // end of the second-to-last record

	// Cut everywhere inside the last record, from "just the prior
	// records" to "one byte short of whole".
	for cut := prevEnd; cut < int64(len(raw)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("cut-%d.jsonl", cut))
			if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			j, err := OpenJournal(path, meta, true)
			if err != nil {
				t.Fatal(err)
			}
			if j.Discarded != "" {
				t.Fatalf("resume discarded the journal: %s", j.Discarded)
			}
			// Every record before the torn one must have survived.
			for i := 0; i < records-1; i++ {
				key := fmt.Sprintf("cell %03d", i)
				if _, ok := j.Lookup(key); !ok {
					t.Fatalf("record %q lost after cut at %d", key, cut)
				}
			}
			if _, ok := j.Lookup(fmt.Sprintf("cell %03d", records-1)); ok && cut < int64(len(raw)) {
				t.Fatalf("torn final record resurrected at cut %d", cut)
			}

			// The daemon's append path: a new record written onto the
			// truncated journal must itself survive a reload.
			if err := j.Record(Entry{Status: StatusOK, Key: "appended", Value: []byte(`"after-crash"`)}); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, err := OpenJournal(path, meta, true)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if _, ok := j2.Lookup("appended"); !ok {
				t.Fatalf("record appended after torn tail (cut %d) was lost on reload", cut)
			}
			for i := 0; i < records-1; i++ {
				key := fmt.Sprintf("cell %03d", i)
				if _, ok := j2.Lookup(key); !ok {
					t.Fatalf("prior record %q lost after append at cut %d", key, cut)
				}
			}
			if j2.Skipped != 0 {
				t.Fatalf("reload after truncation-and-append still skipped %d lines", j2.Skipped)
			}
		})
	}
}

// TestJournalTornTailThenRecordOnce pins the daemon's exactly-once
// gate on the same path: RecordOnce for the torn (never-acknowledged)
// key must win after the crash, and a duplicate must not.
func TestJournalTornTailThenRecordOnce(t *testing.T) {
	const meta = "torn-once v1"
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	ends := buildJournal(t, path, meta, 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the middle of the final record.
	cut := ends[len(ends)-2] + (ends[len(ends)-1]-ends[len(ends)-2])/2
	if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	tornKey := "cell 002"
	won, err := j.RecordOnce(Entry{Status: StatusOK, Key: tornKey, Value: []byte(`"redone"`)})
	if err != nil {
		t.Fatal(err)
	}
	if !won {
		t.Fatal("re-execution of the torn cell lost the RecordOnce race against a record that never survived")
	}
	won, err = j.RecordOnce(Entry{Status: StatusOK, Key: tornKey, Value: []byte(`"dup"`)})
	if err != nil {
		t.Fatal(err)
	}
	if won {
		t.Fatal("duplicate delivery won RecordOnce")
	}
}

// headerBytes returns the meta header line OpenJournal writes for meta,
// newline included.
func headerBytes(t testing.TB, dir, meta string) []byte {
	t.Helper()
	path := filepath.Join(dir, "header.jsonl")
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestJournalTornHeaderResumes: a crash during the very first write
// leaves a checksum-valid header without its newline. Resuming on it
// must rewrite the header before appending, or the next resume finds a
// record first, reports a missing header and discards every record.
func TestJournalTornHeaderResumes(t *testing.T) {
	const meta = "torn-header v1"
	dir := t.TempDir()
	hdr := headerBytes(t, dir, meta)
	path := filepath.Join(dir, "j.jsonl")
	if err := os.WriteFile(path, hdr[:len(hdr)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(Entry{Status: StatusOK, Key: "acked", Value: []byte(`"v"`)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path, meta, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Discarded != "" {
		t.Fatalf("resume after a torn header discarded the journal: %s", j2.Discarded)
	}
	if _, ok := j2.Lookup("acked"); !ok {
		t.Fatal("record acked after a torn header was lost on reload")
	}
}

// FuzzJournalReopen: whatever a crash left in the file, records synced
// after a resume survive the next crash. The target opens a journal
// with resume on the fuzzed prior content, records three entries,
// closes it, cuts the file at a fuzzed offset and reopens it: every
// record whose line ended at or before the cut must be found, with its
// value. The committed corpus holds a header torn before its newline,
// the crash that once made the reopen discard everything.
func FuzzJournalReopen(f *testing.F) {
	const meta = "fuzz-reopen v1"
	f.Fuzz(func(t *testing.T, prior []byte, cut uint16) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, prior, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path, meta, true)
		if err != nil {
			t.Fatal(err)
		}
		var ends []int64
		for i := 0; i < 3; i++ {
			e := Entry{Status: StatusOK, Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprintf(`"v%d"`, i))}
			if err := j.Record(e); err != nil {
				t.Fatal(err)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			ends = append(ends, st.Size())
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(cut) % int64(len(raw)+1)
		if err := os.WriteFile(path, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := OpenJournal(path, meta, true)
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		for i, end := range ends {
			if end > n {
				break
			}
			e, ok := j2.Lookup(fmt.Sprintf("k%d", i))
			if want := fmt.Sprintf(`"v%d"`, i); !ok || string(e.Value) != want {
				t.Fatalf("record k%d (synced through byte %d, cut at %d) reads %q, %v; want %s (discarded: %q)",
					i, end, n, e.Value, ok, want, j2.Discarded)
			}
		}
	})
}
