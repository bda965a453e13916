package supervise

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeJournal(t *testing.T, path, meta string, entries []Entry) {
	t.Helper()
	j, err := OpenJournal(path, meta, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, "run1", []Entry{
		{Status: StatusAttempt, Key: "a", Attempt: 1, Kind: "error", Error: "x"},
		{Status: StatusOK, Key: "a", Attempt: 2, Value: json.RawMessage(`{"cost":1.5}`)},
		{Status: StatusFailed, Key: "b", Attempt: 3, Kind: "panic", Error: "panic: y"},
	})

	j, err := OpenJournal(path, "run1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Discarded != "" || j.Skipped != 0 {
		t.Fatalf("clean journal misread: discarded=%q skipped=%d", j.Discarded, j.Skipped)
	}
	if j.Attempts != 1 {
		t.Errorf("attempt records = %d, want 1 (retries must be observable)", j.Attempts)
	}
	a, ok := j.Lookup("a")
	if !ok || a.Status != StatusOK || string(a.Value) != `{"cost":1.5}` {
		t.Fatalf("entry a = %+v, %v", a, ok)
	}
	b, ok := j.Lookup("b")
	if !ok || b.Status != StatusFailed || b.Kind != "panic" {
		t.Fatalf("entry b = %+v, %v", b, ok)
	}
	if j.Completed("") != 1 {
		t.Errorf("Completed() = %d, want 1", j.Completed(""))
	}
}

func TestJournalTornTailSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, "run1", []Entry{
		{Status: StatusOK, Key: "a", Attempt: 1, Value: json.RawMessage(`1`)},
		{Status: StatusOK, Key: "b", Attempt: 1, Value: json.RawMessage(`2`)},
	})
	// Simulate a kill mid-write: chop the file inside the final line.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(path, "run1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Discarded != "" {
		t.Fatalf("torn tail must not discard the journal: %q", j.Discarded)
	}
	if j.Skipped != 1 {
		t.Errorf("skipped = %d, want 1 torn line", j.Skipped)
	}
	if _, ok := j.Lookup("a"); !ok {
		t.Error("intact entry lost")
	}
	if _, ok := j.Lookup("b"); ok {
		t.Error("torn entry must not resolve")
	}
}

func TestJournalChecksumMismatchSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, "run1", []Entry{
		{Status: StatusOK, Key: "a", Attempt: 1, Value: json.RawMessage(`1`)},
	})
	// Corrupt the value in place, leaving valid JSON but a stale sum.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(b), `"value":1`, `"value":9`, 1)
	if mangled == string(b) {
		t.Fatal("test setup: value not found")
	}
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(path, "run1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok := j.Lookup("a"); ok {
		t.Error("checksum-mismatched entry must not resolve")
	}
	if j.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", j.Skipped)
	}
}

// TestJournalMetaMismatchDiscards: a resume refuses a journal written
// under another fingerprint and leaves its bytes alone; only a fresh
// run discards it.
func TestJournalMetaMismatchDiscards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, "scale=1 seed=7", []Entry{
		{Status: StatusOK, Key: "a", Attempt: 1, Value: json.RawMessage(`1`)},
	})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = OpenJournal(path, "scale=0.5 seed=7", true)
	var re *ResumeError
	if !errors.As(err, &re) || re.Path != path || !strings.Contains(re.Reason, "scale=1 seed=7") {
		t.Fatalf("resume on another run's journal: %v, want a ResumeError naming the file and the stored fingerprint", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("a refused resume changed the journal (%v):\n%s", err, after)
	}
	j, err := OpenJournal(path, "scale=0.5 seed=7", false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Discarded == "" {
		t.Fatal("a fresh run must discard the other run's journal")
	}
	if _, ok := j.Lookup("a"); ok {
		t.Error("entries from a different run must not resolve")
	}
}

// TestJournalDamagedHeaderRefuses: one flipped byte in the header of a
// journal whose records are intact must not cost the records. The
// resume fails, naming the file, and the bytes stay as they were.
func TestJournalDamagedHeaderRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, "cashd/1", []Entry{
		{Status: StatusOK, Key: "submit a", Value: json.RawMessage(`{"spec":{"name":"a","cells":1,"seed":1}}`)},
		{Status: StatusOK, Key: "submit b", Value: json.RawMessage(`{"spec":{"name":"b","cells":1,"seed":2}}`)},
		{Status: StatusOK, Key: "cell a c0000", Value: json.RawMessage(`{"value":"x","consumed":7}`)},
	})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Replace(raw, []byte(`"cashd/1"`), []byte(`"Cashd/1"`), 1)
	if bytes.Equal(damaged, raw) {
		t.Fatal("test setup: header fingerprint not found")
	}
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenJournal(path, "cashd/1", true)
	var re *ResumeError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), path) {
		t.Fatalf("resume on a journal with a damaged header: %v, want a ResumeError naming %s", err, path)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, damaged) {
		t.Fatalf("a refused resume changed the journal: %d bytes left of %d (%v)", len(after), len(damaged), err)
	}
}

// TestJournalLineLongerThanReadBuffer: a value larger than the load
// buffer is read back whole.
func TestJournalLineLongerThanReadBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	big := json.RawMessage(`"` + strings.Repeat("x", 200_000) + `"`)
	writeJournal(t, path, "m", []Entry{
		{Status: StatusOK, Key: "big", Value: big},
		{Status: StatusOK, Key: "after", Value: json.RawMessage(`2`)},
	})
	j, err := OpenJournal(path, "m", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Skipped != 0 {
		t.Fatalf("skipped %d lines", j.Skipped)
	}
	if e, ok := j.Lookup("big"); !ok || !bytes.Equal(e.Value, big) {
		t.Fatalf("the 200 KB value reads back as %d bytes (found %v)", len(e.Value), ok)
	}
	if _, ok := j.Lookup("after"); !ok {
		t.Fatal("the record after the long line was lost")
	}
}

func TestJournalFreshRunTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, "m", []Entry{
		{Status: StatusOK, Key: "a", Attempt: 1, Value: json.RawMessage(`1`)},
	})
	j, err := OpenJournal(path, "m", false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok := j.Lookup("a"); ok {
		t.Error("non-resume open must not reuse old entries")
	}
	if j.Discarded == "" {
		t.Error("truncation reason should be recorded")
	}
}

func TestDefaultJournalPathEnvOverride(t *testing.T) {
	t.Setenv("CASH_JOURNAL", "/tmp/custom.jsonl")
	if p := DefaultJournalPath(); p != "/tmp/custom.jsonl" {
		t.Errorf("DefaultJournalPath() = %q", p)
	}
}

// TestFinalsInKeyOrder: however the finals arrived, a journal loaded
// through OpenJournal or OpenLedger walks them in key order, one per
// key, the latest record standing for its key. LookupBytes reads what
// Lookup reads without allocating.
func TestFinalsInKeyOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, "run1", []Entry{
		{Status: StatusOK, Key: "p/b", Value: json.RawMessage(`1`)},
		{Status: StatusOK, Key: "q/z", Value: json.RawMessage(`2`)},
		{Status: StatusAttempt, Key: "p/a", Attempt: 1, Kind: "error", Error: "x"},
		{Status: StatusFailed, Key: "p/a", Attempt: 2, Kind: "error", Error: "y"},
		{Status: StatusOK, Key: "p/b", Value: json.RawMessage(`3`)},
		{Status: StatusOK, Key: "p/c", Value: json.RawMessage(`4`)},
	})
	want := []string{"p/a failed ", "p/b ok 3", "p/c ok 4"}
	for _, open := range []func() (*Journal, error){
		func() (*Journal, error) { return OpenJournal(path, "run1", true) },
		func() (*Journal, error) { return OpenLedger(path, "run1") },
	} {
		j, err := open()
		if err != nil {
			t.Fatal(err)
		}
		var walked []string
		j.Walk("p/", func(e *Entry) { walked = append(walked, e.Key+" "+e.Status+" "+string(e.Value)) })
		if strings.Join(walked, ",") != strings.Join(want, ",") {
			t.Errorf("Walk(p/) visits %q; want %q", walked, want)
		}
		var all []string
		j.Walk("", func(e *Entry) { all = append(all, e.Key) })
		if strings.Join(all, ",") != "p/a,p/b,p/c,q/z" {
			t.Errorf("Walk() visits %q, want p/a, p/b, p/c, q/z", all)
		}
		key := []byte("p/b")
		if e, ok := j.LookupBytes(key); !ok || string(e.Value) != "3" || e.Sum != "" {
			t.Errorf("LookupBytes(p/b) = %+v, %v", e, ok)
		}
		if n := testing.AllocsPerRun(10, func() { j.LookupBytes(key) }); n != 0 {
			t.Errorf("LookupBytes allocates %v times", n)
		}
		j.Close()
	}
}

// TestLedgerRefusesCorruptLine: a complete line that fails its checksum
// is skipped and counted by OpenJournal, and refused by OpenLedger with
// its offset, leaving the file as it was; a torn final line is dropped
// by both.
func TestLedgerRefusesCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, "run1", []Entry{
		{Status: StatusOK, Key: "a", Value: json.RawMessage(`"alpha"`)},
		{Status: StatusOK, Key: "b", Value: json.RawMessage(`"beta"`)},
	})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(bytes.Clone(raw), `{"status":"ok","key":"c"`...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenLedger(path, "run1")
	if err != nil {
		t.Fatalf("ledger open over a torn tail: %v", err)
	}
	j.Close()

	at := bytes.Index(raw, []byte(`"alpha"`))
	damaged := bytes.Replace(raw, []byte(`"alpha"`), []byte(`"alphA"`), 1)
	line := bytes.LastIndexByte(damaged[:at], '\n') + 1
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	var re *ResumeError
	if _, err := OpenLedger(path, "run1"); !errors.As(err, &re) || !strings.Contains(re.Reason, fmt.Sprintf("line at byte %d ", line)) {
		t.Fatalf("ledger open over a corrupt line: %v, want a ResumeError naming byte %d", err, line)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, damaged) {
		t.Fatalf("a refused ledger open changed the file (%v)", err)
	}
	j, err = OpenJournal(path, "run1", true)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, ok := j.Lookup("a"); ok || j.Skipped != 1 {
		t.Fatalf("journal open over a corrupt line: a found %v, skipped %d; want skipped and counted", ok, j.Skipped)
	}
	if _, ok := j.Lookup("b"); !ok {
		t.Fatal("journal open over a corrupt line lost the record after it")
	}
}
