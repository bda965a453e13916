package daemon

import (
	"bytes"
	"encoding/json"
	"testing"

	"cash/internal/supervise"
)

// FuzzRebuild fuzzes the journal lines behind a valid cashd/1 header.
// Every line that decodes as a journal entry is recorded with a valid
// checksum; the rest are dropped. open must then refuse the journal or
// rebuild books that reconcile: every envelope has granted = consumed
// + refunded with nothing outstanding, no tenant has more landed cells
// than cells, and a second open of the same file reports the same
// health digest.
func FuzzRebuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, lines []byte) {
		opts := testOptions(t)
		j, err := supervise.OpenJournal(opts.Journal, journalMeta, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(lines, []byte("\n")) {
			var e supervise.Entry
			if json.Unmarshal(line, &e) != nil {
				continue
			}
			if err := j.Record(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		s, err := open(opts)
		if err != nil {
			return
		}
		spend := s.spendResult()
		digest := s.healthResult().Digest
		s.journal.Close()
		if spend.RootGranted != spend.RootConsumed+spend.RootRefunded || spend.RootOutstanding != 0 {
			t.Errorf("root books do not reconcile: %+v", spend)
		}
		for _, ts := range spend.Tenants {
			if ts.Granted != ts.Consumed+ts.Refunded || ts.Outstanding != 0 {
				t.Errorf("tenant books do not reconcile: %+v", ts)
			}
			if ts.Landed > ts.Cells {
				t.Errorf("tenant %q landed %d of %d cells", ts.Name, ts.Landed, ts.Cells)
			}
		}

		again, err := open(opts)
		if err != nil {
			t.Fatalf("second open of a journal the first accepted: %v", err)
		}
		defer again.journal.Close()
		if d := again.healthResult().Digest; d != digest {
			t.Fatalf("second open reports digest %s, the first %s", d, digest)
		}
	})
}
