package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"testing"

	"cash/internal/supervise"
)

// FuzzRebuild fuzzes the journal lines behind a valid cashd/1 header.
// Every line that decodes as a journal entry is written as the journal
// writes it, with a valid checksum, but for a line that carries a sum
// that does not hold, which is written as it is; the rest are dropped.
// With such a line, open must refuse the journal with a ResumeError
// and leave the file as it was. Otherwise open must refuse the journal
// or rebuild books that reconcile: every envelope has granted =
// consumed + refunded with nothing outstanding, no tenant has more
// landed cells than cells, and a second open of the same file reports
// the same health digest. The committed corpus holds journals in
// arrival order, which the loader sorts, and in key order, which it
// does not.
func FuzzRebuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, lines []byte) {
		opts := testOptions(t)
		journal := journalLine(supervise.Entry{Status: supervise.StatusMeta, Meta: journalMeta})
		corrupt := false
		for _, line := range bytes.Split(lines, []byte("\n")) {
			var e supervise.Entry
			if json.Unmarshal(line, &e) != nil {
				continue
			}
			if sum := e.Sum; sum != "" && sum != checksum(e) {
				corrupt = true
				journal = append(append(journal, line...), '\n')
				continue
			}
			journal = append(journal, journalLine(e)...)
		}
		if err := os.WriteFile(opts.Journal, journal, 0o644); err != nil {
			t.Fatal(err)
		}

		s, err := open(opts)
		if corrupt {
			var re *supervise.ResumeError
			if after, rerr := os.ReadFile(opts.Journal); !errors.As(err, &re) || rerr != nil || !bytes.Equal(after, journal) {
				t.Fatalf("open of a journal with a corrupt line: %v, want a ResumeError and the file untouched", err)
			}
			return
		}
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

// checksum is the checksum the journal stamps on e: the CRC32 of e
// marshalled without its Sum.
func checksum(e supervise.Entry) string {
	e.Sum = ""
	b, _ := json.Marshal(e) // an entry json.Unmarshal read marshals
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(b))
}

// journalLine is the line the journal writes for e: e marshalled with
// its checksum, which the journal's codec writes byte for byte.
func journalLine(e supervise.Entry) []byte {
	e.Sum = checksum(e)
	b, _ := json.Marshal(e)
	return append(b, '\n')
}

// TestRecordCodecMatchesEncodingJSON: the daemon's journal records
// encode to the bytes json.Marshal gives, and decode, in the daemon's
// own form or any other, to what json.Unmarshal reads.
func TestRecordCodecMatchesEncodingJSON(t *testing.T) {
	for _, spec := range []TenantSpec{
		{Name: "alpha", Cells: 6, Seed: 11},
		{Name: "", Cells: 0, Seed: 0},
		{Name: "<b>&\"\\  é\x01\xff", Cells: -4096, Seed: 1<<64 - 1},
	} {
		rec := submitRecord{Spec: spec}
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.encode(); !bytes.Equal(got, want) {
			t.Errorf("submit record %+v encodes as %s, json.Marshal gives %s", spec, got, want)
		}
		var ref submitRecord
		_ = json.Unmarshal(want, &ref) // invalid UTF-8 reads back as U+FFFD
		if got, err := decodeSubmit(want); err != nil || got != ref {
			t.Errorf("submit record %s decodes as %+v (%v), want %+v", want, got, err, ref)
		}
	}
	for _, rec := range []cellRecord{
		{Value: "synth 136bf7491fa30bc2", Consumed: 37668},
		{Value: "", Consumed: -1 << 63},
		{Value: "<\t>", Consumed: 0},
	} {
		want, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.encode(); !bytes.Equal(got, want) {
			t.Errorf("cell record %+v encodes as %s, json.Marshal gives %s", rec, got, want)
		}
		if got, err := decodeCell(want); err != nil || got != rec {
			t.Errorf("cell record %s decodes as %+v (%v)", want, got, err)
		}
	}
	for _, v := range []string{
		`{"spec":{"seed":3,"cells":2,"name":"b"}}`,
		`{"spec":{"name":"b","cells":2,"seed":3},"extra":1}`,
		`{"SPEC":{"Name":"b","cells":2.0e0,"seed":3}}`,
		`{"spec":{"name":"b","cells":02,"seed":3}}`,
		`{"spec":{"name":"b","cells":-0,"seed":3}}`,
		`{"spec":{"name":"b","cells":2,"seed":18446744073709551616}}`,
		`{"spec":{"name":"b","cells":9223372036854775808,"seed":3}}`,
		`{"spec":{"name":"b","cells":2,"seed":-3}}`,
		`{"spec":{"name":"b","cells":2,"seed":3}} `,
	} {
		var want submitRecord
		werr := json.Unmarshal([]byte(v), &want)
		got, err := decodeSubmit([]byte(v))
		if (err != nil) != (werr != nil) || (err == nil && got != want) {
			t.Errorf("submit record %s decodes as %+v (%v), json.Unmarshal reads %+v (%v)", v, got, err, want, werr)
		}
	}
	for _, v := range []string{
		`{"consumed":5,"value":"x"}`,
		`{"value":"x","consumed":5.5}`,
		`{"value":"x\u0041","consumed":5}`,
		`{"value":"x","consumed":-9223372036854775808}`,
		`{"value":"x","consumed":-9223372036854775809}`,
	} {
		var want cellRecord
		werr := json.Unmarshal([]byte(v), &want)
		got, err := decodeCell([]byte(v))
		if (err != nil) != (werr != nil) || (err == nil && got != want) {
			t.Errorf("cell record %s decodes as %+v (%v), json.Unmarshal reads %+v (%v)", v, got, err, want, werr)
		}
	}
}
