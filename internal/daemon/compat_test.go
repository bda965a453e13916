package daemon

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"

	"cash/internal/supervise"
)

// cashd1Fixture is a cashd/1 journal written by the daemon before its
// executor became fleet's steppable core: tenants alpha (6 cells), beta
// (4) and gamma (5) were submitted, and the daemon was killed with 6
// cells landed and 9 still pending or running.
const cashd1Fixture = "testdata/cashd1-journal.jsonl"

// TestResumesCashd1Journal pins journal compatibility: a daemon
// restarted on the fixture finishes the pending cells and reaches the
// health digest and per-tenant books the pre-merge daemon reached from
// the same journal, and the compacted journal it leaves behind carries
// the fixture's landed-cell records byte for byte.
func TestResumesCashd1Journal(t *testing.T) {
	fixture, err := os.ReadFile(cashd1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	opts := testOptions(t)
	if err := os.WriteFile(opts.Journal, fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := Start(opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Kill()
	cl := dialRaw(t, opts.Socket)

	resp := cl.call(MethodSubmit, "idem-b", TenantSpec{Name: "beta", Cells: 4, Seed: 22})
	var ack SubmitResult
	if err := json.Unmarshal(resp.Result, &ack); err != nil || resp.Code != CodeOK {
		t.Fatalf("resubmit: %s %s (%v)", resp.Code, resp.Error, err)
	}
	if want := (SubmitResult{Name: "beta", Cells: 4, EstimateNanos: 199169, Resubmitted: true}); ack != want {
		t.Fatalf("resubmit ack %+v, want %+v", ack, want)
	}

	h := cl.waitLanded(15)
	const wantDigest, wantConsumed = "e6c56bba76f22c2b", 743010
	if h.Digest != wantDigest || h.ConsumedNanos != wantConsumed {
		t.Fatalf("health digest %s consumed %d, want %s and %d", h.Digest, h.ConsumedNanos, wantDigest, wantConsumed)
	}
	resp = cl.call(MethodSpend, "", nil)
	var spend SpendResult
	if err := json.Unmarshal(resp.Result, &spend); err != nil {
		t.Fatalf("spend decode: %v", err)
	}
	want := SpendResult{
		RootGranted: 796861, RootConsumed: 743010, RootRefunded: 53851,
		Tenants: []TenantSpend{
			{Name: "alpha", Granted: 277705, Consumed: 269171, Refunded: 8534, Landed: 6, Cells: 6},
			{Name: "beta", Granted: 210155, Consumed: 199169, Refunded: 10986, Landed: 4, Cells: 4},
			{Name: "gamma", Granted: 309001, Consumed: 274670, Refunded: 34331, Landed: 5, Cells: 5},
		},
	}
	if !reflect.DeepEqual(spend, want) {
		t.Fatalf("books:\n got %#v\nwant %#v", spend, want)
	}

	if resp := cl.call(MethodDrain, "", nil); resp.Code != CodeOK {
		t.Fatalf("drain: %s %s", resp.Code, resp.Error)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("daemon exited dirty: %v", err)
	}
	compacted, err := os.ReadFile(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, line := range bytes.Split(compacted, []byte("\n")) {
		kept[string(line)] = true
	}
	landed := 0
	for _, line := range bytes.Split(fixture, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"key":"`+cellKeyPrefix)) {
			continue
		}
		landed++
		if !kept[string(line)] {
			t.Errorf("compacted journal rewrote landed cell record %s", line)
		}
	}
	if landed != 6 {
		t.Fatalf("fixture holds %d landed cells, want 6", landed)
	}
	if n := bytes.Count(compacted, []byte(`"key":"`+cellKeyPrefix)); n != 15 {
		t.Fatalf("compacted journal holds %d cell records, want 15", n)
	}
}

// TestRebuildRejectsUnclaimedCellRecords: a cell record whose tenant
// was never admitted means the journal is not one this daemon wrote,
// and restarting on it must fail rather than drop the record's spend.
func TestRebuildRejectsUnclaimedCellRecords(t *testing.T) {
	opts := testOptions(t)
	j, err := supervise.OpenJournal(opts.Journal, journalMeta, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []supervise.Entry{
		{Status: supervise.StatusOK, Key: submitKeyPrefix + "k", Value: []byte(`{"spec":{"name":"real","cells":2,"seed":1}}`)},
		{Status: supervise.StatusOK, Key: cellKey("real", 5), Value: []byte(`{"value":"x","consumed":1}`)},
	} {
		if err := j.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if srv, err := Start(opts); err == nil {
		srv.Kill()
		t.Fatal("restarted on a journal with a cell record outside every admitted tenant")
	}
}

// TestStartRefusesDamagedJournalHeader: a flipped byte in the header
// of the fixture must not cost its acked submits and landed cells.
// Start fails with the journal's error, and the file is left as it
// was for an operator to repair.
func TestStartRefusesDamagedJournalHeader(t *testing.T) {
	fixture, err := os.ReadFile(cashd1Fixture)
	if err != nil {
		t.Fatal(err)
	}
	damaged := bytes.Replace(fixture, []byte(`"`+journalMeta+`"`), []byte(`"Cashd/1"`), 1)
	if bytes.Equal(damaged, fixture) {
		t.Fatal("test setup: header not found")
	}
	opts := testOptions(t)
	if err := os.WriteFile(opts.Journal, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := Start(opts)
	if err == nil {
		srv.Kill()
		t.Fatal("started on a journal whose header is damaged")
	}
	var re *supervise.ResumeError
	if !errors.As(err, &re) || re.Path != opts.Journal {
		t.Fatalf("Start: %v, want the journal's ResumeError for %s", err, opts.Journal)
	}
	if after, err := os.ReadFile(opts.Journal); err != nil || !bytes.Equal(after, damaged) {
		t.Fatalf("a refused start changed the journal: %d bytes left of %d (%v)", len(after), len(damaged), err)
	}
}
