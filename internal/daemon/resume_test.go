package daemon

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cash/internal/supervise"
)

// TestStartRefusesCorruptRecord: one changed byte inside an acked
// submit record fails that line's checksum. The tenant has no landed
// cell yet, so nothing else in the journal points at it; skipping the
// line would drop the tenant and its ack without a word. Start must
// refuse with a ResumeError that names the file and the line's offset,
// and leave the file as it was.
func TestStartRefusesCorruptRecord(t *testing.T) {
	opts := testOptions(t)
	s := openCore(t, opts)
	c := testConn(t, s)
	submit(t, s, c, "idem-a", TenantSpec{Name: "alpha", Cells: 3, Seed: 1})
	submit(t, s, c, "idem-b", TenantSpec{Name: "beta", Cells: 2, Seed: 2})
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.IndexByte(raw, '\n') + 1 // alpha's submit follows the header
	damaged := bytes.Replace(raw, []byte(`"alpha"`), []byte(`"alphA"`), 1)
	if bytes.Equal(damaged, raw) || !bytes.HasPrefix(damaged[at:], []byte(`{"status":"ok","key":"submit idem-a"`)) {
		t.Fatalf("test setup: alpha's submit not found after the header in\n%s", raw)
	}
	if err := os.WriteFile(opts.Journal, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := Start(opts)
	if err == nil {
		tenants := len(srv.tenants)
		srv.Kill()
		t.Fatalf("started with %d tenants on a journal whose first submit fails its checksum", tenants)
	}
	var re *supervise.ResumeError
	if !errors.As(err, &re) || re.Path != opts.Journal || !strings.Contains(re.Reason, fmt.Sprintf("byte %d ", at)) {
		t.Fatalf("Start: %v, want the ResumeError for %s naming byte %d", err, opts.Journal, at)
	}
	if after, err := os.ReadFile(opts.Journal); err != nil || !bytes.Equal(after, damaged) {
		t.Fatalf("a refused start changed the journal: %d bytes left of %d (%v)", len(after), len(damaged), err)
	}
}

// TestRebuildFromArrivalOrder: a journal in arrival order, whose submit
// keys are unsorted, whose cells land between submits and which ends in
// a torn tail, rebuilds the books, the health digest and the acks that
// the same journal rebuilds after Compact. The digest is the one the
// daemon held before it stopped, and a retried submit is answered with
// the ack it was answered with before the restart, byte for byte.
func TestRebuildFromArrivalOrder(t *testing.T) {
	opts := testOptions(t)
	opts.Chips, opts.SlotsPerChip = 2, 2
	s := openCore(t, opts)
	c := testConn(t, s)
	specs := map[string]TenantSpec{
		"zulu":  {Name: "zulu", Cells: 5, Seed: 26},
		"mike":  {Name: "mike", Cells: 3, Seed: 13},
		"alpha": {Name: "alpha", Cells: 4, Seed: 1},
		"kilo":  {Name: "kilo", Cells: 2, Seed: 11},
	}
	order := []string{"zulu", "mike", "alpha", "kilo"}
	for i, idem := range order {
		submit(t, s, c, idem, specs[idem])
		// Land some cells before the next submit; leave the last
		// tenant's pending.
		for step, landed := 0, s.fleet.Landed(); i < len(order)-1 && s.fleet.Landed() < landed+2; step++ {
			if step > 1000 {
				t.Fatalf("stalled at %d/%d cells", s.fleet.Landed(), s.fleet.Cells())
			}
			if _, _, err := s.fleet.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s.fleet.Landed() == 0 || s.fleet.Pending() == 0 {
		t.Fatalf("test setup: %d cells landed, %d pending; want some of each", s.fleet.Landed(), s.fleet.Pending())
	}
	// retry resubmits every tenant under its key and returns the frames.
	retry := func(s *Server) map[string][]byte {
		c := testConn(t, s)
		acks := map[string][]byte{}
		for _, idem := range order {
			params := fmt.Appendf(nil, `{"name":%q,"cells":%d,"seed":%d}`, idem, specs[idem].Cells, specs[idem].Seed)
			s.handleSubmit(coreReq{req: Request{ID: 7, Method: MethodSubmit, Idem: idem, Params: params}, c: c})
			acks[idem] = nextFrame(t, c)
		}
		return acks
	}
	wantAcks, wantDigest := retry(s), s.healthResult().Digest
	if err := s.journal.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range bytes.Split(raw, []byte("\n"))[1:] {
		if k := bytes.Index(line, []byte(`"key":"`)); k >= 0 {
			keys = append(keys, string(line[k+7:k+7+bytes.IndexByte(line[k+7:], '"')]))
		}
	}
	if slices.IsSorted(keys) || !strings.HasPrefix(keys[1], cellKeyPrefix) {
		t.Fatalf("test setup: journal keys %q are sorted, or no cell lands between the first submits", keys)
	}
	torn := append(slices.Clone(raw), `{"status":"ok","key":"cell kilo c0000","val`...)
	arrival, compacted := opts, testOptions(t)
	compacted.Chips, compacted.SlotsPerChip = opts.Chips, opts.SlotsPerChip
	for _, path := range []string{arrival.Journal, compacted.Journal} {
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, err := supervise.OpenJournal(compacted.Journal, journalMeta, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var books []SpendResult
	for _, o := range []Options{arrival, compacted} {
		s := openCore(t, o)
		books = append(books, s.spendResult())
		digest := s.healthResult().Digest
		acks := retry(s)
		s.journal.Close()
		if digest != wantDigest {
			t.Errorf("journal %s rebuilds digest %s, before the restart %s", o.Journal, digest, wantDigest)
		}
		for _, idem := range order {
			if !bytes.Equal(acks[idem], wantAcks[idem]) {
				t.Errorf("journal %s: retried submit %q acks %q, before the restart %q", o.Journal, idem, acks[idem], wantAcks[idem])
			}
		}
	}
	if !reflect.DeepEqual(books[0], books[1]) {
		t.Errorf("the journal in arrival order rebuilds books\n%+v\nand compacted\n%+v", books[0], books[1])
	}
}
