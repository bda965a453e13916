package daemon

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"cash/internal/fleet"
)

// answerTenants is how many tenants the read benchmarks hold on the
// books: about as many as cashd-mixed's reads see by the end of a pass.
const answerTenants = 1200

// answerCore opens a core holding answerTenants tenants whose 4 cells
// have all landed, re-booked as rebuild re-books them, and a
// connection whose outbound queue the benchmark drains itself.
func answerCore(b *testing.B) (*Server, *connState) {
	dir := b.TempDir()
	s, err := open(Options{
		Socket:  filepath.Join(dir, "cashd.sock"),
		Journal: filepath.Join(dir, "journal.jsonl"),
		Epoch:   time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.journal.Close() })
	for i := 0; i < answerTenants; i++ {
		spec := TenantSpec{Name: fmt.Sprintf("p%05d", i), Cells: 4, Seed: uint64(i)}
		done := make([]fleet.Landing, spec.Cells)
		for c := range done {
			done[c] = fleet.Landing{Cell: c, Value: fmt.Sprintf("synth %016x", uint64(4*i+c)*0x9e3779b97f4a7c15),
				Consumed: int64(36_000 + 7*i + c)}
		}
		if err := s.admit(spec, done); err != nil {
			b.Fatal(err)
		}
	}
	return s, &connState{srv: s, out: make(chan reply, 1), quit: make(chan struct{})}
}

// benchAnswer times what the core spends on one read of method: from
// handling the request to queueing its reply for the writer.
func benchAnswer(b *testing.B, method string) {
	s, c := answerCore(b)
	req := coreReq{req: Request{ID: 1, Method: method}, c: c}
	answer := func() {
		s.handle(req)
		if r := <-c.out; r.frame == nil && r.health == nil {
			b.Fatal("no reply queued")
		}
	}
	// One warm-up answer builds the digest segments and sizes the spend
	// buffer, so B/op counts only what recurs per answer. As in the
	// client's BenchmarkSpendDecode, the timed answers run at a GOGC
	// that collects rarely and on one processor, so that neither the
	// collector's own allocations nor a new OS thread's land among them.
	answer()
	defer debug.SetGCPercent(debug.SetGCPercent(2000))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		answer()
	}
}

// BenchmarkSpendAnswer measures the core's share of a query-spend
// answer: writing the whole frame.
func BenchmarkSpendAnswer(b *testing.B) { benchAnswer(b, MethodSpend) }

// BenchmarkHealthAnswer measures the core's share of a health answer:
// checking every tenant's digest segment and taking the snapshot the
// connection's writer hashes.
func BenchmarkHealthAnswer(b *testing.B) { benchAnswer(b, MethodHealth) }
