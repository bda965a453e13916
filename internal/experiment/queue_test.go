package experiment

import (
	"math/rand"
	"testing"

	"cash/internal/alloc"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// TestReqRingProperty drives the ring queue with random arrival bursts
// against a reference FIFO, in both bounded and unbounded modes: every
// admitted request must be served exactly once, in order, and bounded
// mode must reject exactly the pushes that would exceed the cap.
func TestReqRingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		capN := 0
		if trial%2 == 1 {
			capN = 1 + rng.Intn(64)
		}
		q := newReqRing(capN)
		var model []int64 // reference FIFO of arrival ids
		served := make(map[int64]int)
		nextID := int64(0)
		admitted := int64(0)

		check := func() {
			if q.len() != len(model) {
				t.Fatalf("len %d, model %d", q.len(), len(model))
			}
			if capN > 0 && q.storageLen() > capN {
				t.Fatalf("bounded ring grew storage to %d past cap %d", q.storageLen(), capN)
			}
			if !q.empty() && q.front().arrival != model[0] {
				t.Fatalf("front %d, model front %d", q.front().arrival, model[0])
			}
		}

		for op := 0; op < 5000; op++ {
			if burst := rng.Intn(4); rng.Float64() < 0.45 {
				// A burst of arrivals.
				for i := 0; i <= burst; i++ {
					ok := q.push(request{arrival: nextID, remaining: 1})
					if wantOK := capN == 0 || len(model) < capN; ok != wantOK {
						t.Fatalf("push accepted=%v with %d queued, cap %d", ok, len(model), capN)
					}
					if ok {
						model = append(model, nextID)
						admitted++
					}
					nextID++
				}
			} else if !q.empty() {
				// Serve the front request.
				id := q.front().arrival
				q.pop()
				served[id]++
				if served[id] > 1 {
					t.Fatalf("request %d served twice", id)
				}
				if model[0] != id {
					t.Fatalf("served %d out of order (expected %d)", id, model[0])
				}
				model = model[1:]
			}
			check()
		}
		// Drain: everything still queued must come out once, in order.
		for !q.empty() {
			id := q.front().arrival
			q.pop()
			served[id]++
			if served[id] > 1 {
				t.Fatalf("request %d served twice during drain", id)
			}
			if model[0] != id {
				t.Fatalf("drained %d out of order", id)
			}
			model = model[1:]
			check()
		}
		if int64(len(served)) != admitted {
			t.Fatalf("served %d distinct requests, admitted %d", len(served), admitted)
		}
	}
}

// TestReqRingBounded: a bounded ring's backing storage must never
// exceed the cap, and a full ring must shed (reject) pushes while
// continuing to serve in order.
func TestReqRingBounded(t *testing.T) {
	const capN = 32
	q := newReqRing(capN)
	for i := 0; i < capN; i++ {
		if !q.push(request{arrival: int64(i), remaining: 1}) {
			t.Fatalf("push %d rejected below cap", i)
		}
	}
	if !q.full() {
		t.Fatal("ring not full at cap")
	}
	// 10x the cap in overflow arrivals: all must shed, storage must hold.
	for i := 0; i < 10*capN; i++ {
		if q.push(request{arrival: int64(capN + i), remaining: 1}) {
			t.Fatalf("push accepted at cap (i=%d)", i)
		}
		if q.storageLen() > capN {
			t.Fatalf("storage %d exceeded cap %d", q.storageLen(), capN)
		}
	}
	// Pop one, push one — the ring must wrap without growing.
	for i := 0; i < 5*capN; i++ {
		want := int64(i)
		if got := q.front().arrival; got != want {
			t.Fatalf("front %d, want %d", got, want)
		}
		q.pop()
		if !q.push(request{arrival: int64(capN + i), remaining: 1}) {
			t.Fatalf("push rejected with a free slot (i=%d)", i)
		}
		if q.storageLen() > capN {
			t.Fatalf("storage %d exceeded cap %d after wrap", q.storageLen(), capN)
		}
	}
}

// TestReqRingUnboundedGrows: unbounded mode keeps accepting and keeps
// FIFO order across growth re-linearizations.
func TestReqRingUnboundedGrows(t *testing.T) {
	q := newReqRing(0)
	n := 10_000
	for i := 0; i < n; i++ {
		if !q.push(request{arrival: int64(i), remaining: 1}) {
			t.Fatalf("unbounded push %d rejected", i)
		}
	}
	for i := 0; i < n; i++ {
		if got := q.front().arrival; got != int64(i) {
			t.Fatalf("front = %d, want %d", got, i)
		}
		q.pop()
	}
	if !q.empty() {
		t.Fatal("queue not empty after full drain")
	}
}

// TestRunServerHorizonIdleCap: with an almost-silent request stream the
// empty-queue idle jump must stop at the horizon instead of chasing a
// far-future arrival past it.
func TestRunServerHorizonIdleCap(t *testing.T) {
	stream := &workload.RequestStream{
		BaseRate:         0.0001, // one arrival per ~10G cycles
		Amplitude:        0,
		PeriodMCycles:    1,
		InstrsPerRequest: 1000,
	}
	opts := ServerOpts{
		Arrivals:            stream,
		TargetLatencyCycles: 110_000,
		Horizon:             2_000_000,
	}
	res, err := RunServer(alloc.Static{Cfg: vcore.Config{Slices: 2, L2KB: 128}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Samples {
		if s.Cycle > opts.Horizon+200_000 {
			t.Errorf("sample at cycle %d long past horizon %d", s.Cycle, opts.Horizon)
		}
	}
	if res.Served != 0 {
		t.Errorf("served %d requests from a silent stream", res.Served)
	}
}
