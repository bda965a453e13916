package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cash/internal/cost"
	"cash/internal/supervise"
)

func testOptions(t *testing.T) Options {
	t.Helper()
	dir := t.TempDir()
	return Options{
		Socket:  filepath.Join(dir, "cashd.sock"),
		Journal: filepath.Join(dir, "journal.jsonl"),
		Epoch:   time.Millisecond,
	}
}

// rawClient is a no-retry wire client for exercising the protocol
// directly (the retrying client has its own package and tests).
type rawClient struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
	id   uint64
}

func dialRaw(t *testing.T, socket string) *rawClient {
	t.Helper()
	var conn net.Conn
	var err error
	for i := 0; i < 50; i++ {
		conn, err = net.DialTimeout("unix", socket, time.Second)
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("dialing %s: %v", socket, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClient{t: t, conn: conn, br: bufio.NewReader(conn)}
}

func (c *rawClient) call(method, idem string, params any) Response {
	c.t.Helper()
	c.id++
	var raw json.RawMessage
	if params != nil {
		b, err := json.Marshal(params)
		if err != nil {
			c.t.Fatalf("marshal params: %v", err)
		}
		raw = b
	}
	c.conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(c.conn, Request{ID: c.id, Method: method, Idem: idem, Params: raw}); err != nil {
		c.t.Fatalf("write %s: %v", method, err)
	}
	for {
		var resp Response
		if err := ReadFrame(c.br, &resp); err != nil {
			c.t.Fatalf("read %s reply: %v", method, err)
		}
		if resp.ID == c.id && !resp.Event {
			return resp
		}
	}
}

func (c *rawClient) health() HealthResult {
	c.t.Helper()
	resp := c.call(MethodHealth, "", nil)
	if resp.Code != CodeOK {
		c.t.Fatalf("health: %s %s", resp.Code, resp.Error)
	}
	var h HealthResult
	if err := json.Unmarshal(resp.Result, &h); err != nil {
		c.t.Fatalf("health decode: %v", err)
	}
	return h
}

func (c *rawClient) waitLanded(target int) HealthResult {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := c.health()
		if h.CellsLanded >= target {
			return h
		}
		if time.Now().After(deadline) {
			c.t.Fatalf("stalled at %d/%d cells landed", h.CellsLanded, target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDaemonSubmitExecuteDrain(t *testing.T) {
	opts := testOptions(t)
	srv, err := Start(opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Kill()

	cl := dialRaw(t, opts.Socket)
	spec := TenantSpec{Name: "acme", Cells: 5, Seed: 42}
	resp := cl.call(MethodSubmit, "idem-1", spec)
	if resp.Code != CodeOK {
		t.Fatalf("submit: %s %s", resp.Code, resp.Error)
	}
	var ack SubmitResult
	if err := json.Unmarshal(resp.Result, &ack); err != nil {
		t.Fatalf("ack decode: %v", err)
	}
	if ack.Name != "acme" || ack.Cells != 5 || ack.Resubmitted {
		t.Fatalf("bad ack: %+v", ack)
	}
	if want := int64(ExpectedSpend(spec, cost.Default())); ack.EstimateNanos != want {
		t.Fatalf("estimate %d, want %d", ack.EstimateNanos, want)
	}

	// Duplicate under the same key acks the original, applies nothing.
	resp = cl.call(MethodSubmit, "idem-1", spec)
	if resp.Code != CodeOK {
		t.Fatalf("duplicate submit: %s %s", resp.Code, resp.Error)
	}
	if err := json.Unmarshal(resp.Result, &ack); err != nil || !ack.Resubmitted {
		t.Fatalf("duplicate submit not deduped: %+v err=%v", ack, err)
	}

	h := cl.waitLanded(5)
	if h.Tenants != 1 || h.CellsTotal != 5 {
		t.Fatalf("health after dedup: %+v", h)
	}
	if want := int64(ExpectedSpend(spec, cost.Default())); h.ConsumedNanos != want {
		t.Fatalf("consumed %d nanos, want %d", h.ConsumedNanos, want)
	}

	// Spend reconciles: granted = consumed + refunded, nothing open.
	resp = cl.call(MethodSpend, "", nil)
	var spend SpendResult
	if err := json.Unmarshal(resp.Result, &spend); err != nil {
		t.Fatalf("spend decode: %v", err)
	}
	if len(spend.Tenants) != 1 {
		t.Fatalf("spend tenants: %+v", spend)
	}
	ts := spend.Tenants[0]
	if ts.Outstanding != 0 || ts.Granted != ts.Consumed+ts.Refunded || ts.Consumed != h.ConsumedNanos {
		t.Fatalf("spend unreconciled: %+v", ts)
	}

	resp = cl.call(MethodDrain, "", nil)
	if resp.Code != CodeOK {
		t.Fatalf("drain: %s %s", resp.Code, resp.Error)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("daemon exited dirty: %v", err)
	}
	if _, err := os.Stat(opts.Socket); !os.IsNotExist(err) {
		t.Fatalf("socket not removed after drain: %v", err)
	}
}

func TestDaemonCrashResumeMatchesCleanRun(t *testing.T) {
	opts := testOptions(t)
	spec := TenantSpec{Name: "crashy", Cells: 12, Seed: 77}

	srv, err := Start(opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	cl := dialRaw(t, opts.Socket)
	if resp := cl.call(MethodSubmit, "k", spec); resp.Code != CodeOK {
		t.Fatalf("submit: %s %s", resp.Code, resp.Error)
	}
	cl.waitLanded(3) // some, not all
	srv.Kill()

	// Restart on the same journal: admitted tenant survives, landed
	// cells are not re-executed (their spend is booked once), the rest
	// complete.
	srv2, err := Start(opts)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer srv2.Kill()
	cl2 := dialRaw(t, opts.Socket)

	resp := cl2.call(MethodSubmit, "k", spec)
	var ack SubmitResult
	if resp.Code != CodeOK {
		t.Fatalf("post-crash submit: %s %s", resp.Code, resp.Error)
	}
	if err := json.Unmarshal(resp.Result, &ack); err != nil || !ack.Resubmitted {
		t.Fatalf("journal lost the submit across the crash: %+v err=%v", ack, err)
	}

	h := cl2.waitLanded(spec.Cells)
	if want := int64(ExpectedSpend(spec, cost.Default())); h.ConsumedNanos != want {
		t.Fatalf("spend after crash %d nanos, want %d (double execution?)", h.ConsumedNanos, want)
	}

	// An uninterrupted run of the same spec lands on the same digest.
	cleanOpts := testOptions(t)
	clean, err := Start(cleanOpts)
	if err != nil {
		t.Fatalf("clean start: %v", err)
	}
	defer clean.Kill()
	cl3 := dialRaw(t, cleanOpts.Socket)
	if resp := cl3.call(MethodSubmit, "k", spec); resp.Code != CodeOK {
		t.Fatalf("clean submit: %s %s", resp.Code, resp.Error)
	}
	hc := cl3.waitLanded(spec.Cells)
	if hc.Digest != h.Digest {
		t.Fatalf("crash-resumed digest %s != clean digest %s", h.Digest, hc.Digest)
	}
}

// TestDaemonPlacesThroughFleetCore steps the daemon one epoch on a fake
// clock: the fleet core places the cells on the chips with the most
// free slots, and they start executing on the next epoch.
func TestDaemonPlacesThroughFleetCore(t *testing.T) {
	clock := supervise.NewFakeClock()
	opts := testOptions(t)
	opts.Clock, opts.Epoch = clock, time.Second
	srv, err := Start(opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Kill()
	cl := dialRaw(t, opts.Socket)
	if resp := cl.call(MethodSubmit, "k", TenantSpec{Name: "spread", Cells: 3, Seed: 9}); resp.Code != CodeOK {
		t.Fatalf("submit: %s %s", resp.Code, resp.Error)
	}
	clock.BlockUntil(1)
	clock.Advance(time.Second)
	for cl.health().Tick < 1 {
		time.Sleep(time.Millisecond)
	}
	resp := cl.call(MethodAlloc, "", nil)
	var alloc AllocResult
	if err := json.Unmarshal(resp.Result, &alloc); err != nil {
		t.Fatalf("alloc decode: %v", err)
	}
	work := specWork(TenantSpec{Name: "spread", Cells: 3, Seed: 9})
	if alloc.Tick != 1 || alloc.Pending != 0 || len(alloc.Running) != 3 {
		t.Fatalf("after one epoch: %+v", alloc)
	}
	for i, r := range alloc.Running {
		if r.Cell != i || r.Chip != i || r.Remaining != work.Duration(0, i) {
			t.Errorf("cell %d: %+v, want chip %d with all %d ticks to run", i, r, i, work.Duration(0, i))
		}
	}
}

// TestTicksKeepTheirDeadlines delivers epoch ticks late on a fake
// clock: the next tick is armed from the missed deadline, not from the
// late delivery, so lateness does not drift the schedule, and the
// deadlines that passed while a tick was late are dropped, not fired
// as a burst.
func TestTicksKeepTheirDeadlines(t *testing.T) {
	clock := supervise.NewFakeClock()
	opts := testOptions(t)
	opts.Clock, opts.Epoch = clock, time.Second
	srv, err := Start(opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Kill()
	cl := dialRaw(t, opts.Socket)
	steps := []struct {
		advance time.Duration
		tick    int64
		rearm   time.Duration
	}{
		{1300 * time.Millisecond, 1, 700 * time.Millisecond}, // 300ms late: next due at 2s
		{700 * time.Millisecond, 2, time.Second},             // on time
		{3500 * time.Millisecond, 3, 500 * time.Millisecond}, // 2.5s late: 3s and 4s dropped, next at 6s
		{500 * time.Millisecond, 4, time.Second},
	}
	for _, st := range steps {
		clock.BlockUntil(1)
		clock.Advance(st.advance)
		for cl.health().Tick < st.tick {
			time.Sleep(time.Millisecond)
		}
		req := clock.Requested()
		if got := cl.health().Tick; got != st.tick {
			t.Fatalf("after advancing %v: tick %d, want %d", st.advance, got, st.tick)
		}
		if got := req[len(req)-1]; got != st.rearm {
			t.Fatalf("tick %d re-armed for %v, want %v", st.tick, got, st.rearm)
		}
	}
}

func TestDaemonRejections(t *testing.T) {
	opts := testOptions(t)
	srv, err := Start(opts)
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Kill()
	cl := dialRaw(t, opts.Socket)

	if resp := cl.call(MethodSubmit, "", TenantSpec{Name: "x", Cells: 1}); resp.Code != CodeBadRequest {
		t.Errorf("submit without idem: got %s, want BAD_REQUEST", resp.Code)
	}
	if resp := cl.call(MethodSubmit, "a", TenantSpec{Name: "bad name", Cells: 1}); resp.Code != CodeBadRequest {
		t.Errorf("whitespace name: got %s, want BAD_REQUEST", resp.Code)
	}
	if resp := cl.call(MethodSubmit, "b", TenantSpec{Name: "x", Cells: 0}); resp.Code != CodeBadRequest {
		t.Errorf("zero cells: got %s, want BAD_REQUEST", resp.Code)
	}
	if resp := cl.call("made-up", "", nil); resp.Code != CodeBadRequest {
		t.Errorf("unknown method: got %s, want BAD_REQUEST", resp.Code)
	}
	if resp := cl.call(MethodSubmit, "c", TenantSpec{Name: "x", Cells: 1, Seed: 1}); resp.Code != CodeOK {
		t.Fatalf("submit: %s %s", resp.Code, resp.Error)
	}
	if resp := cl.call(MethodSubmit, "d", TenantSpec{Name: "x", Cells: 2, Seed: 2}); resp.Code != CodeBadRequest {
		t.Errorf("name conflict under a new key: got %s, want BAD_REQUEST", resp.Code)
	}

	if resp := cl.call(MethodDrain, "", nil); resp.Code != CodeOK {
		t.Fatalf("drain: %s %s", resp.Code, resp.Error)
	}
	if resp := cl.call(MethodSubmit, "e", TenantSpec{Name: "late", Cells: 1}); resp.Code != CodeDraining {
		t.Errorf("submit while draining: got %s, want DRAINING", resp.Code)
	}
}

// TestDaemonShedsAtQueueCapacity drives the readLoop shed branch
// deterministically: the core is never started, so the bounded queue
// fills and every request past capacity must bounce with RETRY_AFTER.
func TestDaemonShedsAtQueueCapacity(t *testing.T) {
	s := &Server{
		opts: Options{QueueCap: 2, Epoch: time.Millisecond}.withDefaults(),
		reqs: make(chan coreReq, 2),
	}
	s.conns = make(map[*connState]struct{})
	server, client := net.Pipe()
	defer server.Close()
	defer client.Close()
	c := &connState{srv: s, conn: server, out: make(chan reply, 64), quit: make(chan struct{})}
	s.conns[c] = struct{}{}
	go c.writeLoop()
	go c.readLoop()

	br := bufio.NewReader(client)
	for i := 1; i <= 5; i++ {
		if err := WriteFrame(client, Request{ID: uint64(i), Method: MethodHealth}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// The first two sit in the queue unanswered; 3..5 are shed.
	for i := 3; i <= 5; i++ {
		client.SetReadDeadline(time.Now().Add(2 * time.Second))
		var resp Response
		if err := ReadFrame(br, &resp); err != nil {
			t.Fatalf("reading shed reply %d: %v", i, err)
		}
		if resp.Code != CodeRetryAfter {
			t.Fatalf("reply %d: code %s, want RETRY_AFTER", i, resp.Code)
		}
		if resp.RetryAfterMs <= 0 {
			t.Fatalf("reply %d: no retry hint: %+v", i, resp)
		}
	}
	if got := s.shed.Load(); got != 3 {
		t.Fatalf("shed counter %d, want 3", got)
	}
}

// TestDaemonRefusesSubmitAfterDrainAck: a submit the core handles after
// acking a drain request is refused, even though the core has not
// selected drainCh in between. The core is never started; handle runs
// the two requests back to back, as the core does when both are
// queued.
func TestDaemonRefusesSubmitAfterDrainAck(t *testing.T) {
	opts := Options{Epoch: time.Millisecond}.withDefaults()
	s := &Server{opts: opts, clock: opts.Clock, drainCh: make(chan struct{})}
	c := &connState{srv: s, out: make(chan reply, 2), quit: make(chan struct{})}
	s.handle(coreReq{req: Request{ID: 1, Method: MethodDrain}, c: c})
	s.handle(coreReq{req: Request{ID: 2, Method: MethodSubmit}, c: c})
	for _, want := range []string{CodeOK, CodeDraining} {
		var resp Response
		if err := ReadFrame(bufio.NewReader(bytes.NewReader((<-c.out).bytes())), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Code != want {
			t.Fatalf("reply %d: code %s, want %s", resp.ID, resp.Code, want)
		}
	}
}

func TestListenUnixClearsStaleSocket(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stale.sock")
	// Manufacture a stale socket: bind, then close without unlinking.
	addr, err := net.ResolveUnixAddr("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.ListenUnix("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	ln.SetUnlinkOnClose(false)
	ln.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("stale socket missing: %v", err)
	}

	ln2, err := listenUnix(path)
	if err != nil {
		t.Fatalf("listenUnix did not clear the stale socket: %v", err)
	}
	ln2.Close()
}

func TestListenUnixRefusesLiveDaemon(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "live.sock")
	ln, err := net.Listen("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	if _, err := listenUnix(path); err == nil {
		t.Fatal("listenUnix bound over a live daemon's socket")
	}
}

func TestExpectedSpendMatchesEstimate(t *testing.T) {
	for seed := uint64(1); seed < 5; seed++ {
		spec := TenantSpec{Name: fmt.Sprintf("t%d", seed), Cells: 7, Seed: seed}
		if ExpectedSpend(spec, cost.Default()) <= 0 {
			t.Fatalf("seed %d: nonpositive expected spend", seed)
		}
	}
}
