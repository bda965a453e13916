package client

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cash/internal/daemon"
	"cash/internal/splitmix"
	"cash/internal/supervise"
)

// fakeServer answers raw frames on a unix socket with a scripted
// handler, standing in for cashd so client behavior is tested in
// isolation.
type fakeServer struct {
	t      *testing.T
	ln     net.Listener
	socket string
}

func newFakeServer(t *testing.T, handler func(conn net.Conn, req daemon.Request) bool) *fakeServer {
	t.Helper()
	socket := filepath.Join(t.TempDir(), "fake.sock")
	ln, err := net.Listen("unix", socket)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					var req daemon.Request
					if err := daemon.ReadFrame(br, &req); err != nil {
						return
					}
					if !handler(conn, req) {
						return
					}
				}
			}()
		}
	}()
	return &fakeServer{t: t, ln: ln, socket: socket}
}

func reply(conn net.Conn, resp daemon.Response) bool {
	return daemon.WriteFrame(conn, resp) == nil
}

func TestBackoffIsCappedExponentialWithJitter(t *testing.T) {
	c := &Client{opts: Options{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Seed:        1,
	}.withDefaults()}
	prevCap := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		nominal := c.opts.BaseBackoff << uint(attempt-1)
		if nominal > c.opts.MaxBackoff || nominal <= 0 {
			nominal = c.opts.MaxBackoff
		}
		d := c.backoff(attempt, 0)
		if d < nominal/2 || d > nominal {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v]", attempt, d, nominal/2, nominal)
		}
		if nominal < prevCap {
			t.Fatalf("attempt %d: nominal backoff shrank", attempt)
		}
		prevCap = nominal
	}
	// The server's RETRY_AFTER hint floors the wait.
	if d := c.backoff(1, 500); d < 500*time.Millisecond {
		t.Fatalf("hint ignored: %v", d)
	}
}

func TestBackoffScheduleIsDeterministicPerSeed(t *testing.T) {
	sched := func(seed uint64) []time.Duration {
		c := &Client{opts: Options{Seed: seed}.withDefaults(), jitter: splitmix.At(seed)}
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = c.backoff(i+1, 0)
		}
		return out
	}
	a, b := sched(42), sched(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v != %v", i+1, a[i], b[i])
		}
	}
	c := sched(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical jitter schedule")
	}
}

func TestRetryAfterIsRetriedOnFakeClock(t *testing.T) {
	var served atomic.Int64
	srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
		n := served.Add(1)
		if n <= 2 {
			return reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeRetryAfter, RetryAfterMs: 1})
		}
		return reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeOK})
	})
	clock := supervise.NewFakeClock()
	cl, err := Dial(Options{Socket: srv.socket, Clock: clock, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	done := make(chan error, 1)
	go func() { done <- cl.Call(daemon.MethodHealth, nil, nil) }()
	// Two sheds -> two backoff sleeps on the fake clock.
	for i := 0; i < 2; i++ {
		clock.BlockUntil(1)
		clock.Advance(time.Second)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("call after sheds: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not complete after advancing the clock")
	}
	if got := served.Load(); got != 3 {
		t.Fatalf("server saw %d attempts, want 3", got)
	}
}

func TestMutationWithoutKeyIsNotRetried(t *testing.T) {
	var served atomic.Int64
	srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
		served.Add(1)
		conn.Close() // sever before replying: outcome unknown to client
		return false
	})
	cl, err := Dial(Options{Socket: srv.socket, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	err = cl.Call(daemon.MethodSubmit, daemon.TenantSpec{Name: "x", Cells: 1}, nil)
	if err == nil {
		t.Fatal("keyless mutation with unknown outcome reported success")
	}
	if !strings.Contains(err.Error(), "not safe to retry") {
		t.Fatalf("error does not explain the no-retry decision: %v", err)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("keyless mutation was attempted %d times, want exactly 1", got)
	}
}

func TestMutationWithKeyIsRetried(t *testing.T) {
	var served atomic.Int64
	srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
		n := served.Add(1)
		if n == 1 {
			conn.Close()
			return false
		}
		if req.Idem != "key-9" {
			t.Errorf("retry lost the idempotency key: %+v", req)
		}
		return reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeOK, Result: []byte(`{"name":"x","cells":1}`)})
	})
	cl, err := Dial(Options{
		Socket: srv.socket, Timeout: time.Second,
		BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	res, err := cl.Submit("key-9", daemon.TenantSpec{Name: "x", Cells: 1, Seed: 3})
	if err != nil {
		t.Fatalf("keyed mutation did not survive a severed connection: %v", err)
	}
	if got := served.Load(); res.Name != "x" || got != 2 {
		t.Fatalf("res=%+v served=%d", res, got)
	}
}

func TestTerminalCodesAreNotRetried(t *testing.T) {
	for _, code := range []string{daemon.CodeBadRequest, daemon.CodeDraining, daemon.CodeError} {
		var served atomic.Int64
		srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
			served.Add(1)
			return reply(conn, daemon.Response{ID: req.ID, Code: code, Error: "nope"})
		})
		cl, err := Dial(Options{Socket: srv.socket, Timeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		err = cl.Call(daemon.MethodHealth, nil, nil)
		te, ok := err.(*TerminalError)
		if !ok || te.Code != code {
			t.Fatalf("code %s: got %v, want TerminalError", code, err)
		}
		if got := served.Load(); got != 1 {
			t.Fatalf("code %s: retried %d times", code, got)
		}
		cl.Close()
	}
}

// TestDuplicateResponsesAreDiscardedByID sends a wire-fault duplicate
// of a stale response and a stream event before each real reply: the
// client must decode the reply, whichever decoder reads it. The spend
// strays carry tenant rows the spend decoder could read, one with its
// "event" key after them.
func TestDuplicateResponsesAreDiscardedByID(t *testing.T) {
	spend := func(id uint64, name string, extra string) string {
		return fmt.Sprintf(`{"id":%d,"code":"OK","result":{"root_granted":9,"root_consumed":9,"root_refunded":0,`+
			`"root_outstanding":0,"tenants":[{"name":%q,"granted":9,"consumed":9,"refunded":0,"outstanding":0,"landed":1,"cells":1}]}%s}`,
			id, name, extra)
	}
	cases := []struct {
		name   string
		frames func(id uint64) []string
		check  func(t *testing.T, cl *Client)
	}{
		{"health", func(id uint64) []string {
			return []string{
				fmt.Sprintf(`{"id":%d,"code":"OK"}`, id-1),
				fmt.Sprintf(`{"id":%d,"code":"OK","event":true}`, id),
				fmt.Sprintf(`{"id":%d,"code":"OK","result":{"tick":5}}`, id),
			}
		}, func(t *testing.T, cl *Client) {
			if h, err := cl.Health(); err != nil || h.Tick != 5 {
				t.Fatalf("client consumed the wrong frame: %+v %v", h, err)
			}
		}},
		{"spend", func(id uint64) []string {
			return []string{
				spend(id-1, "stale", ""),
				spend(id, "event", `,"event":true`),
				spend(id, "real", ""),
			}
		}, func(t *testing.T, cl *Client) {
			if res, err := cl.Spend(); err != nil || len(res.Tenants) != 1 || res.Tenants[0].Name != "real" {
				t.Fatalf("client consumed the wrong frame: %+v %v", res, err)
			}
		}},
		{"spend declined by the spend decoder", func(id uint64) []string {
			return []string{
				spend(id-1, "stale", ""),
				spend(id, "event", `,"event":true`),
				spend(id, "real", `,"error":""`),
			}
		}, func(t *testing.T, cl *Client) {
			if res, err := cl.Spend(); err != nil || len(res.Tenants) != 1 || res.Tenants[0].Name != "real" {
				t.Fatalf("client consumed the wrong frame: %+v %v", res, err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
				for _, payload := range tc.frames(req.ID) {
					if _, err := fmt.Fprintf(conn, "%06x\n%s\n", len(payload)+1, payload); err != nil {
						return false
					}
				}
				return true
			})
			cl, err := Dial(Options{Socket: srv.socket, Timeout: time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			tc.check(t, cl)
		})
	}
}

func TestCallIdemRequiresKey(t *testing.T) {
	cl, err := Dial(Options{Socket: "/nonexistent.sock"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.CallIdem(daemon.MethodSubmit, "", nil, nil); err == nil {
		t.Fatal("CallIdem accepted an empty key")
	}
}
