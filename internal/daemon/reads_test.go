package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"
)

// referenceDigest is the digest as first defined: every call sorts the
// tenant names and formats every landed cell. The cached segments must
// reproduce it bit for bit.
func referenceDigest(s *Server) uint64 {
	names := make([]string, 0, len(s.tenants))
	for _, spec := range s.tenants {
		names = append(names, spec.Name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		t := s.byName[n]
		spec := s.tenants[t]
		fmt.Fprintf(h, "tenant %s cells=%d seed=%d ", n, spec.Cells, spec.Seed)
		for i := 0; i < spec.Cells; i++ {
			if value, price, landed := s.fleet.Cell(t, i); landed {
				fmt.Fprintf(h, "c%04d v=%q n=%d ", i, value, price)
			}
		}
	}
	fmt.Fprintf(h, "consumed=%d", s.fleet.Root().Consumed())
	return h.Sum64()
}

// testConn is a connection whose frames the test reads straight from
// the outbound queue; no writer goroutine runs.
func testConn(t *testing.T, s *Server) *connState {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return &connState{srv: s, conn: a, out: make(chan []byte, 64), quit: make(chan struct{})}
}

// nextFrame returns the next frame queued on c.
func nextFrame(t *testing.T, c *connState) []byte {
	t.Helper()
	select {
	case b := <-c.out:
		return b
	default:
		t.Fatal("no frame queued")
		return nil
	}
}

// decode reads one frame's Response.
func decodeFrame(t *testing.T, b []byte) Response {
	t.Helper()
	var resp Response
	if err := ReadFrame(bufio.NewReader(bytes.NewReader(b)), &resp); err != nil {
		t.Fatalf("reading frame %q: %v", b, err)
	}
	return resp
}

// openCore builds a server's core state without a socket or goroutines;
// the test drives it as the core goroutine would.
func openCore(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := open(opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

// submit journals and admits spec through handleSubmit and checks the
// acknowledgement.
func submit(t *testing.T, s *Server, c *connState, idem string, spec TenantSpec) {
	t.Helper()
	params, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	s.handleSubmit(coreReq{req: Request{ID: 1, Method: MethodSubmit, Idem: idem, Params: params}, c: c})
	if resp := decodeFrame(t, nextFrame(t, c)); resp.Code != CodeOK {
		t.Fatalf("submit %q: %s %s", spec.Name, resp.Code, resp.Error)
	}
}

// oddRunes are the name characters the digest's %s and %q and JSON's
// HTML escaping treat specially.
var oddRunes = []rune{'"', '\\', '<', '>', '&', 'é', '世', '\u2028', '\u2029', '\u00a0', 'a', 'b', 'z', '0'}

func oddName(rng *rand.Rand) string {
	var b strings.Builder
	for n := 1 + rng.Intn(6); n > 0; n-- {
		b.WriteRune(oddRunes[rng.Intn(len(oddRunes))])
	}
	return b.String()
}

// TestDigestMatchesReference drives random admit and land sequences
// and checks the cached digest against the reference after every step,
// across a restart through rebuild, and once every cell has landed.
func TestDigestMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opts := testOptions(t)
			opts.Chips, opts.SlotsPerChip = 2, 2
			s := openCore(t, opts)
			c := testConn(t, s)
			check := func(s *Server, when string) uint64 {
				t.Helper()
				got, want := s.digest(), referenceDigest(s)
				if got != want {
					t.Fatalf("%s: digest %016x, reference %016x", when, got, want)
				}
				return got
			}
			used := map[string]bool{}
			for step := 0; step < 24; step++ {
				if rng.Intn(3) == 0 {
					name := oddName(rng)
					if used[name] {
						continue
					}
					used[name] = true
					submit(t, s, c, fmt.Sprintf("k%d", step), TenantSpec{Name: name, Cells: 1 + rng.Intn(3), Seed: rng.Uint64()})
				} else if _, _, err := s.fleet.Step(); err != nil {
					t.Fatal(err)
				}
				check(s, fmt.Sprintf("step %d", step))
			}
			before := check(s, "before restart")
			if err := s.journal.Close(); err != nil {
				t.Fatal(err)
			}

			s = openCore(t, opts)
			defer s.journal.Close()
			if after := check(s, "after rebuild"); after != before {
				t.Fatalf("rebuild moved the digest: %016x, before %016x", after, before)
			}
			for i := 0; s.fleet.Landed() < s.fleet.Cells(); i++ {
				if i > 1000 {
					t.Fatalf("stalled at %d/%d cells", s.fleet.Landed(), s.fleet.Cells())
				}
				if _, _, err := s.fleet.Step(); err != nil {
					t.Fatal(err)
				}
			}
			check(s, "all landed")
		})
	}
}

// TestReplyFramesMatchAppendFrame: every reply the core encodes once is
// the frame AppendFrame builds from a Response around the marshaled
// result, byte for byte, for every read method and the acks, with
// names that JSON escapes.
func TestReplyFramesMatchAppendFrame(t *testing.T) {
	opts := testOptions(t)
	opts.Chips, opts.SlotsPerChip = 1, 2
	s := openCore(t, opts)
	defer s.journal.Close()
	c := testConn(t, s)
	for i, name := range []string{"<b>&amp;</b>", "line\u2028sep\u2029", `q"uote\`, "é世"} {
		submit(t, s, c, fmt.Sprintf("k%d", i), TenantSpec{Name: name, Cells: 3, Seed: uint64(i)})
	}
	// Step until cells have landed and others still run, so every
	// list in the answers is non-empty.
	for s.fleet.Landed() == 0 || s.fleet.Running() == 0 {
		if s.fleet.Tick() > 1000 {
			t.Fatalf("no tick with cells both landed and running (%d landed)", s.fleet.Landed())
		}
		if _, _, err := s.fleet.Step(); err != nil {
			t.Fatal(err)
		}
	}
	results := map[string]any{
		"spend":  s.spendResult(),
		"alloc":  s.allocResult(),
		"health": s.healthResult(),
		"submit": SubmitResult{Name: "<&>\u2028", Cells: 3, EstimateNanos: 42, Resubmitted: true},
		"drain":  map[string]bool{"draining": true},
		"epoch":  s.epochEvent(1, 2),
		"odd":    []string{"<script>", "a&b", "\u2028\u2029", "\xff\xfe", ""},
		"nil":    nil,
	}
	for _, id := range []uint64{0, 7, math.MaxUint64} {
		for what, v := range results {
			s.replyOK(coreReq{req: Request{ID: id}, c: c}, v)
			got := nextFrame(t, c)
			payload, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := AppendFrame(nil, Response{ID: id, Code: CodeOK, Result: payload})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s id %d:\n got %q\nwant %q", what, id, got, want)
			}
		}
	}
	// Appending keeps what dst held.
	b, err := appendOKFrame([]byte("head"), 3, results["health"])
	if err != nil || !bytes.HasPrefix(b, []byte("head")) {
		t.Fatalf("appendOKFrame onto a prefix: %q, %v", b, err)
	}
}

// TestOversizedReplyIsAnError: a reply past MaxFrame is answered with
// a CodeError frame naming its size and the cap, not dropped.
func TestOversizedReplyIsAnError(t *testing.T) {
	s := &Server{}
	c := testConn(t, s)
	big := strings.Repeat("x", MaxFrame)
	s.replyOK(coreReq{req: Request{ID: 5}, c: c}, big)
	c.send(Response{ID: 6, Code: CodeOK, Result: json.RawMessage(`"` + big + `"`)})
	for _, id := range []uint64{5, 6} {
		resp := decodeFrame(t, nextFrame(t, c))
		if resp.ID != id || resp.Code != CodeError {
			t.Fatalf("reply %d: id %d code %s, want id %d code %s", id, resp.ID, resp.Code, id, CodeError)
		}
		want := fmt.Sprintf("exceeds MaxFrame (%d bytes)", MaxFrame)
		if !strings.Contains(resp.Error, want) || !strings.Contains(resp.Error, fmt.Sprint(MaxFrame+len(`{"id":5,"code":"OK","result":""}`)+1)) {
			t.Fatalf("reply %d error %q names neither the frame size nor %q", id, resp.Error, want)
		}
	}
}

// TestOversizedSpendAnswersAtOnce: a query-spend whose answer outgrows
// MaxFrame reaches the client as one ERROR frame, well inside its
// timeout, and the daemon keeps serving.
func TestOversizedSpendAnswersAtOnce(t *testing.T) {
	opts := testOptions(t)
	opts.Epoch = time.Hour
	s := openCore(t, opts)
	// Rows of 150 bytes: 7,000 tenants pass 1 MiB. Admitted directly,
	// unjournaled: only the reply path is under test.
	const tenants = 7500
	pad := strings.Repeat("n", 57)
	for i := 0; i < tenants; i++ {
		if err := s.admit(TenantSpec{Name: fmt.Sprintf("%s%06d", pad, i), Cells: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.serve(); err != nil {
		t.Fatal(err)
	}
	defer s.Kill()
	cl := dialRaw(t, opts.Socket)
	start := time.Now()
	resp := cl.call(MethodSpend, "", nil)
	if resp.Code != CodeError || !strings.Contains(resp.Error, "exceeds MaxFrame") {
		t.Fatalf("oversized spend: %s %q", resp.Code, resp.Error)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("oversized spend answered after %v", d)
	}
	if h := cl.health(); h.Tenants != tenants {
		t.Fatalf("health after the refused spend: %d tenants", h.Tenants)
	}
}
