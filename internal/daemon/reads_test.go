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

	"cash/internal/fleet"
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

// spendResult is the query-spend answer as a value, the reference
// spendFrame's hand-written frame is checked against: rows in
// tenant-name order.
func (s *Server) spendResult() SpendResult {
	root := s.fleet.Root()
	res := SpendResult{
		RootGranted:     root.Granted(),
		RootConsumed:    root.Consumed(),
		RootRefunded:    root.Refunded(),
		RootOutstanding: root.Outstanding(),
	}
	res.Tenants = make([]TenantSpend, 0, len(s.sorted))
	for _, t := range s.sorted {
		env, landed := s.fleet.Tenant(t)
		res.Tenants = append(res.Tenants, TenantSpend{
			Name:        s.tenants[t].Name,
			Granted:     env.Granted(),
			Consumed:    env.Consumed(),
			Refunded:    env.Refunded(),
			Outstanding: env.Outstanding(),
			Landed:      landed,
			Cells:       s.tenants[t].Cells,
		})
	}
	return res
}

// healthResult is the health answer a writer finishes from a snapshot
// of the core taken now.
func (s *Server) healthResult() HealthResult { return s.healthSnap(0).result() }

// digest is the health digest of the core's state now.
func (s *Server) digest() uint64 { return s.healthSnap(0).digest() }

// testConn is a connection whose frames the test reads straight from
// the outbound queue; no writer goroutine runs.
func testConn(t *testing.T, s *Server) *connState {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return &connState{srv: s, conn: a, out: make(chan reply, 64), quit: make(chan struct{})}
}

// nextFrame returns the next frame queued on c, finished as the writer
// finishes it.
func nextFrame(t *testing.T, c *connState) []byte {
	t.Helper()
	select {
	case r := <-c.out:
		return r.bytes()
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

// spendName is an oddName that may carry invalid UTF-8, which JSON
// writes as U+FFFD.
func spendName(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return oddName(rng) + "\xff"
	}
	return oddName(rng)
}

// checkSpendFrame compares s's hand-written query-spend frame with the
// reference encoding of its books, at the smallest, a small and the
// largest request id.
func checkSpendFrame(t *testing.T, s *Server, when string) {
	t.Helper()
	for _, id := range []uint64{0, 7, math.MaxUint64} {
		want, werr := appendOKFrame(nil, id, s.spendResult())
		got, err := s.spendFrame(id)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s, id %d:\n got %q (%v)\nwant %q (%v)", when, id, got, err, want, werr)
		}
	}
}

// TestSpendFrameMatchesReference drives random admit, step and land
// sequences over names JSON escapes, invalid UTF-8 among them, and
// checks the hand-written query-spend frame against the reference
// encoder after every step, from an empty tenant list on.
func TestSpendFrameMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			opts := testOptions(t)
			opts.Chips, opts.SlotsPerChip = 2, 2
			s := openCore(t, opts)
			defer s.journal.Close()
			checkSpendFrame(t, s, "no tenants")
			for step := 0; step < 40; step++ {
				switch rng.Intn(3) {
				case 0:
					// Admitted directly, as rebuild admits, so that the
					// name keeps bytes a JSON request could not carry;
					// some cells land at once with a recorded charge.
					spec := TenantSpec{Name: spendName(rng), Cells: 1 + rng.Intn(4), Seed: rng.Uint64()}
					var done []fleet.Landing
					for i := 0; i < spec.Cells; i++ {
						if rng.Intn(2) == 0 {
							done = append(done, fleet.Landing{Cell: i, Value: spendName(rng), Consumed: rng.Int63n(1e6)})
						}
					}
					if _, dup := s.byName[spec.Name]; !dup {
						if err := s.admit(spec, done); err != nil {
							t.Fatal(err)
						}
					}
				default:
					if _, _, err := s.fleet.Step(); err != nil {
						t.Fatal(err)
					}
				}
				checkSpendFrame(t, s, fmt.Sprintf("step %d", step))
			}
			for i := 0; s.fleet.Landed() < s.fleet.Cells(); i++ {
				if i > 1000 {
					t.Fatalf("stalled at %d/%d cells", s.fleet.Landed(), s.fleet.Cells())
				}
				if _, _, err := s.fleet.Step(); err != nil {
					t.Fatal(err)
				}
			}
			checkSpendFrame(t, s, "all landed")
		})
	}
}

// FuzzSpendFrame checks the hand-written query-spend frame against the
// reference encoder on fuzzed books: tenants named by the
// NUL-separated fields of names, each with cells of which those in
// mask landed already at the given charge, then steps ticks of
// execution.
func FuzzSpendFrame(f *testing.F) {
	f.Add("a\x00b", 3, uint8(5), int64(37668), uint8(2), uint64(7))
	f.Add("<b>&amp;\x00q\"uote\\\x00\u2028\u2029\x00\xff\xfe\x00é世", 4, uint8(0xff), int64(1), uint8(0), uint64(math.MaxUint64))
	f.Add("", 1, uint8(0), int64(0), uint8(1), uint64(0))
	f.Fuzz(func(t *testing.T, names string, cells int, mask uint8, charge int64, steps uint8, id uint64) {
		if cells < 1 || cells > 8 || steps > 16 || charge < 0 || charge > 1e9 {
			return
		}
		opts := testOptions(t)
		opts.Chips, opts.SlotsPerChip = 1, 2
		s := openCore(t, opts)
		defer s.journal.Close()
		for _, name := range strings.Split(names, "\x00") {
			spec := TenantSpec{Name: name, Cells: cells, Seed: uint64(len(name))}
			if _, dup := s.byName[name]; dup || spec.Validate() != nil {
				continue
			}
			var done []fleet.Landing
			for i := 0; i < cells; i++ {
				if mask&(1<<i) != 0 {
					done = append(done, fleet.Landing{Cell: i, Value: name, Consumed: charge})
				}
			}
			if err := s.admit(spec, done); err != nil {
				t.Fatal(err)
			}
		}
		for ; steps > 0; steps-- {
			if _, _, err := s.fleet.Step(); err != nil {
				t.Fatal(err)
			}
		}
		want, werr := appendOKFrame(nil, id, s.spendResult())
		got, err := s.spendFrame(id)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Fatalf("\n got %q (%v)\nwant %q (%v)", got, err, want, werr)
		}
	})
}

// TestRepliesKeepRequestOrder: health, spend and health on one
// connection, with cells landing between them, reach the client in
// request order, and each health answer carries the digest of the
// moment the core handled it, though the connection's writer hashes
// it only later, while the core goes on landing cells.
func TestRepliesKeepRequestOrder(t *testing.T) {
	opts := testOptions(t)
	opts.Chips, opts.SlotsPerChip = 1, 2
	s := openCore(t, opts)
	defer s.journal.Close()
	acks := testConn(t, s)
	for i := 0; i < 4; i++ {
		submit(t, s, acks, fmt.Sprintf("k%d", i), TenantSpec{Name: fmt.Sprintf("t%d", i), Cells: 3, Seed: uint64(i)})
	}
	land := func() {
		t.Helper()
		for n := s.fleet.Landed(); s.fleet.Landed() == n; {
			if s.fleet.Tick() > 1000 {
				t.Fatalf("no cell landed by tick %d", s.fleet.Tick())
			}
			if _, _, err := s.fleet.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	server, client := net.Pipe()
	defer client.Close()
	c := &connState{srv: s, conn: server, out: make(chan reply, 64), quit: make(chan struct{})}
	defer c.close()

	// want holds each request's frame as of the moment it is handled.
	var want [][]byte
	var digests []string
	ask := func(method string) {
		t.Helper()
		id := uint64(len(want) + 1)
		var result any
		switch method {
		case MethodHealth:
			h := s.healthResult()
			if ref := fmt.Sprintf("%016x", referenceDigest(s)); h.Digest != ref {
				t.Fatalf("request %d: digest %s, reference %s", id, h.Digest, ref)
			}
			digests = append(digests, h.Digest)
			result = h
		case MethodSpend:
			result = s.spendResult()
		}
		payload, err := json.Marshal(result)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := AppendFrame(nil, Response{ID: id, Code: CodeOK, Result: payload})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame)
		s.handle(coreReq{req: Request{ID: id, Method: method}, c: c})
	}
	ask(MethodHealth)
	land()
	ask(MethodSpend)
	land()
	ask(MethodHealth)
	if digests[0] == digests[1] {
		t.Fatalf("landings left the digest at %s: the test cannot tell when it was taken", digests[0])
	}
	// The writer starts only now, and finishes the queued answers while
	// the core lands more cells and answers once more.
	go c.writeLoop()
	land()
	ask(MethodHealth)
	land()

	br := bufio.NewReader(client)
	client.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i, w := range want {
		payload, err := ReadPayload(br)
		if err != nil {
			t.Fatalf("reply %d: %v", i+1, err)
		}
		if got := append(payload, '\n'); !bytes.Equal(got, w[7:]) {
			t.Fatalf("reply %d:\n got %q\nwant %q", i+1, got, w[7:])
		}
	}
}
