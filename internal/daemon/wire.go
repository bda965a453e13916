// Package daemon is cashd: a long-lived server that turns the fleet
// control-plane library into an operable service. One single-goroutine
// core owns every piece of mutable state — admitted tenants, budget
// envelopes, chip slots, the epoch clock — and exposes it over a Unix
// socket speaking a length-prefixed JSONL protocol. Robustness is the
// design center:
//
//   - crash-safe state: every mutating request is journaled through
//     supervise.Journal (with the client's idempotency key) and synced
//     before it is acknowledged, so a kill -9 at any byte loses nothing
//     that was acked, a restart on the same journal resumes exactly
//     where the crash left off, and duplicate submits dedup through
//     Journal.RecordOnce;
//   - graceful degradation: requests flow through a bounded queue that
//     sheds with an explicit RETRY_AFTER at capacity, and SIGTERM
//     drains — stop admitting, settle outstanding work, compact the
//     journal, exit clean;
//   - deterministic wire faults: accepted connections can be wrapped in
//     a seeded faultConn (drop/delay/duplicate/truncate/reorder) driven
//     by internal/fault, so the whole client/server stack is soak-tested
//     against the failures a real wire manufactures.
package daemon

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// The wire format is length-prefixed JSONL: each frame is a 6-hex-digit
// payload length and a newline, then the JSON payload ending in its own
// newline. The prefix lets the reader reject a torn or reordered frame
// immediately (a frame body is valid JSON ending in '\n', so a
// mid-frame cut can never be mistaken for a complete message), while
// the payload stays greppable JSONL for humans reading a capture.

// MaxFrame bounds a frame payload; a prefix past it means the stream
// has lost framing (or a peer is hostile) and the connection is cut.
const MaxFrame = 1 << 20

// Request methods.
const (
	MethodSubmit = "submit-tenant"
	MethodAlloc  = "query-alloc"
	MethodSpend  = "query-spend"
	MethodWatch  = "watch-epochs"
	MethodHealth = "health"
	MethodDrain  = "drain"
)

// Idempotent reports whether a method is safe to retry without an
// idempotency key: queries and streams always are, drain is (draining
// an already-draining daemon is a no-op), and mutations are not —
// clients retry those only when the request carries an Idem key the
// server dedups on.
func Idempotent(method string) bool {
	switch method {
	case MethodAlloc, MethodSpend, MethodWatch, MethodHealth, MethodDrain:
		return true
	}
	return false
}

// Response codes.
const (
	// CodeOK acknowledges success; Result carries the payload.
	CodeOK = "OK"
	// CodeRetryAfter sheds an unadmitted request at queue capacity: the
	// daemon did nothing, the client should back off and retry (any
	// method, key or not).
	CodeRetryAfter = "RETRY_AFTER"
	// CodeDraining rejects a mutation because the daemon is shutting
	// down; retrying against this instance is pointless.
	CodeDraining = "DRAINING"
	// CodeBadRequest rejects a malformed or conflicting request.
	CodeBadRequest = "BAD_REQUEST"
	// CodeError is an internal failure.
	CodeError = "ERROR"
)

// Request is one client frame.
type Request struct {
	// ID correlates the response (and stream events) with the request;
	// clients use monotonically increasing IDs per connection.
	ID uint64 `json:"id"`
	// Method selects the operation.
	Method string `json:"method"`
	// Idem is the client-supplied idempotency key for mutations; the
	// daemon journals it before acknowledging, so a retry of an
	// already-applied submit returns the original acknowledgement
	// instead of double-applying.
	Idem string `json:"idem,omitempty"`
	// Params is the method-specific payload.
	Params json.RawMessage `json:"params,omitempty"`
}

// Response is one server frame.
type Response struct {
	// ID echoes the request (stream events repeat the watch request's
	// ID on every event).
	ID uint64 `json:"id"`
	// Code classifies the outcome (CodeOK, CodeRetryAfter, ...).
	Code string `json:"code"`
	// Event marks a watch-epochs stream frame as opposed to a direct
	// reply.
	Event bool `json:"event,omitempty"`
	// Error carries the failure detail for non-OK codes.
	Error string `json:"error,omitempty"`
	// RetryAfterMs hints the backoff for CodeRetryAfter.
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
	// Result is the method-specific payload.
	Result json.RawMessage `json:"result,omitempty"`
}

// AppendFrame serialises v and appends one wire frame to dst.
func AppendFrame(dst []byte, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return dst, fmt.Errorf("daemon: marshaling frame: %w", err)
	}
	if err := checkFrame(len(payload) + 1); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(slices.Grow(dst, 7+len(payload)+1), "000000\n"...)
	putPrefix(dst[start:], len(payload)+1)
	dst = append(dst, payload...)
	dst = append(dst, '\n')
	return dst, nil
}

// putPrefix writes n as the six hex digits that open a frame.
func putPrefix(b []byte, n int) {
	const hex = "0123456789abcdef"
	for i := 5; i >= 0; i-- {
		b[i] = hex[n&0xf]
		n >>= 4
	}
}

// checkFrame rejects a frame payload of n bytes that exceeds MaxFrame.
func checkFrame(n int) error {
	if n > MaxFrame {
		return fmt.Errorf("daemon: frame of %d bytes exceeds MaxFrame (%d bytes)", n, MaxFrame)
	}
	return nil
}

// appendOKFrame appends the frame of Response{ID: id, Code: CodeOK,
// Result: <result's JSON>} to dst, byte for byte what AppendFrame
// appends, but encoding result once: AppendFrame would marshal result,
// then re-validate and compact it as a json.RawMessage and copy it
// twice more. The length prefix is reserved and filled in last.
func appendOKFrame(dst []byte, id uint64, result any) ([]byte, error) {
	start := len(dst)
	b := append(dst, "000000\n{\"id\":"...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, `,"code":"OK","result":`...)
	w := frameWriter{b}
	// Encode escapes HTML as json.Marshal does, and ends the value
	// with a newline, which becomes the Response's closing brace.
	if err := json.NewEncoder(&w).Encode(result); err != nil {
		return dst, fmt.Errorf("daemon: marshaling frame: %w", err)
	}
	b = w.b
	b[len(b)-1] = '}'
	b = append(b, '\n')
	n := len(b) - start - 7
	if err := checkFrame(n); err != nil {
		return dst, err
	}
	putPrefix(b[start:], n)
	return b, nil
}

// frameWriter appends what it is written to b, growing b with a spare
// byte so the frame's final newline never reallocates it.
type frameWriter struct{ b []byte }

func (w *frameWriter) Write(p []byte) (int, error) {
	w.b = append(slices.Grow(w.b, len(p)+1), p...)
	return len(p), nil
}

// WriteFrame writes one frame in a single Write call, so a faultConn
// (or the kernel) tears at frame granularity, never interleaving two
// frames.
func WriteFrame(w io.Writer, v any) error {
	b, err := AppendFrame(nil, v)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadPayload reads one frame and returns its JSON payload, without
// the newline that ends it. Any framing violation — short read,
// oversized or malformed prefix, a payload that is not
// newline-terminated — is an error; the caller must drop the
// connection, because after a violation the stream position is
// meaningless.
func ReadPayload(r *bufio.Reader) ([]byte, error) {
	// Peeked, the prefix is read in place, not through a buffer that
	// would escape to the heap.
	prefix, err := r.Peek(7)
	if err != nil {
		if err == io.EOF && len(prefix) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if prefix[6] != '\n' {
		return nil, fmt.Errorf("daemon: frame prefix %q lost framing", prefix)
	}
	// Six hex digits exactly: no sign, no space.
	n := 0
	for _, c := range prefix[:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return nil, fmt.Errorf("daemon: malformed frame prefix %q", prefix)
		}
		n = n<<4 | int(c)
	}
	if n <= 0 || n > MaxFrame {
		return nil, fmt.Errorf("daemon: frame length %d outside (0, %d]", n, MaxFrame)
	}
	r.Discard(7) // peeked, so buffered: it cannot fail
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if payload[n-1] != '\n' {
		return nil, fmt.Errorf("daemon: frame payload not newline-terminated")
	}
	return payload[:n-1], nil
}

// ReadFrame reads one frame with ReadPayload and unmarshals its
// payload into v; a payload that is not a JSON document is an error
// too.
func ReadFrame(r *bufio.Reader, v any) error {
	payload, err := ReadPayload(r)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("daemon: decoding frame: %w", err)
	}
	return nil
}
