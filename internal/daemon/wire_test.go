package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := Request{ID: 7, Method: MethodSubmit, Idem: "k-1",
		Params: json.RawMessage(`{"name":"t0","cells":3,"seed":9}`)}
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	resp := Response{ID: 7, Code: CodeOK, Result: json.RawMessage(`{"ok":true}`)}
	if err := WriteFrame(&buf, resp); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}

	r := bufio.NewReader(&buf)
	var gotReq Request
	if err := ReadFrame(r, &gotReq); err != nil {
		t.Fatalf("ReadFrame request: %v", err)
	}
	if gotReq.ID != 7 || gotReq.Method != MethodSubmit || gotReq.Idem != "k-1" {
		t.Fatalf("request round-trip mangled: %+v", gotReq)
	}
	var gotResp Response
	if err := ReadFrame(r, &gotResp); err != nil {
		t.Fatalf("ReadFrame response: %v", err)
	}
	if gotResp.ID != 7 || gotResp.Code != CodeOK {
		t.Fatalf("response round-trip mangled: %+v", gotResp)
	}
}

func TestReadFrameRejectsViolations(t *testing.T) {
	frame := func(v any) []byte {
		b, err := AppendFrame(nil, v)
		if err != nil {
			t.Fatalf("AppendFrame: %v", err)
		}
		return b
	}
	good := frame(Request{ID: 1, Method: MethodHealth})
	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty", nil},
		{"torn prefix", good[:3]},
		{"torn payload", good[:len(good)-2]},
		{"garbage prefix", []byte("zzzzzz\n" + `{"id":1}` + "\n")},
		{"signed prefix", []byte("+00009\n" + `{"id":1}` + "\n")},
		{"space in prefix", []byte(" 00009\n" + `{"id":1}` + "\n")},
		{"prefix without newline", append([]byte("000010"), good...)},
		{"oversize length", []byte("ffffff\n")},
		{"zero length", []byte("000000\n")},
		{"payload missing newline", append(append([]byte{}, good[:len(good)-1]...), 'x')},
		{"payload not json", []byte("000004\nhi!\n")},
	}
	for _, tc := range cases {
		var v Request
		if err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.raw)), &v); err == nil {
			t.Errorf("%s: ReadFrame accepted a broken frame", tc.name)
		}
	}
}

func TestAppendFrameRejectsOversize(t *testing.T) {
	big := strings.Repeat("x", MaxFrame)
	if _, err := AppendFrame(nil, big); err == nil {
		t.Fatal("AppendFrame accepted a payload beyond MaxFrame")
	}
}

func TestIdempotentMethods(t *testing.T) {
	for _, m := range []string{MethodAlloc, MethodSpend, MethodWatch, MethodHealth, MethodDrain} {
		if !Idempotent(m) {
			t.Errorf("%s should be idempotent", m)
		}
	}
	if Idempotent(MethodSubmit) {
		t.Error("submit-tenant must not be idempotent without a key")
	}
	if Idempotent("nonsense") {
		t.Error("unknown methods must not be idempotent")
	}
}

// FuzzReadFrame feeds ReadFrame arbitrary bytes as a Request stream.
// It must never panic; a frame it accepts must have consumed exactly
// its 7-byte prefix and the payload length the prefix names, within
// MaxFrame, and must survive an AppendFrame round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		var req Request
		if err := ReadFrame(br, &req); err != nil {
			return
		}
		n, err := strconv.ParseUint(string(data[:6]), 16, 32)
		if err != nil || n == 0 || n > MaxFrame {
			t.Fatalf("accepted prefix %q", data[:7])
		}
		if left := br.Buffered() + src.Len(); left != len(data)-7-int(n) {
			t.Fatalf("consumed %d bytes, the frame is %d", len(data)-left, 7+n)
		}
		b, err := AppendFrame(nil, req)
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", req, err)
		}
		var back Request
		if err := ReadFrame(bufio.NewReader(bytes.NewReader(b)), &back); err != nil {
			t.Fatalf("reading back %q: %v", b, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("round trip changed %+v into %+v", req, back)
		}
	})
}
