package client

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cash/internal/daemon"
)

// spendAnswer is a query-spend result of n tenant rows.
func spendAnswer(n int) daemon.SpendResult {
	res := daemon.SpendResult{RootGranted: 7_000_000_123, RootConsumed: 6_500_000_000,
		RootRefunded: 400_000_000, RootOutstanding: 100_000_123, Tenants: []daemon.TenantSpend{}}
	for i := 0; i < n; i++ {
		res.Tenants = append(res.Tenants, daemon.TenantSpend{
			Name: fmt.Sprintf("t%05d", i), Granted: int64(5_000_000 + i), Consumed: int64(4_000_000 + i),
			Refunded: int64(i), Outstanding: int64(1_000_000 - 2*i), Landed: 3, Cells: 4,
		})
	}
	return res
}

// spendPayload is the payload of the frame the daemon writes for res:
// TestReplyFramesMatchAppendFrame pins the daemon's reply bytes to
// AppendFrame's.
func spendPayload(id uint64, res daemon.SpendResult) []byte {
	raw, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	frame, err := daemon.AppendFrame(nil, daemon.Response{ID: id, Code: daemon.CodeOK, Result: raw})
	if err != nil {
		panic(err)
	}
	return frame[7 : len(frame)-1]
}

// oddAnswer is a spend answer at the int64 extremes whose names hold
// what TestSpendFrameMatchesReference names tenants with: the quote,
// the backslash, <>&, U+2028/2029, invalid UTF-8 and other non-ASCII.
var oddAnswer = daemon.SpendResult{RootGranted: math.MaxInt64, RootConsumed: math.MinInt64, Tenants: []daemon.TenantSpend{
	{Name: `q"uote\`, Granted: 1, Landed: 1, Cells: 2},
	{Name: "<b>&amp;</b>", Consumed: -1, Landed: 2, Cells: 2},
	{Name: "line\u2028sep\u2029", Refunded: 3, Cells: 1},
	{Name: "\xff\xfe", Outstanding: 4, Cells: 1},
	{Name: "é世\u00a0z0", Granted: 5, Consumed: 5, Landed: 1, Cells: 1},
}}

// decodeJSON is the client's encoding/json path for a reply payload,
// which defines what the spend decoder must produce.
func decodeJSON(payload []byte) (daemon.Response, daemon.SpendResult, error) {
	var resp daemon.Response
	var res daemon.SpendResult
	if err := json.Unmarshal(payload, &resp); err != nil {
		return resp, res, err
	}
	if resp.Code == daemon.CodeOK && resp.Result != nil {
		return resp, res, decodeResult(resp.Result, &res)
	}
	return resp, res, nil
}

// spendCases are the payloads the seed corpus of FuzzSpendDecode holds,
// each with whether the spend decoder must read it as the answer to
// request 7. TestSpendCorpusMatchesTable keeps the corpus files and this
// table one list.
var spendCases = []struct {
	name    string
	payload string
	want    bool
}{
	{"canonical", `{"id":7,"code":"OK","result":{"root_granted":30,"root_consumed":20,"root_refunded":4,"root_outstanding":6,"tenants":[{"name":"a","granted":10,"consumed":8,"refunded":0,"outstanding":2,"landed":1,"cells":2},{"name":"b","granted":20,"consumed":12,"refunded":4,"outstanding":4,"landed":2,"cells":3}]}}`, true},
	{"daemon frame, odd names", string(spendPayload(7, oddAnswer)), true},
	{"whitespace", " {\n \"id\" : 7 ,\t\"code\":\"OK\",\r\n\"result\":{ \"root_granted\":1,\"root_consumed\":1,\"root_refunded\":0,\"root_outstanding\":0,\"tenants\":[ { \"name\" : \"a\" , \"granted\":1,\"consumed\":1,\"refunded\":0,\"outstanding\":0,\"landed\":1,\"cells\":1 } ] } }\n", false},
	{"reordered keys", `{"result":{"tenants":[{"cells":2,"landed":1,"outstanding":2,"refunded":0,"consumed":8,"granted":10,"name":"a"}],"root_outstanding":2,"root_refunded":0,"root_consumed":8,"root_granted":10},"code":"OK","id":7}`, false},
	{"no tenants", `{"id":7,"code":"OK","result":{"root_granted":0,"root_consumed":0,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, true},
	{"integer bounds", `{"id":7,"code":"OK","result":{"root_granted":9223372036854775807,"root_consumed":-9223372036854775808,"root_refunded":-0,"root_outstanding":0,"tenants":[]}}`, false},
	{"largest id", `{"id":18446744073709551615,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"escaped name", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[{"name":"q\"\\é😀","granted":1,"consumed":1,"refunded":0,"outstanding":0,"landed":1,"cells":1}]}}`, true},
	{"U+2028 name", "{\"id\":7,\"code\":\"OK\",\"result\":{\"root_granted\":1,\"root_consumed\":1,\"root_refunded\":0,\"root_outstanding\":0,\"tenants\":[{\"name\":\"a\u2028b\",\"granted\":1,\"consumed\":1,\"refunded\":0,\"outstanding\":0,\"landed\":1,\"cells\":1}]}}", false},
	{"invalid UTF-8 name", "{\"id\":7,\"code\":\"OK\",\"result\":{\"root_granted\":1,\"root_consumed\":1,\"root_refunded\":0,\"root_outstanding\":0,\"tenants\":[{\"name\":\"a\xff\xc3b\",\"granted\":1,\"consumed\":1,\"refunded\":0,\"outstanding\":0,\"landed\":1,\"cells\":1}]}}", true},
	{"stale id", `{"id":6,"code":"OK","result":{"root_granted":30,"root_consumed":20,"root_refunded":4,"root_outstanding":6,"tenants":[{"name":"stale","granted":10,"consumed":8,"refunded":0,"outstanding":2,"landed":1,"cells":2}]}}`, false},
	{"event", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[{"name":"event","granted":1,"consumed":1,"refunded":0,"outstanding":0,"landed":1,"cells":1}]},"event":true}`, false},
	{"event false", `{"id":7,"event":false,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"duplicate key", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[{"name":"a","granted":1,"granted":5,"consumed":1,"refunded":0,"outstanding":0,"landed":1,"cells":1}]}}`, false},
	{"duplicate id", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]},"id":8}`, false},
	{"case-variant key", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[{"Name":"a","granted":1,"consumed":1,"refunded":0,"outstanding":0,"landed":1,"cells":1}]}}`, false},
	{"unknown key", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[],"page":2}}`, false},
	{"missing key", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"tenants":[]}}`, false},
	{"null", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[{"name":"a","granted":1,"consumed":1,"refunded":null,"outstanding":0,"landed":1,"cells":1}]}}`, false},
	{"null tenants", `{"id":7,"code":"OK","result":{"root_granted":0,"root_consumed":0,"root_refunded":0,"root_outstanding":0,"tenants":null}}`, false},
	{"float", `{"id":7,"code":"OK","result":{"root_granted":1.0,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"exponent", `{"id":7,"code":"OK","result":{"root_granted":1e3,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"plus sign", `{"id":7,"code":"OK","result":{"root_granted":+1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"leading zero", `{"id":07,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"int64 overflow", `{"id":7,"code":"OK","result":{"root_granted":9223372036854775808,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"uint64 overflow", `{"id":18446744073709551616,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"not OK", `{"id":7,"code":"ERROR","error":"boom"}`, false},
	{"trailing bytes", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}x`, false},
	{"trailing comma", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[],}}`, false},
	{"control byte in name", "{\"id\":7,\"code\":\"OK\",\"result\":{\"root_granted\":1,\"root_consumed\":1,\"root_refunded\":0,\"root_outstanding\":0,\"tenants\":[{\"name\":\"a\tb\",\"granted\":1,\"consumed\":1,\"refunded\":0,\"outstanding\":0,\"landed\":1,\"cells\":1}]}}", false},
	{"health answer", `{"id":7,"code":"OK","result":{"tick":5,"tenants":1}}`, false},
}

// TestSpendDecodeDeclines pins what the spend decoder reads: the
// daemon's frames, whatever their names, and nothing else. Whichever
// path reads a payload, Client.Spend yields what encoding/json reads
// from it: behind each payload the fake server sends an error reply,
// which the client reads only if it discards the payload as a stray.
func TestSpendDecodeDeclines(t *testing.T) {
	var d SpendDecoder
	for _, tc := range spendCases {
		if got := d.Decode([]byte(tc.payload), 7, new(daemon.SpendResult)); got != tc.want {
			t.Errorf("%s: decoded %v, want %v", tc.name, got, tc.want)
		}
		srv := newFakeServer(t, func(conn net.Conn, req daemon.Request) bool {
			_, err := fmt.Fprintf(conn, "%06x\n%s\n", len(tc.payload)+1, tc.payload)
			return err == nil && reply(conn, daemon.Response{ID: req.ID, Code: daemon.CodeError, Error: "next"})
		})
		cl, err := Dial(Options{Socket: srv.socket, Timeout: time.Second, MaxAttempts: 1})
		if err != nil {
			t.Fatal(err)
		}
		cl.nextID = 6 // the payloads answer request 7
		got, err := cl.Spend()
		cl.Close()
		var te *TerminalError
		switch resp, want, jerr := decodeJSON([]byte(tc.payload)); {
		case jerr != nil:
			if err == nil {
				t.Errorf("%s: Client.Spend read %+v, encoding/json fails: %v", tc.name, got, jerr)
			}
		case resp.ID != 7 || resp.Event:
			if !errors.As(err, &te) || te.Detail != "next" {
				t.Errorf("%s: Client.Spend kept a stray frame: %+v, %v", tc.name, got, err)
			}
		case resp.Code != daemon.CodeOK:
			if !errors.As(err, &te) || te.Code != resp.Code {
				t.Errorf("%s: Client.Spend read %+v, %v, want code %s", tc.name, got, err, resp.Code)
			}
		case err != nil || !reflect.DeepEqual(got, want):
			t.Errorf("%s: Client.Spend read %+v, %v; encoding/json reads %+v", tc.name, got, err, want)
		}
	}
	var got daemon.SpendResult
	if !d.Decode(spendPayload(7, spendAnswer(1200)), 7, &got) {
		t.Fatal("declined the daemon's 1200-row frame")
	}
	if want := spendAnswer(1200); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got.Tenants[:2], want.Tenants[:2])
	}
}

// TestSpendCorpusMatchesTable requires one seed file under
// testdata/fuzz/FuzzSpendDecode per spendCases entry, named after the
// case and holding request 7 and its payload, and no other file: a
// case added to the table reaches the fuzzer only through its file.
func TestSpendCorpusMatchesTable(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSpendDecode")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(spendCases) {
		t.Errorf("%d seed files, %d table cases", len(files), len(spendCases))
	}
	fileName := strings.NewReplacer(" ", "-", ",", "", "+", "")
	for _, tc := range spendCases {
		name := fileName.Replace(tc.name)
		got, err := os.ReadFile(filepath.Join(dir, name))
		if want := fmt.Sprintf("go test fuzz v1\nuint64(7)\n[]byte(%q)\n", tc.payload); err != nil || string(got) != want {
			t.Errorf("%s: seed file %s must read\n%s(%v)", tc.name, name, want, err)
		}
	}
}

// FuzzSpendDecode is the spend decoder's differential check: where it
// reads a payload as the answer to request id, encoding/json must read
// that answer from it too, with the same ID, code and result; where it
// declines, the caller's result must be untouched. Each payload is
// decoded twice by one decoder, so scratch left by one answer cannot
// leak into the next.
func FuzzSpendDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, id uint64, payload []byte) {
		var d SpendDecoder
		sentinel := daemon.SpendResult{RootGranted: -1, Tenants: []daemon.TenantSpend{{Name: "sentinel"}}}
		first, second := sentinel, sentinel
		ok := d.Decode(payload, id, &first)
		if again := d.Decode(payload, id, &second); again != ok || !reflect.DeepEqual(first, second) {
			t.Fatalf("second decode: %v %+v, first %v %+v", again, second, ok, first)
		}
		if !ok {
			if !reflect.DeepEqual(first, sentinel) {
				t.Fatalf("declined, but wrote the result: %+v", first)
			}
			return
		}
		resp, want, err := decodeJSON(payload)
		if err != nil {
			t.Fatalf("decoded a payload encoding/json rejects: %v", err)
		}
		if resp.ID != id || resp.Event || resp.Code != daemon.CodeOK {
			t.Fatalf("decoded as the answer to %d, but encoding/json reads ID %d, event %v, code %s", id, resp.ID, resp.Event, resp.Code)
		}
		if !reflect.DeepEqual(first, want) {
			t.Fatalf("decoded %+v, encoding/json reads %+v", first, want)
		}
	})
}
