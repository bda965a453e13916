package client

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

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
func spendPayload(t testing.TB, id uint64, res daemon.SpendResult) []byte {
	t.Helper()
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := daemon.AppendFrame(nil, daemon.Response{ID: id, Code: daemon.CodeOK, Result: raw})
	if err != nil {
		t.Fatal(err)
	}
	return frame[7 : len(frame)-1]
}

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
// request 7.
var spendCases = []struct {
	name    string
	payload string
	want    bool
}{
	{"canonical", `{"id":7,"code":"OK","result":{"root_granted":30,"root_consumed":20,"root_refunded":4,"root_outstanding":6,"tenants":[{"name":"a","granted":10,"consumed":8,"refunded":0,"outstanding":2,"landed":1,"cells":2},{"name":"b","granted":20,"consumed":12,"refunded":4,"outstanding":4,"landed":2,"cells":3}]}}`, true},
	{"whitespace", " {\n \"id\" : 7 ,\t\"code\":\"OK\",\r\n\"result\":{ \"root_granted\":1,\"root_consumed\":1,\"root_refunded\":0,\"root_outstanding\":0,\"tenants\":[ { \"name\" : \"a\" , \"granted\":1,\"consumed\":1,\"refunded\":0,\"outstanding\":0,\"landed\":1,\"cells\":1 } ] } }\n", true},
	{"reordered keys", `{"result":{"tenants":[{"cells":2,"landed":1,"outstanding":2,"refunded":0,"consumed":8,"granted":10,"name":"a"}],"root_outstanding":2,"root_refunded":0,"root_consumed":8,"root_granted":10},"code":"OK","id":7}`, true},
	{"no tenants", `{"id":7,"code":"OK","result":{"root_granted":0,"root_consumed":0,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, true},
	{"integer bounds", `{"id":7,"code":"OK","result":{"root_granted":9223372036854775807,"root_consumed":-9223372036854775808,"root_refunded":-0,"root_outstanding":0,"tenants":[]}}`, true},
	{"largest id", `{"id":18446744073709551615,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, false},
	{"escaped name", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[{"name":"q\"\\é😀","granted":1,"consumed":1,"refunded":0,"outstanding":0,"landed":1,"cells":1}]}}`, true},
	{"U+2028 name", "{\"id\":7,\"code\":\"OK\",\"result\":{\"root_granted\":1,\"root_consumed\":1,\"root_refunded\":0,\"root_outstanding\":0,\"tenants\":[{\"name\":\"a\u2028b\",\"granted\":1,\"consumed\":1,\"refunded\":0,\"outstanding\":0,\"landed\":1,\"cells\":1}]}}", true},
	{"invalid UTF-8 name", "{\"id\":7,\"code\":\"OK\",\"result\":{\"root_granted\":1,\"root_consumed\":1,\"root_refunded\":0,\"root_outstanding\":0,\"tenants\":[{\"name\":\"a\xff\xc3b\",\"granted\":1,\"consumed\":1,\"refunded\":0,\"outstanding\":0,\"landed\":1,\"cells\":1}]}}", true},
	{"stale id", `{"id":6,"code":"OK","result":{"root_granted":30,"root_consumed":20,"root_refunded":4,"root_outstanding":6,"tenants":[{"name":"stale","granted":10,"consumed":8,"refunded":0,"outstanding":2,"landed":1,"cells":2}]}}`, false},
	{"event", `{"id":7,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[{"name":"event","granted":1,"consumed":1,"refunded":0,"outstanding":0,"landed":1,"cells":1}]},"event":true}`, false},
	{"event false", `{"id":7,"event":false,"code":"OK","result":{"root_granted":1,"root_consumed":1,"root_refunded":0,"root_outstanding":0,"tenants":[]}}`, true},
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
// daemon's frames in any key order and whitespace, and nothing else.
func TestSpendDecodeDeclines(t *testing.T) {
	var d SpendDecoder
	for _, tc := range spendCases {
		if got := d.Decode([]byte(tc.payload), 7, new(daemon.SpendResult)); got != tc.want {
			t.Errorf("%s: decoded %v, want %v", tc.name, got, tc.want)
		}
	}
	var got daemon.SpendResult
	if !d.Decode(spendPayload(t, 7, spendAnswer(1200)), 7, &got) {
		t.Fatal("declined the daemon's 1200-row frame")
	}
	if want := spendAnswer(1200); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got.Tenants[:2], want.Tenants[:2])
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
