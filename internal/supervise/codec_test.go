package supervise

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// The reference codec: a line is whatever json.Marshal writes for the
// entry, and a line is read with json.Unmarshal and checked against
// json.Marshal of what it read. The journal's own codec must agree
// with it on every entry and every line.

// refChecksum is the CRC32 of e marshalled with an empty Sum.
func refChecksum(e Entry) (string, error) {
	e.Sum = ""
	b, err := json.Marshal(e)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(b)), nil
}

// refLine is e's journal line as json.Marshal writes it.
func refLine(e Entry) ([]byte, error) {
	sum, err := refChecksum(e)
	if err != nil {
		return nil, err
	}
	e.Sum = sum
	b, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// refLoaded is what a load left behind.
type refLoaded struct {
	final             map[string]Entry
	attempts, skipped int
	validEnd, corrupt int64
	why               string
	err               error
}

// refLoad loads content as Journal.load does, reading each line with
// the reference codec.
func refLoad(content []byte, meta string) refLoaded {
	l := refLoaded{final: map[string]Entry{}, corrupt: -1}
	r := bufio.NewReader(bytes.NewReader(content))
	first, any := true, false
	var off int64
	for {
		line, rerr := r.ReadBytes('\n')
		start := off
		off += int64(len(line))
		complete := rerr == nil
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			if rerr != nil {
				break
			}
			continue
		}
		any = true
		var e Entry
		valid := false
		if json.Unmarshal(trimmed, &e) == nil {
			sum, err := refChecksum(e)
			valid = err == nil && sum == e.Sum
		}
		if !valid {
			l.skipped++
			if complete && l.corrupt < 0 {
				l.corrupt = start
			}
		}
		// A loaded record keeps no checksum.
		e.Sum = ""
		switch {
		case valid && first:
			first = false
			if e.Status != StatusMeta || e.Meta != meta {
				return refLoaded{err: errors.New("not resumable")}
			}
			if complete {
				l.validEnd = off
			}
		case valid && complete:
			l.validEnd = off
			switch e.Status {
			case StatusAttempt:
				l.attempts++
			case StatusOK, StatusFailed:
				l.final[e.Key] = e
			}
		case valid:
			l.skipped++
		}
		if rerr != nil {
			break
		}
	}
	if any && first {
		l.why = "journal entirely corrupt"
		l.validEnd = 0
	}
	return l
}

// ownLoad loads content with the journal's own codec.
func ownLoad(t *testing.T, content []byte, meta string) refLoaded {
	j := &Journal{path: "fuzz.jsonl"}
	var l refLoaded
	l.validEnd, l.corrupt, l.why, l.err = j.load(content, meta)
	var re *ResumeError
	if l.err != nil && !errors.As(l.err, &re) {
		t.Fatal(l.err)
	}
	if l.err != nil {
		return refLoaded{err: errors.New("not resumable")}
	}
	l.final = map[string]Entry{}
	for _, e := range j.finals {
		if _, dup := l.final[e.Key]; dup {
			t.Fatalf("key %q is loaded twice", e.Key)
		}
		l.final[e.Key] = e
	}
	for k, i := range j.index {
		if i < 0 || i >= len(j.finals) || j.finals[i].Key != k {
			t.Fatalf("key %q is indexed at %d of %d finals", k, i, len(j.finals))
		}
	}
	if len(j.index) != len(j.finals) {
		t.Fatalf("%d keys indexed for %d finals", len(j.index), len(j.finals))
	}
	if j.sorted && !slices.IsSortedFunc(j.finals, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) }) {
		t.Fatal("finals marked sorted out of key order")
	}
	l.attempts, l.skipped = j.Attempts, j.Skipped
	return l
}

// sameEntries compares two loaded maps, treating an empty and a nil
// Value alike.
func sameEntries(a, b map[string]Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ea := range a {
		eb, ok := b[k]
		if !ok || !bytes.Equal(ea.Value, eb.Value) {
			return false
		}
		ea.Value, eb.Value = nil, nil
		if !reflect.DeepEqual(ea, eb) {
			return false
		}
	}
	return true
}

// FuzzEntryCodec checks the journal's codec against the reference: an
// entry encodes to the bytes json.Marshal gives, or fails where it
// fails, and a journal of the entry's line, the same line with a space
// json.Marshal would not write, and fuzzed lines loads exactly as the
// reference loads it: the same records, counts, valid end and verdict.
func FuzzEntryCodec(f *testing.F) {
	f.Add("ok", "cell alpha c0000", 0, "", "", []byte(`{"value":"synth 136bf7491fa30bc2","consumed":37668}`), "", []byte(""))
	f.Add("attempt", "fig7/x264/CASH", 2, "panic", "panic: <x> &  \x01\xff", []byte(` { "a" : [1, 2.5e3, true, null, "<&> "] } `), "", []byte("\n"))
	f.Add("failed", "k", -9, "timeout", "tab\there", []byte(`"\ud800A\\"`), "", []byte(`{"status":"ok","key":"x","sum":"00000000"}`+"\n"))
	f.Add("meta", "", 0, "", "", []byte(nil), "cash-journal v3 seed=1 {Scale:0.1}", []byte("not json\n{\n"))
	f.Add("ok", "bad", 1, "", "", []byte(`{"a":}`), "", []byte(`{"status":"meta","meta":"fuzz","sum":"00000000"}`))
	f.Add("ok", "deep", 1, "", "", bytes.Repeat([]byte("["), 80), "", []byte(""))
	f.Add("ok", "null", 1, "", "", []byte(`null`), "", []byte(`{"status":"ok","key":"null","value":null,"sum":"f0e1c2a3"}`+"\n"))
	f.Fuzz(func(t *testing.T, status, key string, attempt int, kind, errText string, value []byte, meta string, extra []byte) {
		e := Entry{Status: status, Key: key, Attempt: attempt, Kind: kind, Error: errText, Value: value, Meta: meta, Sum: "stale"}
		want, werr := refLine(e)
		got, gerr := appendLine(nil, e)
		if (werr != nil) != (gerr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("entry %+v encodes as\n%q (%v)\njson.Marshal gives\n%q (%v)", e, got, gerr, want, werr)
		}
		if gerr != nil {
			return
		}
		header, _ := appendLine(nil, Entry{Status: StatusMeta, Meta: "fuzz"})
		spaced := append([]byte("{ "), got[1:]...)
		for _, content := range [][]byte{
			bytes.Join([][]byte{header, got, spaced, extra, got}, nil),
			bytes.Join([][]byte{extra, header, got}, nil),
		} {
			ref, own := refLoad(content, "fuzz"), ownLoad(t, content, "fuzz")
			if (ref.err != nil) != (own.err != nil) || ref.attempts != own.attempts || ref.skipped != own.skipped ||
				ref.validEnd != own.validEnd || ref.corrupt != own.corrupt || ref.why != own.why ||
				!sameEntries(ref.final, own.final) {
				t.Fatalf("journal %q\nloads as %+v\nreference %+v", content, own, ref)
			}
		}
	})
}

// TestCanonicalLinesTakeTheFastPath: the lines the daemon and the
// harness write are read without encoding/json.
func TestCanonicalLinesTakeTheFastPath(t *testing.T) {
	for _, e := range []Entry{
		{Status: StatusMeta, Meta: "cashd/1"},
		{Status: StatusOK, Key: "submit idem-a", Value: json.RawMessage(`{"spec":{"name":"alpha","cells":6,"seed":11}}`)},
		{Status: StatusOK, Key: "cell alpha c0000", Value: json.RawMessage(`{"value":"synth 136bf7491fa30bc2","consumed":37668}`)},
		{Status: StatusAttempt, Key: "fig7/x264/CASH", Attempt: 3, Kind: "error", Error: "boom"},
		{Status: StatusOK, Key: "k", Value: json.RawMessage(`[1,-0.5e+3,{"a":"é\n"},true,false,null,"é"]`)},
	} {
		line, err := appendLine(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		got, sumOK, ok := decodeLine(bytes.TrimSpace(line))
		e.Sum = got.Sum
		if !ok || !sumOK || !reflect.DeepEqual(got, e) {
			t.Errorf("line %s decodes as %+v (sum ok %v, canonical %v)", line, got, sumOK, ok)
		}
	}
}
