package client

import (
	"bytes"
	"encoding/json"
	"math"

	"cash/internal/daemon"
)

// SpendDecoder reads a query-spend answer in one pass, straight from
// the frame payload into a daemon.SpendResult. encoding/json would scan
// the payload four times and copy the result twice: once into the
// Response, validating and then decoding it with Result kept as a
// json.RawMessage, and again from Result into the SpendResult.
//
// It reads exactly the frames the daemon writes for the answer,
// {"id":N,"code":"OK","result":{"root_granted":…,"tenants":[{"name":…},…]}},
// with every key once, in any order, any JSON whitespace between
// tokens, and "event":false allowed. Every number must be a JSON
// integer that fits its field, and every key and the code must be
// unescaped and match byte for byte, because encoding/json also folds
// case. Anything else, a stray frame for another request or a stream
// event included, it declines without touching the caller's result,
// and the client decodes that payload with encoding/json. That path
// defines the answer: where the decoder accepts a payload, it yields
// what encoding/json yields.
//
// The zero value is ready to use. A decoder keeps its scratch from
// answer to answer: the rows without their names, every name's bytes
// back to back, and where each name ends. A decoded answer then costs
// one exactly sized row slice and one string that holds all its names.
type SpendDecoder struct {
	b []byte
	i int

	rows  []daemon.TenantSpend
	names []byte
	ends  []int
}

// Key bits of the frame, of the result and of a tenant row, and the
// keys each must hold: all of them but "event".
const (
	keyID = 1 << iota
	keyCode
	keyEvent
	keyResult

	frameKeys = keyID | keyCode | keyResult
)

const (
	keyRootGranted = 1 << iota
	keyRootConsumed
	keyRootRefunded
	keyRootOutstanding
	keyTenants

	resultKeys = 1<<iota - 1
)

const (
	keyName = 1 << iota
	keyGranted
	keyConsumed
	keyRefunded
	keyOutstanding
	keyLanded
	keyCells

	rowKeys = 1<<iota - 1
)

// Decode reads payload as the answer to request id and reports
// whether it did; dst is written only when it did.
func (d *SpendDecoder) Decode(payload []byte, id uint64, dst *daemon.SpendResult) bool {
	d.b, d.i = payload, 0
	d.rows, d.names, d.ends = d.rows[:0], d.names[:0], d.ends[:0]
	var (
		gotID uint64
		res   daemon.SpendResult
	)
	ok := d.object(frameKeys, func(key []byte) (int, bool) {
		switch string(key) {
		case "id":
			d.ws()
			n, ok := d.readUint(math.MaxUint64)
			gotID = n
			return keyID, ok
		case "code":
			return keyCode, d.literal(`"OK"`)
		case "event":
			return keyEvent, d.literal("false")
		case "result":
			return keyResult, d.result(&res)
		}
		return 0, false
	})
	if !ok || d.ws() != len(d.b) || gotID != id {
		return false
	}
	all := string(d.names)
	res.Tenants = make([]daemon.TenantSpend, len(d.rows))
	copy(res.Tenants, d.rows)
	start := 0
	for i, end := range d.ends {
		res.Tenants[i].Name = all[start:end]
		start = end
	}
	*dst = res
	return true
}

// result reads the spend result object into res, whose tenant rows go
// to the decoder's scratch.
func (d *SpendDecoder) result(res *daemon.SpendResult) bool {
	return d.object(resultKeys, func(key []byte) (int, bool) {
		switch string(key) {
		case "root_granted":
			return keyRootGranted, d.readInt64(&res.RootGranted)
		case "root_consumed":
			return keyRootConsumed, d.readInt64(&res.RootConsumed)
		case "root_refunded":
			return keyRootRefunded, d.readInt64(&res.RootRefunded)
		case "root_outstanding":
			return keyRootOutstanding, d.readInt64(&res.RootOutstanding)
		case "tenants":
			return keyTenants, d.tenants()
		}
		return 0, false
	})
}

// tenants reads the array of tenant rows.
func (d *SpendDecoder) tenants() bool {
	if !d.literal("[") {
		return false
	}
	if d.literal("]") {
		return true
	}
	for {
		if !d.row() {
			return false
		}
		switch d.next() {
		case ',':
		case ']':
			return true
		default:
			return false
		}
	}
}

// row reads one tenant row: its numbers into a new scratch row, its
// name onto the name bytes.
func (d *SpendDecoder) row() bool {
	var t daemon.TenantSpend
	ok := d.object(rowKeys, func(key []byte) (int, bool) {
		switch string(key) {
		case "name":
			return keyName, d.name()
		case "granted":
			return keyGranted, d.readInt64(&t.Granted)
		case "consumed":
			return keyConsumed, d.readInt64(&t.Consumed)
		case "refunded":
			return keyRefunded, d.readInt64(&t.Refunded)
		case "outstanding":
			return keyOutstanding, d.readInt64(&t.Outstanding)
		case "landed":
			return keyLanded, d.readInt(&t.Landed)
		case "cells":
			return keyCells, d.readInt(&t.Cells)
		}
		return 0, false
	})
	if !ok {
		return false
	}
	d.rows = append(d.rows, t)
	d.ends = append(d.ends, len(d.names))
	return true
}

// object reads a JSON object whose keys are field's to read: field
// reads the value after the colon and returns its key's bit, and the
// object must hold each key of want exactly once and no other.
func (d *SpendDecoder) object(want int, field func(key []byte) (int, bool)) bool {
	if !d.literal("{") {
		return false
	}
	seen := 0
	for {
		key, ok := d.key()
		if !ok || !d.literal(":") {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		switch d.next() {
		case ',':
		case '}':
			return seen&want == want
		default:
			return false
		}
	}
}

// key reads an object key. It does not unescape: a key with an escape
// or a control byte never matches a known key, so the caller falls
// back on it, and a key that matches holds no backslash, so the quote
// that ends it is the closing quote.
func (d *SpendDecoder) key() ([]byte, bool) {
	if d.next() != '"' {
		return nil, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	key := d.b[d.i : d.i+n]
	d.i += n + 1
	return key, true
}

// name appends a tenant name to the name bytes. A name with an escape
// or a non-ASCII byte is unquoted by encoding/json, so that escapes,
// U+2028 and invalid UTF-8 (read as U+FFFD) come out as they do there.
func (d *SpendDecoder) name() bool {
	if d.next() != '"' {
		return false
	}
	b, start := d.b, d.i
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.names = append(d.names, b[start:i]...)
			d.i = i + 1
			return true
		case c < 0x20:
			return false
		case c == '\\' || c >= 0x80:
			d.i = i
			return d.escapedName(start - 1)
		}
	}
	return false
}

// escapedName unquotes the string token that opens at b[start].
func (d *SpendDecoder) escapedName(start int) bool {
	for ; d.i < len(d.b); d.i++ {
		switch d.b[d.i] {
		case '\\':
			d.i++
		case '"':
			d.i++
			var s string
			if json.Unmarshal(d.b[start:d.i], &s) != nil {
				return false
			}
			d.names = append(d.names, s...)
			return true
		}
	}
	return false
}

// readInt64 reads a JSON integer that fits an int64.
func (d *SpendDecoder) readInt64(v *int64) bool {
	neg := d.ws() < len(d.b) && d.b[d.i] == '-'
	if neg {
		d.i++
	}
	n, ok := d.readUint(math.MaxInt64 + 1)
	switch {
	case !ok:
		return false
	case neg:
		*v = -int64(n)
	case n > math.MaxInt64:
		return false
	default:
		*v = int64(n)
	}
	return true
}

// readInt reads a JSON integer that fits an int.
func (d *SpendDecoder) readInt(v *int) bool {
	var n int64
	if !d.readInt64(&n) || n < math.MinInt || n > math.MaxInt {
		return false
	}
	*v = int(n)
	return true
}

// readUint reads an unsigned JSON integer no larger than max: no sign, no
// leading zero, and no fraction or exponent, which the caller's next
// token check rejects.
func (d *SpendDecoder) readUint(max uint64) (uint64, bool) {
	b, start, i := d.b, d.i, d.i
	var n uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		c := uint64(b[i] - '0')
		// No 18-digit number overflows an int64.
		if i-start >= 18 && n > (max-c)/10 {
			return 0, false
		}
		n = n*10 + c
	}
	d.i = i
	return n, i-start == 1 || i-start > 1 && b[start] != '0'
}

// literal consumes s, after any whitespace, if it comes next.
func (d *SpendDecoder) literal(s string) bool {
	d.ws()
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// next consumes and returns the byte after any whitespace, or 0 at the
// end of the payload.
func (d *SpendDecoder) next() byte {
	if d.ws() == len(d.b) {
		return 0
	}
	d.i++
	return d.b[d.i-1]
}

// ws skips JSON whitespace and returns the new position.
func (d *SpendDecoder) ws() int {
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	d.i = i
	return i
}
