package supervise

import (
	"encoding/json"
	"hash/crc32"
	"math"
	"strconv"
)

// The journal's line codec. A journal line is exactly the bytes
// json.Marshal(Entry) gives, with Sum the CRC32 of the bytes it gives
// for the entry with an empty Sum. Sum is the last field and omitted
// when empty, so a line is the checksummed body, minus its closing
// brace, followed by ,"sum":"%08x"}. The encoder writes the body once
// and splices the checksum in. The decoder reads back the form the
// encoder writes and declines anything else, and the loader then falls
// back on encoding/json, so a line's meaning and its checksum verdict
// never depend on which path read it.

// htmlSafe reports which bytes encoding/json copies into a string as
// they are: the printable ASCII ones but the quote, the backslash and
// the three it escapes for HTML.
var htmlSafe = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as encoding/json encodes a string.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !htmlSafe[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendValue appends a raw JSON value as json.Marshal encodes a
// json.RawMessage: compacted, with HTML characters and U+2028/U+2029
// escaped. An invalid value is json.Marshal's error.
func appendValue(dst, v []byte) ([]byte, error) {
	if scanValue(v, 0) == len(v) {
		return append(dst, v...), nil
	}
	b, err := json.Marshal(json.RawMessage(v))
	if err != nil {
		return dst, err
	}
	return append(dst, b...), nil
}

// appendBody appends e without its Sum as json.Marshal encodes it, but
// for the closing brace.
func appendBody(dst []byte, e Entry) ([]byte, error) {
	dst = append(dst, `{"status":`...)
	dst = AppendString(dst, e.Status)
	if e.Key != "" {
		dst = AppendString(append(dst, `,"key":`...), e.Key)
	}
	if e.Attempt != 0 {
		dst = strconv.AppendInt(append(dst, `,"attempt":`...), int64(e.Attempt), 10)
	}
	if e.Kind != "" {
		dst = AppendString(append(dst, `,"kind":`...), e.Kind)
	}
	if e.Error != "" {
		dst = AppendString(append(dst, `,"error":`...), e.Error)
	}
	if len(e.Value) != 0 {
		var err error
		if dst, err = appendValue(append(dst, `,"value":`...), e.Value); err != nil {
			return dst, err
		}
	}
	if e.Meta != "" {
		dst = AppendString(append(dst, `,"meta":`...), e.Meta)
	}
	return dst, nil
}

var closeBrace = []byte{'}'}

// bodySum is the checksum of a body appendBody wrote: the CRC32 of the
// body and its closing brace, as %08x.
func bodySum(body []byte) [8]byte {
	crc := crc32.Update(crc32.ChecksumIEEE(body), crc32.IEEETable, closeBrace)
	const hex = "0123456789abcdef"
	var s [8]byte
	for i := range s {
		s[i] = hex[crc>>(28-4*i)&0xf]
	}
	return s
}

// appendLine appends e's journal line, Sum stamped and newline ended.
// e's own Sum is ignored.
func appendLine(dst []byte, e Entry) ([]byte, error) {
	start := len(dst)
	dst, err := appendBody(dst, e)
	if err != nil {
		return dst[:start], err
	}
	sum := bodySum(dst[start:])
	dst = append(dst, `,"sum":"`...)
	dst = append(dst, sum[:]...)
	return append(dst, "\"}\n"...), nil
}

// decodeLine reads a line appendLine wrote, without its newline. It
// reports whether the line is in that form (ok) and, if so, the entry
// json.Unmarshal would read from it, less its Sum, and whether that
// Sum holds. The entry's Value aliases line.
func decodeLine(line []byte) (e Entry, sumOK, ok bool) {
	c := Canon{b: line}
	str := func() string {
		s := c.Str()
		if len(s) == 0 {
			c.bad = true // an empty field is omitted
		}
		return string(s)
	}
	c.Lit(`{"status":`)
	switch s := c.Str(); string(s) {
	case StatusOK:
		e.Status = StatusOK
	case StatusAttempt:
		e.Status = StatusAttempt
	case StatusFailed:
		e.Status = StatusFailed
	case StatusMeta:
		e.Status = StatusMeta
	default:
		e.Status = string(s)
	}
	if c.Opt(`,"key":`) {
		e.Key = str()
	}
	if c.Opt(`,"attempt":`) {
		if e.Attempt = int(c.Int()); e.Attempt == 0 {
			c.bad = true
		}
	}
	if c.Opt(`,"kind":`) {
		e.Kind = str()
	}
	if c.Opt(`,"error":`) {
		e.Error = str()
	}
	if c.Opt(`,"value":`) {
		e.Value = c.Value()
	}
	if c.Opt(`,"meta":`) {
		e.Meta = str()
	}
	body := c.i
	c.Lit(`,"sum":`)
	sum := c.Str()
	c.Lit("}")
	if !c.Done() || len(sum) == 0 {
		return Entry{}, false, false
	}
	want := bodySum(line[:body])
	return e, string(sum) == string(want[:]), true
}

// decodeAny reads any line json.Unmarshal accepts as an Entry and
// checks its Sum against the entry's encoding. Like decodeLine, it
// returns the entry less its Sum.
func decodeAny(line []byte) (e Entry, sumOK bool) {
	if err := json.Unmarshal(line, &e); err != nil {
		return Entry{}, false
	}
	sum := e.Sum
	e.Sum = ""
	body, err := appendBody(nil, e)
	if err != nil {
		return e, false
	}
	want := bodySum(body)
	return e, sum == string(want[:])
}

// Canon reads JSON in the form encoding/json writes, token by token in
// the order its caller asks for them: no whitespace, integers in their
// shortest form, strings as Str or Text reads them. Each read consumes
// its token or marks the reader failed; once it has failed, reads
// return zero values and Done reports false. What Canon accepts, it
// reads as json.Unmarshal reads it; a caller that meets a failed reader
// decodes the same bytes with encoding/json instead, which decides the
// rest. Its users are the journal line codec (decodeLine), the daemon's
// submit and cell records, and the cashd client's query-spend decoder.
type Canon struct {
	b   []byte
	i   int
	bad bool
}

// NewCanon returns a reader of b.
func NewCanon(b []byte) *Canon { return &Canon{b: b} }

// Lit consumes the literal s.
func (c *Canon) Lit(s string) {
	if !c.Opt(s) {
		c.bad = true
	}
}

// Opt consumes the literal s if it comes next and reports whether it
// did.
func (c *Canon) Opt(s string) bool {
	if c.bad || len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

// Str consumes a string of printable ASCII with nothing escaped and
// returns its bytes, which alias the input.
func (c *Canon) Str() []byte {
	s, ok := c.plain()
	if !ok {
		c.bad = true
	}
	return s
}

// plain consumes a string of bytes that encoding/json copies as they
// are, if one comes next, and returns its bytes, which alias the input.
func (c *Canon) plain() ([]byte, bool) {
	if c.bad || c.i >= len(c.b) || c.b[c.i] != '"' {
		return nil, false
	}
	j := c.i + 1
	for j < len(c.b) && htmlSafe[c.b[j]] {
		j++
	}
	if j == len(c.b) || c.b[j] != '"' {
		return nil, false
	}
	s := c.b[c.i+1 : j]
	c.i = j + 1
	return s, true
}

// Text consumes a string in any form json.Marshal writes one and
// returns the bytes json.Unmarshal reads from it. They alias the input
// when Str would read the string; otherwise encoding/json unquotes it,
// escapes, non-ASCII and invalid UTF-8 (read as U+FFFD) included.
func (c *Canon) Text() []byte {
	if s, ok := c.plain(); ok || c.bad {
		return s
	}
	n := scanString(c.b[c.i:])
	var s string
	if n < 0 || json.Unmarshal(c.b[c.i:c.i+n], &s) != nil {
		c.bad = true
		return nil
	}
	c.i += n
	return []byte(s)
}

// Uint consumes an unsigned integer no larger than max.
func (c *Canon) Uint(max uint64) uint64 {
	if c.bad {
		return 0
	}
	var v uint64
	lim, last := max/10, max%10 // v*10+d fits if v < lim, or v == lim and d <= last
	j := c.i
	for ; j < len(c.b) && c.b[j] >= '0' && c.b[j] <= '9'; j++ {
		d := uint64(c.b[j] - '0')
		if v > lim || v == lim && d > last {
			c.bad = true
			return 0
		}
		v = v*10 + d
	}
	if j == c.i || (c.b[c.i] == '0' && j > c.i+1) {
		c.bad = true
		return 0
	}
	c.i = j
	return v
}

// Int consumes a signed 64-bit integer.
func (c *Canon) Int() int64 {
	if c.Opt("-") {
		v := c.Uint(math.MaxInt64 + 1)
		if v == 0 {
			c.bad = true // -0 reads as 0, which encodes as 0
		}
		return int64(-v)
	}
	return int64(c.Uint(math.MaxInt64))
}

// Value consumes a JSON value as json.Marshal writes a
// json.RawMessage and returns its bytes, which alias the input.
func (c *Canon) Value() []byte {
	if c.bad {
		return nil
	}
	n := scanValue(c.b[c.i:], 0)
	if n < 0 {
		c.bad = true
		return nil
	}
	v := c.b[c.i : c.i+n]
	c.i += n
	return v
}

// Done reports whether every read succeeded and the input is used up.
func (c *Canon) Done() bool { return !c.bad && c.i == len(c.b) }

// maxScanDepth bounds how deeply scanValue nests; a deeper value is
// left to encoding/json.
const maxScanDepth = 64

// scanValue returns the length of the JSON value at the start of b if
// it is valid and in the form json.Marshal writes a json.RawMessage:
// no whitespace, and no HTML character or U+2028/U+2029 inside a
// string. It returns -1 otherwise.
func scanValue(b []byte, depth int) int {
	if len(b) == 0 {
		return -1
	}
	switch c := b[0]; {
	case c == '"':
		return scanString(b)
	case c == '{', c == '[':
		if depth == maxScanDepth {
			return -1
		}
		end := byte('}')
		if c == '[' {
			end = ']'
		}
		i := 1
		if i < len(b) && b[i] == end {
			return 2
		}
		for {
			if c == '{' {
				n := scanString(b[i:])
				if n < 0 || i+n >= len(b) || b[i+n] != ':' {
					return -1
				}
				i += n + 1
			}
			n := scanValue(b[i:], depth+1)
			if n < 0 || i+n >= len(b) {
				return -1
			}
			i += n
			switch b[i] {
			case ',':
				i++
			case end:
				return i + 1
			default:
				return -1
			}
		}
	case c == 't':
		return scanLit(b, "true")
	case c == 'f':
		return scanLit(b, "false")
	case c == 'n':
		return scanLit(b, "null")
	}
	return scanNumber(b)
}

func scanLit(b []byte, lit string) int {
	if len(b) < len(lit) || string(b[:len(lit)]) != lit {
		return -1
	}
	return len(lit)
}

// scanString returns the length of the string at the start of b, or -1
// (see scanValue).
func scanString(b []byte) int {
	if len(b) == 0 || b[0] != '"' {
		return -1
	}
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20, c == '<', c == '>', c == '&':
			return -1
		case c == 0xe2 && i+2 < len(b) && b[i+1] == 0x80 && b[i+2]&^1 == 0xa8:
			return -1
		case c == '\\':
			i++
			if i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return -1
				}
				for _, h := range b[i+1 : i+5] {
					if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
						return -1
					}
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

// scanNumber returns the length of the number at the start of b, or -1.
func scanNumber(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := func() int {
		n := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return -1
		}
	}
	return i
}
