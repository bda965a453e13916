package client

import (
	"math"

	"cash/internal/daemon"
	"cash/internal/supervise"
)

// SpendDecoder reads a query-spend answer in one pass, straight from
// the frame payload into a daemon.SpendResult. encoding/json would scan
// the payload four times and copy the result twice: once into the
// Response, validating and then decoding it with Result kept as a
// json.RawMessage, and again from Result into the SpendResult.
//
// It reads, with supervise.Canon, exactly the payload the daemon
// writes for the answer: json.Marshal's form of
// {"id":N,"code":"OK","result":{"root_granted":…,"tenants":[{"name":…},…]}},
// every key in its place, no whitespace, integers that fit their
// fields, and names in any form json.Marshal writes a string. Anything
// else, a stray frame for another request or a stream event included,
// it declines without touching the caller's result, and the client
// decodes that payload with encoding/json. That path defines the
// answer: where the decoder accepts a payload, it yields what
// encoding/json yields.
//
// The zero value is ready to use. A decoder keeps its scratch from
// answer to answer: the rows without their names, every name's bytes
// back to back, and where each name ends. A decoded answer then costs
// one exactly sized row slice and one string that holds all its names.
type SpendDecoder struct {
	rows  []daemon.TenantSpend
	names []byte
	ends  []int
}

// Decode reads payload as the answer to request id and reports
// whether it did; dst is written only when it did.
func (d *SpendDecoder) Decode(payload []byte, id uint64, dst *daemon.SpendResult) bool {
	d.rows, d.names, d.ends = d.rows[:0], d.names[:0], d.ends[:0]
	var res daemon.SpendResult
	c := supervise.NewCanon(payload)
	c.Lit(`{"id":`)
	gotID := c.Uint(math.MaxUint64)
	c.Lit(`,"code":"OK","result":{"root_granted":`)
	res.RootGranted = c.Int()
	c.Lit(`,"root_consumed":`)
	res.RootConsumed = c.Int()
	c.Lit(`,"root_refunded":`)
	res.RootRefunded = c.Int()
	c.Lit(`,"root_outstanding":`)
	res.RootOutstanding = c.Int()
	c.Lit(`,"tenants":[`)
	fits := true // every landed and cells count fits an int
	if !c.Opt("]") {
		for {
			var t daemon.TenantSpend
			c.Lit(`{"name":`)
			d.names = append(d.names, c.Text()...)
			c.Lit(`,"granted":`)
			t.Granted = c.Int()
			c.Lit(`,"consumed":`)
			t.Consumed = c.Int()
			c.Lit(`,"refunded":`)
			t.Refunded = c.Int()
			c.Lit(`,"outstanding":`)
			t.Outstanding = c.Int()
			c.Lit(`,"landed":`)
			landed := c.Int()
			c.Lit(`,"cells":`)
			cells := c.Int()
			c.Lit("}")
			t.Landed, t.Cells = int(landed), int(cells)
			fits = fits && int64(t.Landed) == landed && int64(t.Cells) == cells
			d.rows = append(d.rows, t)
			d.ends = append(d.ends, len(d.names))
			if !c.Opt(",") {
				break
			}
		}
		c.Lit("]")
	}
	c.Lit("}}")
	if !c.Done() || !fits || gotID != id {
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
