package fleet

import (
	"fmt"
	"sort"
)

// The budget calculus is jobtree-style: a hierarchy of envelopes funds
// work, leases record consumption against it, and oversubscription is
// resolved by structural cuts that shrink child limits until the tree
// is feasible again. All amounts are integer nanodollars so
// reconciliation is exact — "granted = consumed + refunded" is an
// integer identity, not a floating-point approximation, and fleet
// digests never depend on summation order.

// Nanos is a money amount in nanodollars (1e-9 $).
type Nanos = int64

// Dollars converts nanodollars to dollars for reporting.
func Dollars(n Nanos) float64 { return float64(n) / 1e9 }

// Envelope is one node of the budget tree. An envelope's limit caps the
// total it will ever fund (consumed plus outstanding reservations);
// grants reserve headroom at the envelope and every ancestor, and every
// granted nanodollar is eventually either consumed or refunded.
type Envelope struct {
	Name string

	parent   *Envelope
	children []*Envelope

	limit    Nanos // lifetime funding cap
	granted  Nanos // cumulative grants
	consumed Nanos // cumulative settled consumption
	refunded Nanos // cumulative refunds
}

// NewRootEnvelope builds the root of a budget tree with the given funds.
func NewRootEnvelope(name string, funds Nanos) *Envelope {
	return &Envelope{Name: name, limit: funds}
}

// Child adds and returns a sub-envelope with its own limit. Children
// may oversubscribe the parent on paper; CutToFit resolves that
// structurally before admission starts.
func (e *Envelope) Child(name string, limit Nanos) *Envelope {
	c := &Envelope{Name: name, parent: e, limit: limit}
	e.children = append(e.children, c)
	return c
}

// Granted, Consumed and Refunded return the cumulative totals.
func (e *Envelope) Granted() Nanos  { return e.granted }
func (e *Envelope) Consumed() Nanos { return e.consumed }
func (e *Envelope) Refunded() Nanos { return e.refunded }

// Outstanding is the reserved-but-unsettled amount.
func (e *Envelope) Outstanding() Nanos { return e.granted - e.consumed - e.refunded }

// Available is the headroom left under the limit.
func (e *Envelope) Available() Nanos { return e.limit - (e.granted - e.refunded) }

// Reconciled reports the exactly-once billing identity: every granted
// nanodollar was either consumed or refunded, with nothing outstanding.
func (e *Envelope) Reconciled() bool { return e.granted == e.consumed+e.refunded }

// Grant reserves amt against this envelope and every ancestor. It fails
// (changing nothing) if any level lacks headroom.
func (e *Envelope) Grant(amt Nanos) error {
	if amt < 0 {
		return fmt.Errorf("fleet: negative grant %d", amt)
	}
	for n := e; n != nil; n = n.parent {
		if n.Available() < amt {
			return fmt.Errorf("fleet: envelope %s has %d nanos available, need %d",
				n.Name, n.Available(), amt)
		}
	}
	for n := e; n != nil; n = n.parent {
		n.granted += amt
	}
	return nil
}

// Settle resolves a grant of amt: consumed is charged, the remainder
// refunded, at this envelope and every ancestor. consumed must not
// exceed the amount still outstanding.
func (e *Envelope) Settle(amt, consumed Nanos) error {
	if consumed < 0 || consumed > amt {
		return fmt.Errorf("fleet: settle consumed %d outside grant %d", consumed, amt)
	}
	if e.Outstanding() < amt {
		return fmt.Errorf("fleet: envelope %s settling %d with only %d outstanding",
			e.Name, amt, e.Outstanding())
	}
	for n := e; n != nil; n = n.parent {
		n.consumed += consumed
		n.refunded += amt - consumed
	}
	return nil
}

// Refund is Settle with zero consumption — the revocation path.
func (e *Envelope) Refund(amt Nanos) error { return e.Settle(amt, 0) }

// Cut records one structural cut applied to an envelope.
type Cut struct {
	Envelope string
	From, To Nanos
}

// CutToFit resolves oversubscription structurally: wherever the sum of
// child limits exceeds a parent's limit, child limits are scaled down
// proportionally (largest-remainder rounding, deterministic index-order
// tie-break) and the cut recurses into any child that is now itself
// oversubscribed. A child is never cut below what it has already
// committed (consumed plus outstanding). The applied cuts are returned
// in tree order.
func (e *Envelope) CutToFit() []Cut {
	var cuts []Cut
	e.cutToFit(&cuts)
	return cuts
}

func (e *Envelope) cutToFit(cuts *[]Cut) {
	var sum Nanos
	for _, c := range e.children {
		sum += c.limit
	}
	if sum > e.limit && sum > 0 {
		// Proportional share by quotient, remainder distributed one nano
		// at a time to the largest fractional remainders (ties broken by
		// child index, so the cut is deterministic).
		type share struct {
			idx int
			rem Nanos
		}
		newLimits := make([]Nanos, len(e.children))
		var assigned Nanos
		shares := make([]share, len(e.children))
		for i, c := range e.children {
			q := c.limit * e.limit / sum // exact: limits are bounded well below 2^31
			newLimits[i] = q
			assigned += q
			shares[i] = share{idx: i, rem: c.limit*e.limit - q*sum}
		}
		sort.SliceStable(shares, func(i, j int) bool {
			if shares[i].rem != shares[j].rem {
				return shares[i].rem > shares[j].rem
			}
			return shares[i].idx < shares[j].idx
		})
		for k := Nanos(0); k < e.limit-assigned; k++ {
			newLimits[shares[int(k)%len(shares)].idx]++
		}
		for i, c := range e.children {
			nl := newLimits[i]
			// Never cut below what the child has already committed.
			if floor := c.consumed + c.Outstanding(); nl < floor {
				nl = floor
			}
			if nl < c.limit {
				*cuts = append(*cuts, Cut{Envelope: c.Name, From: c.limit, To: nl})
				c.limit = nl
			}
		}
	}
	for _, c := range e.children {
		c.cutToFit(cuts)
	}
}

// LeaseState tracks a lease through its lifecycle.
type LeaseState uint8

const (
	// LeaseActive is a live reservation: the placement may still deliver
	// and settle.
	LeaseActive LeaseState = iota
	// LeaseSettled means the placement delivered the winning result and
	// consumed (part of) its grant.
	LeaseSettled
	// LeaseRevoked means the grant was refunded in full — the chip died,
	// the deadline passed, the delivery lost the journal race, or the
	// run drained. A revoked lease's attempt may still be executing
	// somewhere (an orphan); its delivery can land a result but never
	// consumes budget.
	LeaseRevoked
)

// String names the lease state.
func (s LeaseState) String() string {
	switch s {
	case LeaseActive:
		return "active"
	case LeaseSettled:
		return "settled"
	case LeaseRevoked:
		return "revoked"
	}
	return fmt.Sprintf("lease(%d)", s)
}

// Lease is one time-bounded placement: cell work funded by a grant
// against the tenant's envelope, bound to a chip, with a deadline by
// which the result must be delivered.
type Lease struct {
	ID           int64
	Tenant, Cell int
	Chip         int
	// Grant is the reserved amount; Deadline is the fleet tick by which
	// the attempt must deliver or be revoked and re-placed.
	Grant    Nanos
	Deadline int64
	State    LeaseState

	envelope *Envelope
}

// settle consumes part of the grant and refunds the rest.
func (l *Lease) settle(consumed Nanos) error {
	if l.State != LeaseActive {
		return fmt.Errorf("fleet: settling %s lease %d", l.State, l.ID)
	}
	if err := l.envelope.Settle(l.Grant, consumed); err != nil {
		return err
	}
	l.State = LeaseSettled
	return nil
}

// revoke refunds the full grant.
func (l *Lease) revoke() error {
	if l.State != LeaseActive {
		return fmt.Errorf("fleet: revoking %s lease %d", l.State, l.ID)
	}
	if err := l.envelope.Refund(l.Grant); err != nil {
		return err
	}
	l.State = LeaseRevoked
	return nil
}
