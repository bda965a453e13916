package fleet

import "testing"

func TestEnvelopeGrantSettleRefund(t *testing.T) {
	root := NewRootEnvelope("root", 1000)
	a := root.Child("a", 600)
	b := root.Child("b", 600)

	if err := a.Grant(500); err != nil {
		t.Fatalf("grant within limits: %v", err)
	}
	// Root has 500 left; b's own 600 limit no longer fits.
	if err := b.Grant(600); err == nil {
		t.Fatal("grant exceeding root headroom accepted")
	}
	if err := b.Grant(400); err != nil {
		t.Fatalf("grant within remaining root headroom: %v", err)
	}
	if err := a.Settle(500, 300); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if a.Consumed() != 300 || a.Refunded() != 200 {
		t.Fatalf("a consumed/refunded = %d/%d, want 300/200", a.Consumed(), a.Refunded())
	}
	// The refund propagated: root headroom is 1000 - 900 + 200 = 300.
	if got := root.Available(); got != 300 {
		t.Fatalf("root available = %d, want 300", got)
	}
	if err := b.Refund(400); err != nil {
		t.Fatalf("refund: %v", err)
	}
	if !a.Reconciled() || !b.Reconciled() || !root.Reconciled() {
		t.Fatal("envelopes not reconciled after full settle/refund")
	}
	if root.Granted() != 900 || root.Consumed() != 300 || root.Refunded() != 600 {
		t.Fatalf("root totals = %d/%d/%d", root.Granted(), root.Consumed(), root.Refunded())
	}
}

func TestEnvelopeRejectsBadAmounts(t *testing.T) {
	root := NewRootEnvelope("root", 100)
	if err := root.Grant(-1); err == nil {
		t.Fatal("negative grant accepted")
	}
	if err := root.Grant(60); err != nil {
		t.Fatal(err)
	}
	if err := root.Settle(60, 70); err == nil {
		t.Fatal("consuming more than the grant accepted")
	}
	if err := root.Settle(80, 10); err == nil {
		t.Fatal("settling more than outstanding accepted")
	}
}

func TestCutToFitResolvesOversubscription(t *testing.T) {
	root := NewRootEnvelope("root", 1000)
	root.Child("a", 700)
	root.Child("b", 700)
	root.Child("c", 100)

	cuts := root.CutToFit()
	if len(cuts) == 0 {
		t.Fatal("oversubscribed tree produced no cuts")
	}
	var sum Nanos
	for _, c := range root.children {
		sum += c.limit
	}
	if sum != 1000 {
		t.Fatalf("child limits sum to %d after cut, want 1000", sum)
	}
	// Proportionality: a and b were equal, so they stay equal.
	if root.children[0].limit != root.children[1].limit {
		t.Fatalf("equal children cut unequally: %d vs %d",
			root.children[0].limit, root.children[1].limit)
	}
	// Deterministic: rebuilding the same tree yields the same cuts.
	root2 := NewRootEnvelope("root", 1000)
	root2.Child("a", 700)
	root2.Child("b", 700)
	root2.Child("c", 100)
	cuts2 := root2.CutToFit()
	if len(cuts) != len(cuts2) {
		t.Fatalf("cut count differs across identical trees: %d vs %d", len(cuts), len(cuts2))
	}
	for i := range cuts {
		if cuts[i] != cuts2[i] {
			t.Fatalf("cut %d differs: %+v vs %+v", i, cuts[i], cuts2[i])
		}
	}
}

func TestCutToFitRespectsCommitments(t *testing.T) {
	root := NewRootEnvelope("root", 100)
	a := root.Child("a", 90)
	root.Child("b", 90)
	if err := a.Grant(80); err != nil {
		t.Fatal(err)
	}
	root.CutToFit()
	if a.limit < 80 {
		t.Fatalf("cut below a's committed 80: limit %d", a.limit)
	}
	if a.limit+root.children[1].limit > 100+80 {
		// The floor can keep the tree infeasible, but b must have been cut
		// as far as the calculus allows.
		t.Fatalf("b not cut: limits %d + %d", a.limit, root.children[1].limit)
	}
}

func TestCutToFitNestedTree(t *testing.T) {
	root := NewRootEnvelope("root", 1000)
	team := root.Child("team", 2000)
	team.Child("x", 900)
	team.Child("y", 900)
	cuts := root.CutToFit()
	// team is cut to 1000, then x+y (1800) must be cut to fit 1000.
	if team.limit != 1000 {
		t.Fatalf("team limit = %d, want 1000", team.limit)
	}
	var sum Nanos
	for _, c := range team.children {
		sum += c.limit
	}
	if sum != 1000 {
		t.Fatalf("nested children sum to %d, want 1000", sum)
	}
	if len(cuts) != 3 {
		t.Fatalf("expected 3 cuts (team, x, y), got %v", cuts)
	}
}

func TestLeaseLifecycle(t *testing.T) {
	root := NewRootEnvelope("root", 1000)
	l := &Lease{ID: 1, Grant: 100, envelope: root}
	if err := root.Grant(l.Grant); err != nil {
		t.Fatal(err)
	}
	if err := l.settle(80); err != nil {
		t.Fatal(err)
	}
	if l.State != LeaseSettled {
		t.Fatalf("state = %v, want settled", l.State)
	}
	if err := l.settle(80); err == nil {
		t.Fatal("double settle accepted")
	}
	if err := l.revoke(); err == nil {
		t.Fatal("revoking a settled lease accepted")
	}
	if root.Consumed() != 80 || root.Refunded() != 20 {
		t.Fatalf("root consumed/refunded = %d/%d", root.Consumed(), root.Refunded())
	}
}
