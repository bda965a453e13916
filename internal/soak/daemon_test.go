package soak

import "testing"

// TestDaemonSoak is cashd's crash-safety story in miniature: seeded
// wire faults on every connection, kill + restart cycles, and a clean
// replay that must reach the identical digest.
func TestDaemonSoak(t *testing.T) {
	sh, seeds := daemonShape{tenants: 4, cells: 3, kills: 2}, 2
	if testing.Short() {
		sh.kills, seeds = 1, 1
	}
	rep, err := run(daemonSuite(sh), Options{Seeds: seeds, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("daemon soak failed:\n%s", rep.Summary())
	}
	for _, r := range rep.Results {
		kills, cells := r.Counters[0].Value, r.Counters[1].Value
		if kills != int64(sh.kills) || cells != int64(sh.tenants*sh.cells) || len(r.Digest) != 16 {
			t.Fatalf("seed %d: %d kills, %d cells, digest %q; want %d, %d and 16 hex digits",
				r.Seed, kills, cells, r.Digest, sh.kills, sh.tenants*sh.cells)
		}
	}
}
