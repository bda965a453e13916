package oracle

import (
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"cash/internal/isim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// On-disk compatibility goldens. Cache keys and CASHORACLE3 file bytes
// are a contract with every cache file already on users' disks: a
// change to either silently orphans those files (every lookup misses
// and the 64-configuration sweep reruns from scratch). These goldens
// fail on any such change, so it can only happen on purpose — with a
// new cache magic and a LoadCache migration story.

// TestAppKeyGolden pins the application digest of two suite apps.
// Retuning either app's definition legitimately changes its key; update
// the golden then. Anything else moving it is a key-scheme change.
func TestAppKeyGolden(t *testing.T) {
	for _, c := range []struct{ app, want string }{
		{"x264", "x264#3ca7feadebb82431"},
		{"hmmer", "hmmer#0aab67b7716d6432"},
	} {
		app, ok := workload.ByName(c.app)
		if !ok {
			t.Fatalf("%s missing from the suite", c.app)
		}
		if got := appKey(app); got != c.want {
			t.Errorf("appKey(%s) = %q, want %q — existing cache files would be orphaned", c.app, got, c.want)
		}
	}
}

// TestSaveCacheGolden pins the CRC32 of a SaveCache file over a fixed
// entry set spanning two apps, several configurations and the cycle,
// interval and sampled tiers.
func TestSaveCacheGolden(t *testing.T) {
	const want = 0x73eb078c
	db := NewDB()
	x264, _ := workload.ByName("x264")
	apps := []workload.App{x264, tinyApp()}
	v := 0.0
	for _, tier := range []isim.Tier{isim.TierCycle, isim.TierInterval, isim.TierSampled} {
		db.Tier = tier
		for _, app := range apps {
			for i, cfg := range vcore.Space() {
				if i%9 != 0 {
					continue
				}
				ch := Char{Avg: make([]float64, len(app.Phases)), MinQ: make([]float64, len(app.Phases))}
				for pi := range app.Phases {
					v += 0.0625
					ch.Avg[pi] = v
					ch.MinQ[pi] = v / 3
				}
				db.cache[db.key(app, cfg)] = ch
			}
		}
	}
	path := filepath.Join(t.TempDir(), "oracle.gob")
	if err := db.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := crc32.ChecksumIEEE(raw); got != want {
		t.Errorf("SaveCache file CRC32 = %#08x over %d entries, want %#08x — the CASHORACLE3 bytes changed", got, db.Entries(), uint32(want))
	}
}
