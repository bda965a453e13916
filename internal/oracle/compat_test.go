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

// legacySampledTag is the tier suffix the removed sampled tier wrote at
// its default geometry. Cache files already on disk may hold cells under
// it; the golden keeps writing them so the pinned bytes still cover a
// file with such entries.
const legacySampledTag = "@tier=sampled/w50000/s1000000"

// TestSaveCacheGolden pins the CRC32 of a SaveCache file over a fixed
// entry set spanning two apps, several configurations, the cycle and
// interval tiers and legacy sampled-tier rows, then loads the file into
// a fresh DB and reads one cycle cell and one interval cell from it
// without measuring: a file holding legacy sampled entries still loads.
func TestSaveCacheGolden(t *testing.T) {
	const want = 0x73eb078c
	db := NewDB()
	x264, _ := workload.ByName("x264")
	apps := []workload.App{x264, tinyApp()}
	v := 0.0
	for _, tier := range []string{"cycle", "interval", "sampled"} {
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
				var k string
				switch tier {
				case "cycle":
					db.Tier = isim.TierCycle
					k = db.key(app, cfg)
				case "interval":
					db.Tier = isim.TierInterval
					k = db.key(app, cfg)
				default:
					k = appKey(app) + "@" + cfg.String() + legacySampledTag
				}
				db.cache[k] = ch
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

	loaded := NewDB()
	if err := loaded.LoadCache(path); err != nil {
		t.Fatalf("LoadCache of a file with legacy sampled entries: %v", err)
	}
	if loaded.Entries() != db.Entries() {
		t.Errorf("loaded %d entries, saved %d", loaded.Entries(), db.Entries())
	}
	cfg := vcore.Space()[0]
	for _, tier := range []isim.Tier{isim.TierCycle, isim.TierInterval} {
		db.Tier, loaded.Tier = tier, tier
		want := db.cache[db.key(x264, cfg)]
		got := loaded.Characterize(x264, cfg)
		if got.Avg[0] != want.Avg[0] || got.MinQ[0] != want.MinQ[0] {
			t.Errorf("%v cell read back as %v/%v, saved %v/%v", tier, got.Avg[0], got.MinQ[0], want.Avg[0], want.MinQ[0])
		}
	}
	if loaded.measured != 0 {
		t.Errorf("reading cached cells measured %d; both must hit the loaded cache", loaded.measured)
	}
}
