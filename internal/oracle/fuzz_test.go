package oracle

import (
	"math"
	"path/filepath"
	"testing"
)

// FuzzLoadCache fuzzes the gob payload of a cache file behind a valid
// magic (v3, or v2 when v2 is set) and checksum. LoadCache must refuse
// the file or merge only entries a measurement could have produced:
// Avg and MinQ of one non-zero length, every IPC finite and
// non-negative. The committed corpus holds a one-phase entry with a
// NaN MinQ, which LoadCache once merged.
func FuzzLoadCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, v2 bool) {
		path := filepath.Join(t.TempDir(), "oracle.gob")
		magic := cacheMagic
		if v2 {
			magic = cacheMagicV2
		}
		writeCachePayload(t, path, magic, payload)
		db := NewDB()
		if err := db.LoadCache(path); err != nil {
			return
		}
		for k, c := range db.cache {
			if len(c.Avg) == 0 || len(c.Avg) != len(c.MinQ) {
				t.Fatalf("merged entry %q with %d Avg and %d MinQ phases", k, len(c.Avg), len(c.MinQ))
			}
			for _, v := range append(append([]float64(nil), c.Avg...), c.MinQ...) {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("merged entry %q holding IPC %v", k, v)
				}
			}
		}
	})
}
