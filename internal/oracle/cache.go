package oracle

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

// Persistent characterisation cache. The brute-force sweep of §V-C is
// deterministic (fixed seeds, fixed timing model), so its results can
// be reused across processes; the harness loads the cache on start and
// saves after characterising. Keys embed the full application
// definition, so stale entries are impossible — a changed workload
// simply misses. Keys do not embed the workload seed: every file holds
// measurements at NewDB's seed, and a database at any other seed can
// neither load nor save one.

// DefaultCachePath returns the cache location: $CASH_ORACLE_CACHE if
// set, else a file in the user cache directory (falling back to the
// system temp directory).
func DefaultCachePath() string {
	if p := os.Getenv("CASH_ORACLE_CACHE"); p != "" {
		return p
	}
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "cash-oracle.gob")
	}
	return filepath.Join(os.TempDir(), "cash-oracle.gob")
}

// cacheMagic heads the current cache format: the magic, an 8-digit hex
// CRC32 of the gob payload, and a newline, followed by the payload.
//
// CASHORACLE3 payloads are a gob []cacheEntry sorted by key — a
// canonical byte encoding, so two databases holding the same entries
// always serialise to the same file whatever order the parallel sweep
// filled them in (gob maps encode in randomised iteration order, which
// is what the v2 format used). CASHORACLE2 files carry the same key
// scheme in map form and are still loaded; only their byte layout was
// nondeterministic. CASHORACLE1 files (and the bare-gob caches that
// predate the header) were keyed by a digest that collapsed the
// instruction mix to one scalar and omitted the dependence fractions,
// so distinct workloads could collide; such files are rejected on load
// rather than decoded, and the caller re-characterises from scratch.
const (
	cacheMagic   = "CASHORACLE3 "
	cacheMagicV2 = "CASHORACLE2 "
)

// cacheEntry is one serialised characterisation, ordered by Key in the
// v3 on-disk format.
type cacheEntry struct {
	Key string
	Val Char
}

// LoadCache merges entries from the file into the database. A missing
// file is not an error. A cache with an old or unrecognised format,
// whose checksum header does not match its payload, or holding an entry
// no measurement could have produced (see Char.check), is discarded
// whole (the caller should warn and re-characterise) rather than
// decoded as stale or garbage data.
func (db *DB) LoadCache(path string) error {
	if err := db.checkCacheSeed(path); err != nil {
		return err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("oracle: opening cache: %w", err)
	}
	var magic string
	switch {
	case bytes.HasPrefix(raw, []byte(cacheMagic)):
		magic = cacheMagic
	case bytes.HasPrefix(raw, []byte(cacheMagicV2)):
		// Same key scheme, map-shaped payload with nondeterministic byte
		// order; the entries themselves are still valid.
		magic = cacheMagicV2
	default:
		return fmt.Errorf("oracle: cache %s is not in the %sformat (old caches were keyed by a digest that allowed collisions); discarding it",
			path, cacheMagic)
	}
	rest := raw[len(magic):]
	nl := bytes.IndexByte(rest, '\n')
	if nl != 8 {
		return fmt.Errorf("oracle: cache %s has a malformed checksum header; discarding it", path)
	}
	payload := rest[nl+1:]
	want := string(rest[:8])
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(payload)); got != want {
		return fmt.Errorf("oracle: cache %s checksum mismatch (%s != %s); discarding it", path, got, want)
	}
	m := make(map[string]Char)
	if magic == cacheMagic {
		var entries []cacheEntry
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&entries); err != nil {
			return fmt.Errorf("oracle: decoding cache %s: %w", path, err)
		}
		for _, e := range entries {
			m[e.Key] = e.Val
		}
	} else {
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&m); err != nil {
			return fmt.Errorf("oracle: decoding cache %s: %w", path, err)
		}
	}
	for k, v := range m {
		if err := v.check(); err != nil {
			return fmt.Errorf("oracle: cache %s entry %q %v; discarding it", path, k, err)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for k, v := range m {
		if _, ok := db.cache[k]; !ok {
			db.cache[k] = v
		}
	}
	return nil
}

// SaveCache writes the database's entries to the file atomically, in
// sorted key order so the bytes are a pure function of the entry set —
// a sweep parallelised across any number of workers saves the same
// file a serial one does.
func (db *DB) SaveCache(path string) error {
	if err := db.checkCacheSeed(path); err != nil {
		return err
	}
	db.mu.Lock()
	entries := make([]cacheEntry, 0, len(db.cache))
	for k, v := range db.cache {
		entries = append(entries, cacheEntry{Key: k, Val: v})
	}
	db.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })

	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(entries); err != nil {
		return fmt.Errorf("oracle: encoding cache: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("oracle: creating cache dir: %w", err)
	}
	// A unique temp name keeps concurrent savers (parallel harness
	// cells) from clobbering each other's half-written files.
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("oracle: creating cache: %w", err)
	}
	tmp := f.Name()
	header := fmt.Sprintf("%s%08x\n", cacheMagic, crc32.ChecksumIEEE(payload.Bytes()))
	if _, err = f.WriteString(header); err == nil {
		_, err = f.Write(payload.Bytes())
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("oracle: writing cache: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("oracle: closing cache: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		// Without this remove, every failed save would strand one
		// uniquely-named temp file in the cache directory forever.
		os.Remove(tmp)
		return fmt.Errorf("oracle: replacing cache: %w", err)
	}
	return nil
}

// checkCacheSeed refuses cache I/O for a database whose seed is not
// the one every cache file is measured at: the keys cannot tell the
// seeds apart, so a loaded entry would pass for this seed's measurement
// and a saved one for the default seed's.
func (db *DB) checkCacheSeed(path string) error {
	if db.Seed != defaultSeed {
		return fmt.Errorf("oracle: cache %s holds seed-%d measurements; a seed-%d database cannot use it",
			path, defaultSeed, db.Seed)
	}
	return nil
}

// Entries returns how many (app, configuration) characterisations are
// cached.
func (db *DB) Entries() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.cache)
}
