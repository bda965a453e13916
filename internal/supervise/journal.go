package supervise

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// The result journal is an append-only JSONL file. Every line is one
// Entry, self-checksummed with CRC32 so a torn write from a killed
// process is detected and skipped on reload instead of corrupting the
// resume state (codec.go writes and reads the lines). The first line
// is a meta record fingerprinting the run parameters (scale, seed,
// ...); a journal whose fingerprint does not match the current run is
// never resumed, because its records would silently describe a
// different run.

// EntryStatus classifies a journal record.
const (
	// StatusMeta is the run-fingerprint header record.
	StatusMeta = "meta"
	// StatusAttempt records one failed attempt of a unit (retries are
	// observable in the journal through these).
	StatusAttempt = "attempt"
	// StatusOK is a unit's final successful record, carrying its value.
	StatusOK = "ok"
	// StatusFailed is a unit's final record after retries are exhausted.
	StatusFailed = "failed"
)

// Entry is one journal line.
type Entry struct {
	Status  string          `json:"status"`
	Key     string          `json:"key,omitempty"`
	Attempt int             `json:"attempt,omitempty"`
	Kind    string          `json:"kind,omitempty"`
	Error   string          `json:"error,omitempty"`
	Value   json.RawMessage `json:"value,omitempty"`
	Meta    string          `json:"meta,omitempty"`
	// Sum is the line's checksum, stamped when the line is written and
	// checked when it is read; a loaded record does not keep it.
	Sum string `json:"sum,omitempty"`
}

// Journal is a crash-safe record of completed work units.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	meta string
	// finals holds the latest ok/failed record of each key, in the
	// order the keys first appeared; index maps a key to its position.
	// sorted reports that finals is in increasing key order, as it is
	// after loading a compacted journal or any written in key order.
	finals []Entry
	index  map[string]int
	sorted bool
	// Attempts counts attempt records loaded from disk.
	Attempts int
	// Skipped counts corrupt or torn lines ignored on load.
	Skipped int
	// Discarded explains why pre-existing content was thrown away
	// ("" when the journal was resumed or empty).
	Discarded string
	// buf is reused to encode each line.
	buf []byte
}

// DefaultJournalPath returns the journal location: $CASH_JOURNAL if
// set, else a file in the user cache directory (falling back to the
// system temp directory).
func DefaultJournalPath() string {
	if p := os.Getenv("CASH_JOURNAL"); p != "" {
		return p
	}
	if dir, err := os.UserCacheDir(); err == nil {
		return filepath.Join(dir, "cash-journal.jsonl")
	}
	return filepath.Join(os.TempDir(), "cash-journal.jsonl")
}

// ResumeError reports a journal that a resume cannot use although it
// holds checksummed lines: a header that is damaged or fingerprints
// another run, or, resuming a ledger, a line that fails its checksum.
// The file is left as it was found, because those lines may be
// records that were acknowledged; the caller decides whether the
// journal may be thrown away.
type ResumeError struct {
	Path, Reason string
}

func (e *ResumeError) Error() string {
	return fmt.Sprintf("supervise: journal %s not resumed, file left untouched: %s", e.Path, e.Reason)
}

// OpenJournal opens (creating if needed) the journal at path. meta
// fingerprints the run. Without resume, existing content is truncated
// (with the reason in Discarded). With resume, content whose header
// carries meta is loaded and appended to, skipping (and counting in
// Skipped) any line that fails its checksum; content without a single
// checksummed line is truncated; and content with checksummed lines
// but no header of meta is left untouched and reported as a
// *ResumeError.
func OpenJournal(path, meta string, resume bool) (*Journal, error) {
	return openJournal(path, meta, resume, false)
}

// OpenLedger resumes the journal at path as OpenJournal(path, meta,
// true) does, but refuses content with a complete line that fails its
// checksum as it refuses a damaged header: with a *ResumeError naming
// the line's byte offset, and the file untouched. A ledger's records
// were acknowledged, so none may be skipped in silence; only a torn
// final line, whose sync never completed, is dropped.
func OpenLedger(path, meta string) (*Journal, error) {
	return openJournal(path, meta, true, true)
}

func openJournal(path, meta string, resume, ledger bool) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("supervise: creating journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("supervise: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path, meta: meta}

	keep := false
	if resume {
		data, err := readAll(f)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("supervise: reading journal %s: %w", path, err)
		}
		validEnd, corrupt, why, err := j.load(data, meta)
		if err == nil && ledger && corrupt >= 0 {
			err = &ResumeError{path, fmt.Sprintf("the line at byte %d fails its checksum", corrupt)}
		}
		if err != nil {
			f.Close()
			return nil, err
		}
		j.Discarded = why
		// A header torn before its newline leaves nothing to keep:
		// start fresh, so the header is rewritten before any record
		// and the next resume finds it.
		keep = validEnd > 0
		// Cut the torn tail (a record half-written by a killed
		// process) before appending, or the next record would be
		// written onto the torn bytes, merge into one unparseable
		// line, and be lost on the following load.
		if keep && int64(len(data)) > validEnd {
			if err := f.Truncate(validEnd); err != nil {
				f.Close()
				return nil, fmt.Errorf("supervise: trimming torn journal tail: %w", err)
			}
		}
	} else {
		if st, err := f.Stat(); err == nil && st.Size() > 0 {
			j.Discarded = "fresh run (no -resume)"
		}
	}
	if !keep {
		j.finals, j.index, j.sorted = nil, make(map[string]int), true
		j.Attempts, j.Skipped = 0, 0
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("supervise: truncating journal: %w", err)
		}
		if _, err := f.Seek(0, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("supervise: rewinding journal: %w", err)
		}
		if err := j.append(Entry{Status: StatusMeta, Meta: meta}); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		// Position at end for appends.
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, fmt.Errorf("supervise: seeking journal: %w", err)
		}
	}
	return j, nil
}

// readAll reads f from where it stands to its end into one buffer
// sized from its length.
func readAll(f *os.File) ([]byte, error) {
	var b bytes.Buffer
	if st, err := f.Stat(); err == nil {
		b.Grow(int(st.Size()) + bytes.MinRead)
	}
	_, err := b.ReadFrom(f)
	return b.Bytes(), err
}

// load indexes the records in data, a journal's whole content, slicing
// each line out of it. It returns the byte offset just past the last
// valid record, 0 when there is nothing to resume; everything after it
// is a torn or corrupt tail the caller should truncate before
// appending. corrupt is the offset of the first complete line that
// fails its checksum, -1 if none does. When content without a single
// checksummed line is discarded, why says so. Checksummed content that
// does not open with the header of meta is an error: the caller must
// not truncate what it could not account for.
func (j *Journal) load(data []byte, meta string) (validEnd, corrupt int64, why string, err error) {
	// No journal holds more final records than lines, so the index is
	// sized once.
	lines := bytes.Count(data, []byte{'\n'}) + 1
	j.finals, j.index, j.sorted = make([]Entry, 0, lines), make(map[string]int, lines), true
	corrupt = -1
	first := true
	any := false
	for off := 0; off < len(data); {
		start := off
		line := data[off:]
		// A line without its terminating newline is a torn tail by
		// definition; never extend validEnd over it.
		complete := false
		if i := bytes.IndexByte(line, '\n'); i >= 0 {
			line, complete = line[:i+1], true
		}
		off += len(line)
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			continue
		}
		any = true
		e, valid, ok := decodeLine(trimmed)
		if !ok {
			e, valid = decodeAny(trimmed)
		}
		switch {
		case !valid:
			j.Skipped++
			if complete && corrupt < 0 {
				corrupt = int64(start)
			}
		case first:
			first = false
			if e.Status != StatusMeta {
				return 0, -1, "", &ResumeError{j.path, "its first checksummed line is not a header"}
			}
			if e.Meta != meta {
				return 0, -1, "", &ResumeError{j.path, fmt.Sprintf("its header fingerprints another run (%s)", e.Meta)}
			}
			if complete {
				validEnd = int64(off)
			}
		case complete:
			validEnd = int64(off)
			switch e.Status {
			case StatusAttempt:
				j.Attempts++
			case StatusOK, StatusFailed:
				j.put(e)
			}
		default:
			// A checksummed record missing its trailing newline was cut
			// off mid-write: the sync that would have acknowledged it
			// never completed, so dropping it with the rest of the torn
			// tail is safe — and appending after it would otherwise
			// corrupt the next record.
			j.Skipped++
		}
	}
	if any && first {
		// Content existed but no line survived the checksum.
		return 0, corrupt, "journal entirely corrupt", nil
	}
	j.detach()
	return validEnd, corrupt, "", nil
}

// detach copies the loaded finals' values, which alias the content
// they were read from, into one block of their own, so that neither
// the content nor its attempt lines and superseded records stay alive.
func (j *Journal) detach() {
	n := 0
	for i := range j.finals {
		n += len(j.finals[i].Value)
	}
	block := make([]byte, 0, n)
	for i := range j.finals {
		if v := j.finals[i].Value; len(v) > 0 {
			block = append(block, v...)
			j.finals[i].Value = block[len(block)-len(v) : len(block) : len(block)]
		}
	}
}

// put enters a final record: in place of its key's earlier record, or
// after every other.
func (j *Journal) put(e Entry) {
	// While the finals are in key order, a key after the last is new.
	if n := len(j.finals); n > 0 && (!j.sorted || e.Key <= j.finals[n-1].Key) {
		if i, ok := j.index[e.Key]; ok {
			j.finals[i] = e
			return
		}
		j.sorted = false
	}
	j.index[e.Key] = len(j.finals)
	j.finals = append(j.finals, e)
}

// Lookup returns the final record for a key, if any.
func (j *Journal) Lookup(key string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i, ok := j.index[key]; ok {
		return j.finals[i], true
	}
	return Entry{}, false
}

// LookupBytes is Lookup for a key held as bytes; it does not allocate.
func (j *Journal) LookupBytes(key []byte) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i, ok := j.index[string(key)]; ok {
		return j.finals[i], true
	}
	return Entry{}, false
}

// Completed returns how many keys that start with prefix have a final
// ok record. It only counts, so it reads the finals in any order.
func (j *Journal) Completed(prefix string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for i := range j.finals {
		if e := &j.finals[i]; e.Status == StatusOK && strings.HasPrefix(e.Key, prefix) {
			n++
		}
	}
	return n
}

// Walk calls fn with every final (ok or failed) record whose key starts
// with prefix, in key order. The cashd daemon rebuilds its books in
// one walk on crash-resume. Walk holds the journal while it runs, so fn
// must not call it; e is fn's to read during the call only.
func (j *Journal) Walk(prefix string, fn func(e *Entry)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.walk(prefix, fn)
}

// walk is Walk under the lock. While the finals are in key order, the
// keys that start with prefix are one run, found by a search; once
// they are not, the finals that match are sorted first.
func (j *Journal) walk(prefix string, fn func(e *Entry)) {
	f := j.finals
	if j.sorted {
		i := sort.Search(len(f), func(i int) bool { return f[i].Key >= prefix })
		for ; i < len(f) && strings.HasPrefix(f[i].Key, prefix); i++ {
			fn(&f[i])
		}
		return
	}
	var match []int
	for i := range f {
		if strings.HasPrefix(f[i].Key, prefix) {
			match = append(match, i)
		}
	}
	slices.SortFunc(match, func(a, b int) int { return strings.Compare(f[a].Key, f[b].Key) })
	for _, i := range match {
		fn(&f[i])
	}
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// append checksums and writes one record as a single write syscall, so
// a crash can tear at most the final line.
func (j *Journal) append(e Entry) error {
	b, err := appendLine(j.buf[:0], e)
	if err != nil {
		return fmt.Errorf("supervise: journal marshal: %w", err)
	}
	j.buf = b
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("supervise: journal write: %w", err)
	}
	return nil
}

// Record appends a record and, for final records, syncs it to disk and
// updates the resume index.
func (j *Journal) Record(e Entry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.append(e); err != nil {
		return err
	}
	switch e.Status {
	case StatusOK, StatusFailed:
		j.put(e)
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("supervise: journal sync: %w", err)
		}
	}
	return nil
}

// RecordOnce appends a final record only if its key has no final record
// yet, reporting whether this record won. It is the fleet control
// plane's exactly-once gate: however many times a cell was attempted
// across chip deaths and lease expiries, only the first delivered
// result lands in the journal — later deliveries are deduplicated by
// the caller using the false return.
func (j *Journal) RecordOnce(e Entry) (won bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.index[e.Key]; ok {
		return false, nil
	}
	if err := j.append(e); err != nil {
		return false, err
	}
	j.put(e)
	if err := j.f.Sync(); err != nil {
		return false, fmt.Errorf("supervise: journal sync: %w", err)
	}
	return true, nil
}

// Compact rewrites the journal keeping only the meta header and the
// winning final record per key, in sorted key order, with every line's
// CRC re-stamped. Attempt records and superseded finals are dropped, so
// repeated kill/resume cycles do not grow the file without bound. The
// rewrite is atomic (temp file + rename); on any error the original
// journal is left untouched and still open.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("supervise: compacting closed journal")
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, ".cash-journal-compact-*")
	if err != nil {
		return fmt.Errorf("supervise: compact temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	write := func(e Entry) error {
		b, err := appendLine(j.buf[:0], e)
		if err != nil {
			return err
		}
		j.buf = b
		_, err = tmp.Write(b)
		return err
	}
	werr := write(Entry{Status: StatusMeta, Meta: j.meta})
	j.walk("", func(e *Entry) {
		if werr == nil {
			werr = write(*e)
		}
	})
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("supervise: compact write: %w", werr)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fmt.Errorf("supervise: compact rename: %w", err)
	}
	// Swap the open handle to the compacted file, positioned for appends.
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("supervise: reopening compacted journal: %w", err)
	}
	if _, err := nf.Seek(0, 2); err != nil {
		nf.Close()
		return fmt.Errorf("supervise: seeking compacted journal: %w", err)
	}
	j.f.Close()
	j.f = nf
	j.Attempts = 0
	return nil
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
