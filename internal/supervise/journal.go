package supervise

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
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
	Sum     string          `json:"sum,omitempty"`
}

// Journal is a crash-safe record of completed work units.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	meta string
	// final holds the latest ok/failed record per key.
	final map[string]Entry
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
// another run. OpenJournal leaves such a file as it found it, because
// those lines may be records that were acknowledged; the caller
// decides whether the journal may be thrown away.
type ResumeError struct {
	Path, Reason string
}

func (e *ResumeError) Error() string {
	return fmt.Sprintf("supervise: journal %s not resumed, file left untouched: %s", e.Path, e.Reason)
}

// OpenJournal opens (creating if needed) the journal at path. meta
// fingerprints the run. Without resume, existing content is truncated
// (with the reason in Discarded). With resume, content whose header
// carries meta is loaded and appended to; content without a single
// checksummed line is truncated; and content with checksummed lines
// but no header of meta is left untouched and reported as a
// *ResumeError.
func OpenJournal(path, meta string, resume bool) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("supervise: creating journal dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("supervise: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path, meta: meta, final: make(map[string]Entry)}

	keep := false
	if resume {
		var validEnd int64
		validEnd, j.Discarded, err = j.load(f, meta)
		if err != nil {
			f.Close()
			return nil, err
		}
		// A header torn before its newline leaves nothing to keep:
		// start fresh, so the header is rewritten before any record
		// and the next resume finds it.
		keep = validEnd > 0
		// Cut the torn tail (a record half-written by a killed
		// process) before appending, or the next record would be
		// written onto the torn bytes, merge into one unparseable
		// line, and be lost on the following load.
		if st, err := f.Stat(); keep && err == nil && st.Size() > validEnd {
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
		j.final = make(map[string]Entry)
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

// load reads the records in content. It returns the byte offset just past
// the last valid record, 0 when there is nothing to resume; everything
// after it is a torn or corrupt tail the caller should truncate before
// appending. When content without a single checksummed line is
// discarded, why says so. A read failure, and checksummed content that
// does not open with the header of meta, is an error: the caller must
// not truncate what it could not account for.
func (j *Journal) load(content io.Reader, meta string) (validEnd int64, why string, err error) {
	// ReadBytes grows past the buffer for a longer line, so its size
	// bounds only what a short journal costs to open.
	r := bufio.NewReaderSize(content, 64<<10)
	first := true
	any := false
	var off int64
	for {
		line, rerr := r.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return 0, "", fmt.Errorf("supervise: reading journal %s: %w", j.path, rerr)
		}
		off += int64(len(line))
		// A line without its terminating newline is a torn tail by
		// definition; never extend validEnd over it.
		complete := rerr == nil
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			if rerr != nil {
				break
			}
			continue
		}
		any = true
		e, valid, ok := decodeLine(trimmed)
		if !ok {
			e, valid = decodeAny(trimmed)
		}
		if !valid {
			j.Skipped++
		}
		if valid && first {
			first = false
			if e.Status != StatusMeta {
				return 0, "", &ResumeError{j.path, "its first checksummed line is not a header"}
			}
			if e.Meta != meta {
				return 0, "", &ResumeError{j.path, fmt.Sprintf("its header fingerprints another run (%s)", e.Meta)}
			}
			if complete {
				validEnd = off
			}
			if rerr != nil {
				break
			}
			continue
		}
		if valid && complete {
			validEnd = off
			switch e.Status {
			case StatusAttempt:
				j.Attempts++
			case StatusOK, StatusFailed:
				j.final[e.Key] = e
			}
		} else if valid {
			// A checksummed record missing its trailing newline was cut
			// off mid-write: the sync that would have acknowledged it
			// never completed, so dropping it with the rest of the torn
			// tail is safe — and appending after it would otherwise
			// corrupt the next record.
			j.Skipped++
		}
		if rerr != nil {
			break
		}
	}
	if any && first {
		// Content existed but no line survived the checksum.
		return 0, "journal entirely corrupt", nil
	}
	return validEnd, "", nil
}

// Lookup returns the final record for a key, if any.
func (j *Journal) Lookup(key string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.final[key]
	return e, ok
}

// Finals returns a copy of every final (ok or failed) record whose key
// starts with prefix, sorted by key. The cashd daemon rebuilds its
// admitted tenants from these on crash-resume.
func (j *Journal) Finals(prefix string) []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Entry
	for k, e := range j.final {
		if strings.HasPrefix(k, prefix) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Completed returns how many keys that start with prefix have a final
// ok record.
func (j *Journal) Completed(prefix string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for k, e := range j.final {
		if e.Status == StatusOK && strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
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
		j.final[e.Key] = e
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
	if _, ok := j.final[e.Key]; ok {
		return false, nil
	}
	if err := j.append(e); err != nil {
		return false, err
	}
	j.final[e.Key] = e
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
	keys := make([]string, 0, len(j.final))
	for k := range j.final {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if werr != nil {
			break
		}
		werr = write(j.final[k])
	}
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
