package figs

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"cash/internal/supervise"
	"cash/internal/workload"
)

// Every artifact enumerates its work as supervised cells: one cell is
// one (artifact, app, policy) experiment with a stable key. Cells run
// under panic isolation, timeouts, retries and bounded parallelism;
// their JSON-marshalable results are journaled so an interrupted suite
// resumes, and the artifact renders its report only after collection,
// so output ordering never depends on completion order. A failed cell
// renders as FAILED(<reason>) and the suite keeps going. An artifact
// declares its cells with a typed result (cell[T]) and reads them back
// as outcomes through runTyped; no artifact decodes a report itself.

// meta fingerprints the run parameters that determine cell values — the
// seed and every Options field but the supervision ones, which it
// zeroes — so a journal written under other settings is never resumed.
// Bump the version when a cell's recorded shape or meaning changes.
func (h *Harness) meta() string {
	o := h.Options
	o.Jobs, o.SweepPar, o.CellTimeout, o.MaxRetries = 0, 0, 0, 0
	o.JournalPath, o.Resume, o.Log = "", false, nil
	return fmt.Sprintf("cash-journal v3 seed=%d %+v", h.Seed, o)
}

// openJournal lazily opens the configured result journal.
func (h *Harness) openJournal() {
	h.journalOnce.Do(func() {
		if h.JournalPath == "" || h.JournalPath == "-" {
			return
		}
		j, err := supervise.OpenJournal(h.JournalPath, h.meta(), h.Resume)
		// The journal caches cells that can be computed again, so one
		// that cannot be resumed is started afresh.
		var re *supervise.ResumeError
		if errors.As(err, &re) {
			if j, err = supervise.OpenJournal(h.JournalPath, h.meta(), false); err == nil {
				j.Discarded = re.Reason
			}
		}
		if err != nil {
			h.logf("# warning: result journal disabled: %v\n", err)
			return
		}
		if j.Discarded != "" {
			h.logf("# journal %s: discarded previous content: %s\n", j.Path(), j.Discarded)
		} else if n := j.Completed(""); n > 0 {
			h.logf("# journal %s: resuming past %d completed cells (%d retries recorded, %d torn lines skipped)\n",
				j.Path(), n, j.Attempts, j.Skipped)
		}
		h.journal = j
	})
}

// CompactJournal rewrites the result journal down to one winning record
// per completed cell, re-stamping every CRC. Call it after a run
// finishes cleanly: retry attempts and superseded records are dead
// weight once the run is over, and without compaction a journal that
// shepherds J resumes grows superlinearly in J.
func (h *Harness) CompactJournal() {
	if h.journal == nil {
		return
	}
	if err := h.journal.Compact(); err != nil {
		h.logf("# warning: journal compaction: %v\n", err)
	}
}

// runCells executes units under the harness's supervision knobs and
// returns their reports in submission order.
func (h *Harness) runCells(units []supervise.Unit) []supervise.Report {
	h.openJournal()
	if h.CellHook != nil {
		wrapped := make([]supervise.Unit, len(units))
		for i, u := range units {
			u := u
			wrapped[i] = supervise.Unit{Key: u.Key, Run: func() (any, error) {
				h.CellHook(u.Key)
				return u.Run()
			}}
		}
		units = wrapped
	}
	sup := supervise.New(supervise.Options{
		Jobs:       h.Jobs,
		Timeout:    h.CellTimeout,
		MaxRetries: h.MaxRetries,
		Seed:       h.Seed,
		Journal:    h.journal,
	})
	// The bracket keeps an app's recorded stream live between its
	// cells (its cold sweep's and its policy runs'), and drops every
	// idle trace when the figure ends, so an idle harness holds none.
	keep := workload.KeepTraces()
	reps := sup.Run(units)
	keep()
	for _, r := range reps {
		switch {
		case r.FromJournal:
			h.logf("# cell %s: replayed from journal\n", r.Key)
		case !r.OK():
			h.logf("# cell %s: FAILED after %d attempt(s): %s\n",
				r.Key, r.Failure.Attempts, r.Failure.Reason())
		case r.Attempts > 1:
			h.logf("# cell %s: succeeded on attempt %d\n", r.Key, r.Attempts)
		}
	}
	return reps
}

// A cell is one supervised unit whose result is a T. The journal
// stores the T as JSON, and a resumed run decodes it back.
type cell[T any] struct {
	key string
	run func() (T, error)
}

// unit adapts the cell to the supervisor.
func (c cell[T]) unit() supervise.Unit {
	return supervise.Unit{Key: c.key, Run: func() (any, error) { return c.run() }}
}

// An outcome is one cell's result: val when the cell completed, or
// failed, its FAILED(<reason>) label, when it did not.
type outcome[T any] struct {
	val    T
	failed string
}

// runTyped runs cells as one supervised batch and reads each result.
func runTyped[T any](h *Harness, cells []cell[T]) []outcome[T] {
	units := make([]supervise.Unit, len(cells))
	for i, c := range cells {
		units[i] = c.unit()
	}
	out := make([]outcome[T], len(cells))
	for i, rep := range h.runCells(units) {
		out[i] = decode[T](h, rep)
	}
	return out
}

// decode reads a report as a T. A journaled value that no longer
// decodes fails its cell like any other error, so the rest of the
// artifact still renders.
func decode[T any](h *Harness, rep supervise.Report) outcome[T] {
	if !rep.OK() {
		return outcome[T]{failed: failureLabel(rep.Failure.Reason())}
	}
	var v T
	if err := rep.Decode(&v); err != nil {
		h.logf("# cell %s: result does not decode: %v\n", rep.Key, err)
		return outcome[T]{failed: failureLabel(err.Error())}
	}
	return outcome[T]{val: v}
}

// failureLabel renders a failed cell for the report, with the reason
// clipped so one pathological panic message cannot wreck the layout.
func failureLabel(reason string) string {
	if i := strings.IndexByte(reason, '\n'); i >= 0 {
		reason = reason[:i]
	}
	const maxReason = 48
	if len(reason) > maxReason {
		reason = reason[:maxReason-3] + "..."
	}
	return "FAILED(" + reason + ")"
}

// textCell runs an artifact whose whole text is one cell, so a resumed
// suite replays it byte for byte, and prints that text, or
// "<title>: FAILED(<reason>)".
func (h *Harness) textCell(key, title string, render func(io.Writer) error) {
	o := runTyped(h, []cell[string]{{key: key, run: func() (string, error) {
		var b strings.Builder
		err := render(&b)
		return b.String(), err
	}}})[0]
	if o.failed != "" {
		h.printf("%s: %s\n", title, o.failed)
		return
	}
	h.printf("%s", o.val)
}
