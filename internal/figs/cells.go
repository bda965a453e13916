package figs

import (
	"fmt"
	"strings"

	"cash/internal/supervise"
)

// Every artifact enumerates its work as supervised cells: one cell is
// one (artifact, app, policy) experiment with a stable key. Cells run
// under panic isolation, timeouts, retries and bounded parallelism;
// their JSON-marshalable results are journaled so an interrupted suite
// resumes, and the artifact renders its report only after collection,
// so output ordering never depends on completion order. A failed cell
// renders as FAILED(<reason>) and the suite keeps going.

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
		if err != nil {
			h.logf("# warning: result journal disabled: %v\n", err)
			return
		}
		if j.Discarded != "" {
			h.logf("# journal %s: discarded previous content: %s\n", j.Path(), j.Discarded)
		} else if n := j.Completed(); n > 0 {
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
	reps := sup.Run(units)
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

// failureLabel renders a failed cell for the report, with the reason
// clipped so one pathological panic message cannot wreck the layout.
func failureLabel(rep supervise.Report) string {
	reason := rep.Failure.Reason()
	if i := strings.IndexByte(reason, '\n'); i >= 0 {
		reason = reason[:i]
	}
	const maxReason = 48
	if len(reason) > maxReason {
		reason = reason[:maxReason-3] + "..."
	}
	return "FAILED(" + reason + ")"
}
