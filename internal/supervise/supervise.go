// Package supervise is a generic supervised executor for long batch
// evaluations: it runs independent work units with panic isolation,
// per-unit wall-clock timeouts, bounded retries with capped jittered
// backoff and bounded parallelism, journaling every outcome to a
// crash-safe result journal so an interrupted suite can resume where it
// stopped. Results are always returned in submission order, so callers
// render deterministic reports regardless of parallel completion order.
package supervise

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"time"

	"cash/internal/par"
)

// FailureKind classifies why a unit failed.
type FailureKind string

const (
	// FailError is an ordinary error returned by the unit.
	FailError FailureKind = "error"
	// FailPanic is a recovered panic.
	FailPanic FailureKind = "panic"
	// FailTimeout means the unit exceeded the per-unit wall-clock
	// budget. The unit's goroutine is abandoned (it cannot be killed),
	// so a genuinely hung unit leaks one goroutine for the process
	// lifetime — the price of keeping the rest of the suite alive.
	FailTimeout FailureKind = "timeout"
)

// FailureRecord describes a unit's final failure.
type FailureRecord struct {
	Key      string
	Kind     FailureKind
	Msg      string
	Stack    string // panics only
	Attempts int
}

// Reason renders a compact, deterministic one-line explanation, e.g.
// "panic: index out of range" or "timeout after 2s".
func (f *FailureRecord) Reason() string {
	switch f.Kind {
	case FailPanic:
		return "panic: " + f.Msg
	case FailTimeout:
		return f.Msg
	default:
		return f.Msg
	}
}

// Unit is one supervised work item. Run's result must be
// JSON-marshalable so it can be journaled and replayed on resume.
type Unit struct {
	Key string
	Run func() (any, error)
}

// Report is the outcome of one unit, in submission order.
type Report struct {
	Key   string
	Value json.RawMessage
	// Failure is nil on success.
	Failure  *FailureRecord
	Attempts int
	// FromJournal marks a value replayed from a previous run.
	FromJournal bool
}

// OK reports whether the unit produced a value.
func (r Report) OK() bool { return r.Failure == nil }

// Decode unmarshals the unit's value into v.
func (r Report) Decode(v any) error {
	if !r.OK() {
		return fmt.Errorf("supervise: unit %s failed: %s", r.Key, r.Failure.Reason())
	}
	return json.Unmarshal(r.Value, v)
}

// Options tune a Supervisor. The zero value runs units sequentially,
// without timeouts or retries.
type Options struct {
	// Jobs bounds parallel units (<=1 = sequential).
	Jobs int
	// Timeout is the per-attempt wall-clock budget (0 = none).
	Timeout time.Duration
	// MaxRetries is how many extra attempts a failing unit gets. The
	// first retry waits 100ms; each further one doubles the wait, capped
	// at 5s, with ±50% deterministic jitter derived from Seed and the
	// unit key.
	MaxRetries int
	// Seed drives the backoff jitter.
	Seed uint64
	// Clock defaults to the wall clock; tests inject a FakeClock.
	Clock Clock
	// Journal, when set, records every outcome and short-circuits units
	// whose final ok record it already holds.
	Journal *Journal
}

// Supervisor executes units under the configured policy.
type Supervisor struct {
	o Options
}

// New builds a Supervisor, applying option defaults.
func New(o Options) *Supervisor {
	if o.Jobs < 1 {
		o.Jobs = 1
	}
	if o.Clock == nil {
		o.Clock = RealClock()
	}
	return &Supervisor{o: o}
}

// Run executes every unit and returns reports in submission order.
// Units already completed in the journal are replayed, not re-run;
// units whose journaled final record is a failure are retried fresh.
func (s *Supervisor) Run(units []Unit) []Report {
	reports := make([]Report, len(units))
	pending := make([]int, 0, len(units))
	for i, u := range units {
		if s.o.Journal != nil {
			if e, ok := s.o.Journal.Lookup(u.Key); ok && e.Status == StatusOK {
				reports[i] = Report{
					Key: u.Key, Value: e.Value, Attempts: e.Attempt, FromJournal: true,
				}
				continue
			}
		}
		pending = append(pending, i)
	}
	par.New(s.o.Jobs).ForEach(len(pending), func(k int) {
		i := pending[k]
		reports[i] = s.runOne(units[i])
	})
	return reports
}

// runOne drives one unit through its attempts.
func (s *Supervisor) runOne(u Unit) Report {
	var last *FailureRecord
	attempts := 1 + s.o.MaxRetries
	for attempt := 1; attempt <= attempts; attempt++ {
		value, fr := s.attempt(u)
		if fr == nil {
			raw, err := json.Marshal(value)
			if err != nil {
				fr = &FailureRecord{Kind: FailError, Msg: fmt.Sprintf("unmarshalable result: %v", err)}
			} else {
				s.journal(Entry{Status: StatusOK, Key: u.Key, Attempt: attempt, Value: raw})
				return Report{Key: u.Key, Value: raw, Attempts: attempt}
			}
		}
		fr.Key, fr.Attempts = u.Key, attempt
		last = fr
		if attempt < attempts {
			s.journal(Entry{
				Status: StatusAttempt, Key: u.Key, Attempt: attempt,
				Kind: string(fr.Kind), Error: fr.Reason(),
			})
			s.o.Clock.Sleep(s.backoff(u.Key, attempt))
		}
	}
	s.journal(Entry{
		Status: StatusFailed, Key: u.Key, Attempt: last.Attempts,
		Kind: string(last.Kind), Error: last.Reason(),
	})
	return Report{Key: u.Key, Failure: last, Attempts: last.Attempts}
}

// attempt executes the unit once with panic isolation and the timeout.
func (s *Supervisor) attempt(u Unit) (any, *FailureRecord) {
	type outcome struct {
		v  any
		fr *FailureRecord
	}
	// Buffered so an abandoned (timed-out) unit can still deliver its
	// late result without leaking the goroutine forever.
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{fr: &FailureRecord{
					Kind: FailPanic, Msg: fmt.Sprint(r), Stack: string(debug.Stack()),
				}}
			}
		}()
		v, err := u.Run()
		if err != nil {
			ch <- outcome{fr: &FailureRecord{Kind: FailError, Msg: err.Error()}}
			return
		}
		ch <- outcome{v: v}
	}()
	if s.o.Timeout <= 0 {
		o := <-ch
		return o.v, o.fr
	}
	select {
	case o := <-ch:
		return o.v, o.fr
	case <-s.o.Clock.After(s.o.Timeout):
		return nil, &FailureRecord{
			Kind: FailTimeout,
			Msg:  fmt.Sprintf("timeout after %v", s.o.Timeout),
		}
	}
}

// The retry backoff: the first retry waits backoffBase, and each
// further one doubles the wait up to backoffCap.
const (
	backoffBase = 100 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// backoff returns the capped, deterministically-jittered delay before
// retry number attempt (1-based: the delay after the attempt'th
// failure).
func (s *Supervisor) backoff(key string, attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	// ±50% jitter from a stable hash of (seed, key, attempt).
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", s.o.Seed, key, attempt)
	frac := 0.5 + float64(h.Sum64()%1024)/1024.0
	j := time.Duration(float64(d) * frac)
	if j > backoffCap {
		j = backoffCap
	}
	return j
}

// journal records an entry, ignoring journal write errors: losing a
// journal line must never fail the evaluation itself.
func (s *Supervisor) journal(e Entry) {
	if s.o.Journal == nil {
		return
	}
	_ = s.o.Journal.Record(e)
}
