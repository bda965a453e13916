package oracle

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cash/internal/isa"
	"cash/internal/isim"
	"cash/internal/par"
	"cash/internal/slice"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// cacheBytes is db's SaveCache file.
func cacheBytes(t *testing.T, db *DB) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "oracle.gob")
	if err := db.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// holdTraceBudget reserves the whole process-wide trace budget until t
// ends, as if other sweeps' traces held it: every sweep meanwhile is
// over budget and falls back to per-configuration generation.
func holdTraceBudget(t *testing.T) {
	t.Helper()
	if !workload.ReserveTrace(workload.TraceBudget) {
		t.Fatalf("trace budget already holds %d bytes", workload.TraceHeld())
	}
	t.Cleanup(func() { workload.ReleaseTrace(workload.TraceBudget) })
}

// recordings returns a function reporting how many traces the
// process-wide store has recorded since recordings was called.
func recordings() func() int64 {
	base := workload.TracesRecorded()
	return func() int64 { return workload.TracesRecorded() - base }
}

// countGens makes db count the generators its measurements take from
// its pool, so a test can tell a replayed sweep (none) from a
// generated one.
func countGens(db *DB) *atomic.Int64 {
	var n atomic.Int64
	db.simsOnce.Do(func() {
		db.sims = ssim.NewSimPool(slice.DefaultConfig(), ssim.SteerEarliest)
		db.gens.New = func() any { n.Add(1); return new(workload.Gen) }
	})
	return &n
}

// TestReplaySweepMatchesGeneration pins the replay's bit-identity: a
// cold sweep measured from one recorded trace saves the same cache
// bytes as the over-budget fallback that generates the stream per
// configuration, at one worker and at four (under -race the four
// workers also exercise the shared read-only trace). A bare sweep
// releases its trace on return.
func TestReplaySweepMatchesGeneration(t *testing.T) {
	app := tinyApp()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			recorded := recordings()
			replayed := NewDB()
			replayed.Pool = par.New(workers)
			gens := countGens(replayed)
			replayed.CharacterizeApp(app)
			if recorded() != 1 || replayed.measured != spaceSize || gens.Load() != 0 {
				t.Fatalf("replayed sweep recorded %d traces, measured %d cells and took %d generators, want 1, %d and 0",
					recorded(), replayed.measured, gens.Load(), spaceSize)
			}
			if held := workload.TraceHeld(); held != 0 {
				t.Fatalf("%d trace bytes still reserved after the sweep returned", held)
			}

			generated := NewDB()
			generated.Pool = par.New(workers)
			gens = countGens(generated)
			holdTraceBudget(t)
			generated.CharacterizeApp(app)
			if recorded() != 1 || generated.measured != spaceSize || gens.Load() == 0 {
				t.Fatalf("over-budget sweep recorded %d traces, measured %d cells and took %d generators, want 0, %d and some",
					recorded()-1, generated.measured, gens.Load(), spaceSize)
			}

			if !bytes.Equal(cacheBytes(t, replayed), cacheBytes(t, generated)) {
				t.Fatal("cache bytes differ between the replayed and the generated sweep")
			}
		})
	}
}

// TestSweepRecordsOnlyCold checks every path that must keep generating
// per configuration: a warm sweep, a sweep missing one configuration, a
// lone Characterize and the interval tier, whose model needs the skips
// only a workload.Gen offers.
func TestSweepRecordsOnlyCold(t *testing.T) {
	app := tinyApp()
	db := NewDB()
	db.Pool = par.Serial()
	recorded := recordings()
	db.Characterize(app, vcore.Min())
	if recorded() != 0 {
		t.Fatalf("a lone Characterize recorded %d traces", recorded())
	}
	db.CharacterizeApp(app)
	if recorded() != 1 || db.measured != spaceSize {
		t.Fatalf("cold sweep recorded %d traces and measured %d cells, want 1 and %d", recorded(), db.measured, spaceSize)
	}
	db.CharacterizeApp(app)
	if recorded() != 1 || db.measured != spaceSize {
		t.Fatalf("warm sweep: %d traces recorded and %d cells measured in all, want 1 and %d", recorded(), db.measured, spaceSize)
	}
	db.mu.Lock()
	delete(db.cache, db.key(app, vcore.Max()))
	db.mu.Unlock()
	db.CharacterizeApp(app)
	if recorded() != 1 || db.measured != spaceSize+1 {
		t.Fatalf("sweep missing one cell: %d traces recorded and %d cells measured in all, want 1 and %d",
			recorded(), db.measured, spaceSize+1)
	}

	iv := NewDB()
	iv.Tier = isim.TierInterval
	iv.Pool = par.Serial()
	iv.CharacterizeApp(app)
	if recorded() != 1 {
		t.Fatalf("interval-tier sweep recorded %d traces", recorded()-1)
	}
}

// truncated passes through the first left instructions of src, then
// reports the stream exhausted.
type truncated struct {
	src  ssim.InstrSource
	left int
}

func (t *truncated) Next(buf []isa.Instr) int {
	if len(buf) > t.left {
		buf = buf[:t.left]
	}
	n := t.src.Next(buf)
	t.left -= n
	return n
}

// TestMeasureAppPanicsOnTruncatedStream: a source that ends inside a
// phase must not yield that phase's IPC over the instructions it did
// deliver; measureApp panics naming the app, configuration and phase.
func TestMeasureAppPanicsOnTruncatedStream(t *testing.T) {
	app := tinyApp()
	if len(app.Phases) < 2 || app.Phases[1].Instrs < 2 {
		t.Fatalf("%s is too short to truncate inside phase 1", app.Name)
	}
	cfg := vcore.Config{Slices: 2, L2KB: 256}
	db := NewDB()
	src := &truncated{src: workload.NewGen(app, db.Seed), left: int(app.Phases[0].Instrs + app.Phases[1].Instrs/2)}
	msg := func() (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		db.measureApp(app, cfg, src)
		return ""
	}()
	if msg == "" {
		t.Fatal("a stream truncated inside phase 1 measured without a panic")
	}
	for _, want := range []string{app.Name, cfg.String(), "phase 1", app.Phases[1].Name} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic %q does not name %q", msg, want)
		}
	}
}
