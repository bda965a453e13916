package oracle

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cash/internal/isa"
	"cash/internal/isim"
	"cash/internal/par"
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

// holdTraceBudget reserves the whole trace budget until t ends,
// as if other sweeps' traces held it: every sweep meanwhile is over
// budget and falls back to per-configuration generation.
func holdTraceBudget(t *testing.T) {
	t.Helper()
	if !reserveTrace(traceBudget) {
		t.Fatalf("trace budget already holds %d bytes", traceHeld.Load())
	}
	t.Cleanup(func() { traceHeld.Add(-traceBudget) })
}

// TestReplaySweepMatchesGeneration pins the replay's bit-identity: a
// cold sweep measured from one recorded trace saves the same cache
// bytes as the over-budget fallback that generates the stream per
// configuration, at one worker and at four (under -race the four
// workers also exercise the shared read-only trace).
func TestReplaySweepMatchesGeneration(t *testing.T) {
	app := tinyApp()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			replayed := NewDB()
			replayed.Pool = par.New(workers)
			replayed.CharacterizeApp(app)
			if replayed.recorded != 1 || replayed.measured != spaceSize {
				t.Fatalf("replayed sweep recorded %d traces and measured %d cells, want 1 and %d",
					replayed.recorded, replayed.measured, spaceSize)
			}
			if held := traceHeld.Load(); held != 0 {
				t.Fatalf("%d trace bytes still reserved after the sweep returned", held)
			}

			generated := NewDB()
			generated.Pool = par.New(workers)
			holdTraceBudget(t)
			generated.CharacterizeApp(app)
			if generated.recorded != 0 || generated.measured != spaceSize {
				t.Fatalf("over-budget sweep recorded %d traces and measured %d cells, want 0 and %d",
					generated.recorded, generated.measured, spaceSize)
			}

			if !bytes.Equal(cacheBytes(t, replayed), cacheBytes(t, generated)) {
				t.Fatal("cache bytes differ between the replayed and the generated sweep")
			}
		})
	}
}

// TestReserveTraceBudget checks the reservation arithmetic: nothing
// past the budget is granted, and a release frees its bytes.
func TestReserveTraceBudget(t *testing.T) {
	if reserveTrace(traceBudget + 1) {
		t.Fatal("a reservation larger than the budget was granted")
	}
	if !reserveTrace(traceBudget - 1) {
		t.Fatal("a reservation inside the budget was refused")
	}
	if !reserveTrace(1) {
		t.Fatal("the budget's last byte was refused")
	}
	if reserveTrace(1) {
		t.Fatal("a reservation past a full budget was granted")
	}
	traceHeld.Add(-traceBudget)
	if !reserveTrace(1) {
		t.Fatal("released bytes were not reusable")
	}
	traceHeld.Add(-1)
}

// TestSweepRecordsOnlyCold checks every path that must keep generating
// per configuration: a warm sweep, a sweep missing one configuration, a
// lone Characterize and the interval tier, whose model needs the skips
// only a workload.Gen offers.
func TestSweepRecordsOnlyCold(t *testing.T) {
	app := tinyApp()
	db := NewDB()
	db.Pool = par.Serial()
	db.Characterize(app, vcore.Min())
	if db.recorded != 0 {
		t.Fatalf("a lone Characterize recorded %d traces", db.recorded)
	}
	db.CharacterizeApp(app)
	if db.recorded != 1 || db.measured != spaceSize {
		t.Fatalf("cold sweep recorded %d traces and measured %d cells, want 1 and %d", db.recorded, db.measured, spaceSize)
	}
	db.CharacterizeApp(app)
	if db.recorded != 1 || db.measured != spaceSize {
		t.Fatalf("warm sweep: %d traces recorded and %d cells measured in all, want 1 and %d", db.recorded, db.measured, spaceSize)
	}
	db.mu.Lock()
	delete(db.cache, db.key(app, vcore.Max()))
	db.mu.Unlock()
	db.CharacterizeApp(app)
	if db.recorded != 1 || db.measured != spaceSize+1 {
		t.Fatalf("sweep missing one cell: %d traces recorded and %d cells measured in all, want 1 and %d",
			db.recorded, db.measured, spaceSize+1)
	}

	iv := NewDB()
	iv.Tier = isim.TierInterval
	iv.Pool = par.Serial()
	iv.CharacterizeApp(app)
	if iv.recorded != 0 {
		t.Fatalf("interval-tier sweep recorded %d traces", iv.recorded)
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
