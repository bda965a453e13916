// Package oracle implements the paper's characterisation methodology
// (§V-C): run every application in every possible configuration of the
// CASH architecture, record per-phase performance, and derive from it
// the optimal resource allocation for any QoS goal — the yardstick
// every allocator in §VI is measured against. It also produces the
// configuration-space contour data of Fig 1.
//
// Characterisation is *in context*: each configuration executes the
// whole application once, so per-phase IPC includes the cold-start and
// transition effects a live run experiences — exactly what the
// experiment engine will observe. Results are memoised per process and
// shared by every experiment; the 64-configuration sweep of an
// application parallelises across CPUs.
package oracle

import (
	"fmt"
	"math"
	"sync"

	"cash/internal/cost"
	"cash/internal/isim"
	"cash/internal/par"
	"cash/internal/slice"
	"cash/internal/ssim"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// Char is one configuration's characterisation of an application:
// per-phase average IPC and per-phase minimum quantum-window IPC. The
// minima matter because QoS violations are counted per control quantum
// (§VI-C samples performance 1000 times): a configuration can only
// *guarantee* the IPC of its worst window, not of its phase average.
type Char struct {
	// Avg[i] is phase i's average IPC on the configuration.
	Avg []float64
	// MinQ[i] is the minimum IPC over any full control-quantum window
	// inside phase i (equal to Avg[i] when the phase is shorter than a
	// window).
	MinQ []float64
}

// DB is the memoised characterisation database.
type DB struct {
	SliceCfg slice.Config
	Policy   ssim.SteeringPolicy
	Seed     uint64
	// Window is the quantum-window size in cycles used for MinQ;
	// it should match the experiment engine's control quantum.
	Window int64

	// Tier selects the simulation fidelity every measurement runs at.
	// The zero value is isim.TierCycle — the authoritative cycle-level
	// tier paper figures are produced on. The interval tier trades the
	// calibration-gated IPC tolerance (isim.CalibTolerance) for an
	// order of magnitude of sweep throughput; its MinQ is biased
	// toward Avg because modelled spans have no window-to-window
	// variance.
	Tier isim.Tier

	// Pool bounds the worker budget of the parallel configuration sweep
	// (CharacterizeApp). nil means the process-wide shared pool
	// (GOMAXPROCS workers); set par.Serial() for a serial sweep. Every
	// measurement is keyed and deterministic, so the pool affects only
	// wall-clock, never results.
	Pool *par.Pool

	mu       sync.Mutex
	cache    map[string]Char
	inflight map[string]*inflightChar

	// measured counts measureApp executions, for tests asserting the
	// in-flight deduplication (exactly one measurement per key).
	measured int64

	// sims/gens recycle simulator and generator state across
	// measurements (the sweep would otherwise allocate a full memory
	// hierarchy per (app, config) cell). Built lazily from SliceCfg and
	// Policy on first measurement.
	simsOnce sync.Once
	sims     *ssim.SimPool
	gens     sync.Pool
}

// inflightChar is a Characterize call in progress; later callers for
// the same key wait on done instead of measuring again.
type inflightChar struct {
	done chan struct{}
	val  Char
	// err holds the panic value when the measuring caller's sweep died;
	// waiters re-panic it so a poisoned measurement behaves identically
	// for every caller instead of hanging the waiters.
	err any
}

// DefaultWindow matches the experiment engine's default control quantum.
const DefaultWindow = 100_000

// NewDB returns a database with the paper's defaults.
func NewDB() *DB {
	return &DB{
		SliceCfg: slice.DefaultConfig(),
		Policy:   ssim.SteerEarliest,
		Seed:     42,
		Window:   DefaultWindow,
		cache:    make(map[string]Char),
		inflight: make(map[string]*inflightChar),
	}
}

// appKey digests the application definition, so that differently-scaled
// or differently-tuned variants never collide even under one name. The
// digest is an FNV-1a hash over every Phase field in a fixed order —
// strings length-prefixed, floats as their IEEE-754 bit patterns — so
// two applications share a key only if they are behaviourally identical
// to the generator. (An earlier scheme collapsed the instruction mix to
// the scalar ALU+2·Load+4·FPU and omitted DepFrac and SecondSrcFrac
// entirely, which let distinct workloads collide and serve each other's
// cached characterisations; cache files keyed that way carry the old
// magic and are discarded on load.)
func appKey(app workload.App) string { return string(appendAppKey(nil, app)) }

// appendAppKey appends appKey(app) to dst without allocating (beyond
// growing dst): the FNV-1a state is a local, not a hash.Hash.
func appendAppKey(dst []byte, app workload.App) []byte {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	str(app.Name)
	u64(uint64(len(app.Phases)))
	for i := range app.Phases {
		p := &app.Phases[i]
		str(p.Name)
		u64(uint64(p.Instrs))
		f64(p.Mix.ALU)
		f64(p.Mix.Mul)
		f64(p.Mix.Div)
		f64(p.Mix.FPU)
		f64(p.Mix.Load)
		f64(p.Mix.Store)
		f64(p.Mix.Branch)
		f64(p.MeanDepDist)
		f64(p.DepFrac)
		f64(p.SecondSrcFrac)
		u64(uint64(p.WorkingSetKB))
		u64(uint64(p.HotSetKB))
		f64(p.HotFrac)
		u64(uint64(p.MidSetKB))
		f64(p.MidFrac)
		f64(p.StreamFrac)
		u64(uint64(p.Stride))
		f64(p.MispredictRate)
		u64(uint64(p.RegionID))
	}
	// Keep the name readable in front of the digest for debuggability:
	// "<name>#<16 lower-case hex digits>".
	const hex = "0123456789abcdef"
	dst = append(dst, app.Name...)
	dst = append(dst, '#')
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[(h>>uint(shift))&0xf])
	}
	return dst
}

// key identifies one measurement cell: application digest,
// configuration, and — for non-cycle tiers — the tier and its geometry.
// The cycle tier keeps the bare legacy key, so existing CASHORACLE3
// cache files load as exactly what they are: cycle-level
// characterisations. Without the tier tag, a fast-tier sweep sharing a
// cache file with a cycle-level run would silently serve its
// approximations to the paper figures (and vice versa); the cross-tier
// collision regression test in key_test.go pins the separation.
func (db *DB) key(app workload.App, cfg vcore.Config) string {
	k := appendAppKey(nil, app)
	k = append(k, '@')
	k = append(k, cfg.String()...)
	return string(db.appendTier(k))
}

// appendTier appends the tier tag of db's cells to dst: nothing for the
// cycle tier, "@tier=interval" for the interval tier. Files written
// before the sampled tier was removed may also hold
// "@tier=sampled/w<W>/s<S>" cells; they load but no DB reads them.
func (db *DB) appendTier(dst []byte) []byte {
	if db.Tier == isim.TierInterval {
		dst = append(dst, "@tier=interval"...)
	}
	return dst
}

// space is vcore.Space(), and cfgSuffix[i] the "@<cfg>" key part of
// space[i]: computed once, so a table fetch formats no configuration.
var (
	space     = vcore.Space()
	cfgSuffix = func() []string {
		out := make([]string, len(space))
		for i, cfg := range space {
			out[i] = "@" + cfg.String()
		}
		return out
	}()
)

// spaceSize is the number of configurations; appTable sizes its arrays
// with it and tracks filled cells in a uint64 (init checks it against
// vcore.Space()).
const spaceSize = 64

func init() {
	if len(space) != spaceSize {
		panic(fmt.Sprintf("oracle: configuration space has %d points, table holds %d", len(space), spaceSize))
	}
}

// appTable is one application's characterisations on every
// configuration, indexed like vcore.Space() (vcore.Config.Index). It is
// filled from the cache under one lock; cells still absent are
// characterised lazily, one at a time through Characterize's
// singleflight, the first time a query reads them — so a cold query
// measures exactly the cells (and in exactly the order) it did when
// every read was a Characterize call.
type appTable struct {
	db    *DB
	app   workload.App
	chars [spaceSize]Char
	have  uint64 // bit i set: chars[i] is filled
}

// table fetches app's cached characterisations at db's tier. The
// application digest and tier tag are derived once and joined with the
// precomputed configuration suffixes in a stack buffer; the map lookup
// converts it to a string without allocating.
func (db *DB) table(app workload.App) appTable {
	t := appTable{db: db, app: app}
	var kb [128]byte
	k := appendAppKey(kb[:0], app)
	n := len(k)
	var tb [64]byte
	tier := db.appendTier(tb[:0])
	db.mu.Lock()
	for i, suffix := range cfgSuffix {
		k = append(append(k[:n], suffix...), tier...)
		if c, ok := db.cache[string(k)]; ok {
			t.chars[i] = c
			t.have |= 1 << uint(i)
		}
	}
	db.mu.Unlock()
	return t
}

// at returns the characterisation of space[i], measuring it on first
// use.
func (t *appTable) at(i int) *Char {
	if t.have&(1<<uint(i)) == 0 {
		t.chars[i] = t.db.Characterize(t.app, space[i])
		t.have |= 1 << uint(i)
	}
	return &t.chars[i]
}

// Characterize returns the characterisation of app on cfg, measuring it
// on first use. Concurrent calls for the same key are deduplicated:
// the first caller measures, the rest wait for its result. Without
// this, the parallel sweep of CharacterizeApp (or several experiment
// cells sharing a DB) could burn a full application simulation per
// caller before the first result lands in the cache.
func (db *DB) Characterize(app workload.App, cfg vcore.Config) Char {
	key := db.key(app, cfg)
	db.mu.Lock()
	if v, ok := db.cache[key]; ok {
		db.mu.Unlock()
		return v
	}
	if c, ok := db.inflight[key]; ok {
		db.mu.Unlock()
		<-c.done
		if c.err != nil {
			panic(c.err)
		}
		return c.val
	}
	c := &inflightChar{done: make(chan struct{})}
	if db.inflight == nil {
		db.inflight = make(map[string]*inflightChar)
	}
	db.inflight[key] = c
	db.mu.Unlock()

	// A panicking measurement must not leave waiters hanging on the
	// in-flight entry: record the panic for them, clear the entry so a
	// later call retries from scratch, wake everyone, then re-panic.
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.err = r
				db.mu.Lock()
				delete(db.inflight, key)
				db.mu.Unlock()
				close(c.done)
				panic(r)
			}
		}()
		c.val = db.measureApp(app, cfg)
	}()

	db.mu.Lock()
	db.cache[key] = c.val
	delete(db.inflight, key)
	db.mu.Unlock()
	close(c.done)
	return c.val
}

// PhaseIPC returns the in-context average IPC of every phase of app on
// cfg.
func (db *DB) PhaseIPC(app workload.App, cfg vcore.Config) []float64 {
	return db.Characterize(app, cfg).Avg
}

// IPC returns the in-context average IPC of one phase on one
// configuration.
func (db *DB) IPC(app workload.App, phaseIdx int, cfg vcore.Config) float64 {
	return db.Characterize(app, cfg).Avg[phaseIdx]
}

// MinQuantumIPC returns the minimum control-quantum IPC of one phase on
// one configuration — the level the configuration can guarantee.
func (db *DB) MinQuantumIPC(app workload.App, phaseIdx int, cfg vcore.Config) float64 {
	return db.Characterize(app, cfg).MinQ[phaseIdx]
}

// measureApp executes the whole application once on cfg, quantum window
// by quantum window. Simulator and generator state is recycled through
// pools: a recycled instance is reset to exactly the state a fresh one
// would be built in (guarded by the pooled golden tests), so pooling
// changes allocation behaviour only.
func (db *DB) measureApp(app workload.App, cfg vcore.Config) Char {
	db.mu.Lock()
	db.measured++
	db.mu.Unlock()
	db.simsOnce.Do(func() {
		db.sims = ssim.NewSimPool(db.SliceCfg, db.Policy)
		db.gens.New = func() any { return new(workload.Gen) }
	})
	sim, err := db.sims.Acquire(cfg)
	if err != nil {
		panic(fmt.Sprintf("oracle: acquiring simulator for %s: %v", cfg, err))
	}
	defer db.sims.Release(sim)
	gen := db.gens.Get().(*workload.Gen)
	gen.ResetTo(app, db.Seed)
	defer db.gens.Put(gen)
	// The fast tier wraps the pooled detailed simulator per measurement;
	// the wrapper holds only the per-phase model state, so pooling
	// semantics (and the tier-1 byte-identity contract for TierCycle,
	// which isim.New returns unwrapped) are untouched.
	runner := isim.New(db.Tier, sim)
	ch := Char{
		Avg:  make([]float64, len(app.Phases)),
		MinQ: make([]float64, len(app.Phases)),
	}
	window := db.Window
	if window <= 0 {
		window = DefaultWindow
	}
	for pi, p := range app.Phases {
		var instrs, cycles int64
		minQ := math.Inf(1)
		remaining := p.Instrs
		for remaining > 0 {
			// Gen.Next never crosses a phase boundary, so bounding by the
			// phase's remaining instructions attributes cycles precisely.
			n, c := runner.RunBudget(gen, remaining, window)
			if n == 0 && c == 0 {
				break
			}
			remaining -= n
			instrs += n
			cycles += c
			// Only full windows wholly inside the phase define the
			// guaranteeable level.
			if c >= window && remaining > 0 {
				if q := float64(n) / float64(c); q < minQ {
					minQ = q
				}
			}
		}
		if cycles > 0 {
			ch.Avg[pi] = float64(instrs) / float64(cycles)
		}
		if math.IsInf(minQ, 1) {
			minQ = ch.Avg[pi]
		}
		ch.MinQ[pi] = minQ
	}
	return ch
}

// CharacterizeApp sweeps all 64 configurations of the space for app
// (§V-C's brute force), drawing workers from db.Pool (nil: the shared
// GOMAXPROCS budget). Each cell is keyed by (app, config) and measured
// deterministically, and the cache file serialises in sorted key
// order, so every artifact downstream of the sweep is byte-identical
// whatever the worker count. Concurrent sweeps of the same app compose
// through Characterize's singleflight: the overlapping cells are
// measured once and shared. On a warm database the sweep is one table
// fetch.
func (db *DB) CharacterizeApp(app workload.App) {
	t := db.table(app)
	var missing []int
	for i := range space {
		if t.have&(1<<uint(i)) == 0 {
			missing = append(missing, i)
		}
	}
	par.Resolve(db.Pool).ForEach(len(missing), func(i int) {
		db.Characterize(app, space[missing[i]])
	})
}

// Grid returns the 8×8 IPC surface of one phase: grid[s-1][l2Idx]
// (Fig 1's contour data).
func (db *DB) Grid(app workload.App, phaseIdx int) [][]float64 {
	t := db.table(app)
	steps := vcore.L2Steps()
	grid := make([][]float64, vcore.MaxSlices)
	for si := range grid {
		grid[si] = make([]float64, len(steps))
		for li := range steps {
			grid[si][li] = t.at(si*len(steps) + li).Avg[phaseIdx]
		}
	}
	return grid
}

// MaxIPC returns the best achievable IPC for a phase and the achieving
// configuration.
func (db *DB) MaxIPC(app workload.App, phaseIdx int) (float64, vcore.Config) {
	t := db.table(app)
	best, bestCfg := -1.0, vcore.Config{}
	for i, cfg := range space {
		if v := t.at(i).Avg[phaseIdx]; v > best {
			best, bestCfg = v, cfg
		}
	}
	return best, bestCfg
}

// QoSTargetSlack is the feasibility headroom applied when deriving a
// QoS requirement from the worst-case phase: the paper sets the target
// to the "highest worst case IPC seen" for the application; we back off
// slightly so the worst phase has at least one robustly-feasible
// configuration under measurement noise.
const QoSTargetSlack = 0.95

// QoSTarget derives an application's QoS requirement (§VI-C): the
// "highest worst case IPC seen" — the best quantum-level IPC that some
// single configuration can guarantee across every phase — with slack.
func (db *DB) QoSTarget(app workload.App) float64 {
	t := db.table(app)
	best := 0.0
	for i := range space {
		worst := math.Inf(1)
		for _, q := range t.at(i).MinQ {
			if q < worst {
				worst = q
			}
		}
		if worst > best {
			best = worst
		}
	}
	return best * QoSTargetSlack
}

// CheapestFeasible returns the lowest-rate configuration whose IPC
// meets the target in the given phase, or an error when none does.
func (db *DB) CheapestFeasible(app workload.App, phaseIdx int, target float64, m cost.Model) (vcore.Config, error) {
	t := db.table(app)
	for _, cfg := range m.CheapestFirst() {
		if t.at(cfg.Index()).MinQ[phaseIdx] >= target {
			return cfg, nil
		}
	}
	return vcore.Config{}, fmt.Errorf("oracle: no configuration reaches IPC %.3f in phase %d of %s",
		target, phaseIdx, app.Name)
}

// BestPerPhase returns, for each phase, the minimum-cost-per-work
// feasible configuration — the allocation the Optimal line uses. With
// free idling, the cost of a phase under configuration c is
// rate(c)·instrs/IPC(c), so the optimum minimises rate/IPC among
// feasible configurations.
func (db *DB) BestPerPhase(app workload.App, target float64, m cost.Model) ([]vcore.Config, []float64, error) {
	t := db.table(app)
	cfgs := make([]vcore.Config, len(app.Phases))
	qos := make([]float64, len(app.Phases))
	for pi := range app.Phases {
		best := vcore.Config{}
		bestEff := math.Inf(1)
		bestIPC := 0.0
		for i, cfg := range space {
			ch := t.at(i)
			if ch.MinQ[pi] < target {
				continue
			}
			ipc := ch.Avg[pi]
			if eff := m.Rate(cfg) / ipc; eff < bestEff {
				best, bestEff, bestIPC = cfg, eff, ipc
			}
		}
		if bestIPC == 0 {
			return nil, nil, fmt.Errorf("oracle: phase %d of %s has no feasible configuration for target %.3f",
				pi, app.Name, target)
		}
		cfgs[pi] = best
		qos[pi] = bestIPC
	}
	return cfgs, qos, nil
}

// WorstCaseConfig returns the cheapest configuration that meets the
// target in *every* phase — race-to-idle's a-priori knowledge (§II-B).
func (db *DB) WorstCaseConfig(app workload.App, target float64, m cost.Model) (vcore.Config, error) {
	t := db.table(app)
	for _, cfg := range m.CheapestFirst() {
		ok := true
		ch := t.at(cfg.Index())
		for pi := range app.Phases {
			if ch.MinQ[pi] < target {
				ok = false
				break
			}
		}
		if ok {
			return cfg, nil
		}
	}
	return vcore.Config{}, fmt.Errorf("oracle: no configuration meets target %.3f in all phases of %s",
		target, app.Name)
}

// OptimalCost returns the analytic minimum cost of running the whole
// application at the QoS target, with free idling (§V-C).
func (db *DB) OptimalCost(app workload.App, target float64, m cost.Model) (float64, error) {
	cfgs, qos, err := db.BestPerPhase(app, target, m)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for pi, p := range app.Phases {
		cycles := float64(p.Instrs) / qos[pi]
		total += m.Rate(cfgs[pi]) * cycles / cost.CyclesPerHour
	}
	return total, nil
}

// AvgSpeedup returns the application's instruction-weighted average
// speedup for each configuration, relative to the minimal
// configuration — the offline calibration the convex baseline gets.
func (db *DB) AvgSpeedup(app workload.App) func(vcore.Config) float64 {
	t := db.table(app)
	total := float64(app.TotalInstrs())
	baseIPC := t.at(vcore.Min().Index()).Avg
	avg := make(map[vcore.Config]float64, len(space))
	for i, cfg := range space {
		ipc := t.at(i).Avg
		s := 0.0
		for pi, p := range app.Phases {
			if baseIPC[pi] <= 0 {
				continue
			}
			s += (ipc[pi] / baseIPC[pi]) * float64(p.Instrs) / total
		}
		avg[cfg] = s
	}
	return func(c vcore.Config) float64 { return avg[c] }
}

// LocalOptimum is a strict local maximum of a phase's IPC surface.
type LocalOptimum struct {
	Cfg vcore.Config
	IPC float64
	// Global marks the surface's global optimum.
	Global bool
}

// LocalOptima returns the strict local maxima of a phase's IPC surface
// under 4-neighbourhood comparison with a relative tolerance (to ignore
// plateau noise). The Fig 1 analysis counts phases whose surface has
// maxima distinct from the global optimum.
func (db *DB) LocalOptima(app workload.App, phaseIdx int, tol float64) []LocalOptimum {
	grid := db.Grid(app, phaseIdx)
	rows, cols := len(grid), len(grid[0])
	gBest, gs, gl := -1.0, 0, 0
	for si := 0; si < rows; si++ {
		for li := 0; li < cols; li++ {
			if grid[si][li] > gBest {
				gBest, gs, gl = grid[si][li], si, li
			}
		}
	}
	var out []LocalOptimum
	for si := 0; si < rows; si++ {
		for li := 0; li < cols; li++ {
			v := grid[si][li]
			higher := func(a, b int) bool {
				return a >= 0 && a < rows && b >= 0 && b < cols && grid[a][b] >= v*(1-tol)
			}
			if (si == gs && li == gl) ||
				(!higher(si-1, li) && !higher(si+1, li) && !higher(si, li-1) && !higher(si, li+1)) {
				out = append(out, LocalOptimum{
					Cfg:    vcore.Config{Slices: si + 1, L2KB: vcore.L2Steps()[li]},
					IPC:    v,
					Global: si == gs && li == gl,
				})
			}
		}
	}
	return out
}
