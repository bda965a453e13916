package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cash/internal/cost"
	"cash/internal/daemon"
	"cash/internal/daemon/client"
	"cash/internal/fleet"
	"cash/internal/supervise"
)

// cashd-mixed sizes. The prepared journal holds cashdTenants tenants
// whose cells have all landed; each pass restarts on a fresh copy of
// it and sends one fixed, seeded batch of requests.
const (
	cashdTenants      = 1000
	cashdTenantCells  = 4
	cashdChips        = 16
	cashdSlots        = 4
	cashdPrepEpoch    = time.Millisecond
	cashdEpoch        = 5 * time.Millisecond
	cashdBatchSubmits = 200
	cashdBatchSpends  = 40
	cashdBatchHealth  = 30
	cashdBatchAllocs  = 30
	cashdBatchCells   = 1
	cashdRecordProbe  = 200
	cashdCodecRounds  = 200
	// Tails: the highest of p99.9/p99/p95/p90 with at least ten samples
	// beyond it at the minimum pass count (200, 40 and 30 per pass) and
	// over the record probe's 200.
	cashdMinPasses  = 6
	cashdSubmitTail = 0.99
	cashdSpendTail  = 0.95
	cashdHealthTail = 0.90
	cashdRecordTail = 0.95
)

// splitmix is the benchmark's seeded generator for names and mixes.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// cashdOp is one request of a batch.
type cashdOp struct {
	Method string
	Spec   daemon.TenantSpec // submit only
}

// cashdInputs are the seeded inputs of a run.
type cashdInputs struct {
	Preload []daemon.TenantSpec
	Batch   []cashdOp
}

func newCashdInputs(seed uint64) cashdInputs {
	rng := splitmix(seed)
	var in cashdInputs
	for i := 0; i < cashdTenants; i++ {
		in.Preload = append(in.Preload, daemon.TenantSpec{
			Name: fmt.Sprintf("p%05d", i), Cells: cashdTenantCells, Seed: rng.next(),
		})
	}
	for i := 0; i < cashdBatchSubmits; i++ {
		in.Batch = append(in.Batch, cashdOp{Method: daemon.MethodSubmit, Spec: daemon.TenantSpec{
			Name: fmt.Sprintf("b%05d", i), Cells: cashdBatchCells, Seed: rng.next(),
		}})
	}
	for _, r := range []struct {
		method string
		n      int
	}{{daemon.MethodSpend, cashdBatchSpends}, {daemon.MethodHealth, cashdBatchHealth}, {daemon.MethodAlloc, cashdBatchAllocs}} {
		for i := 0; i < r.n; i++ {
			in.Batch = append(in.Batch, cashdOp{Method: r.method})
		}
	}
	// Fisher-Yates: the reads land at seeded places among the submits.
	for i := len(in.Batch) - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		in.Batch[i], in.Batch[j] = in.Batch[j], in.Batch[i]
	}
	return in
}

// funds covers every grant the run can make, headroom included, so
// that no Grant is ever refused and no cell defers for lack of budget.
func (in cashdInputs) funds() fleet.Nanos {
	var sum fleet.Nanos
	for _, s := range in.Preload {
		sum += daemon.ExpectedSpend(s, cost.Default())
	}
	for _, op := range in.Batch {
		if op.Method == daemon.MethodSubmit {
			sum += daemon.ExpectedSpend(op.Spec, cost.Default())
		}
	}
	return 2*sum + 1_000_000_000
}

// cashdEnv is a run's files: a short relative socket path (Unix socket
// paths are limited to about 100 bytes) and the journals.
type cashdEnv struct {
	socket, prepared, journal string
	funds                     fleet.Nanos
}

func (e cashdEnv) options(epoch time.Duration) daemon.Options {
	return daemon.Options{
		Socket: e.socket, Journal: e.journal,
		Chips: cashdChips, SlotsPerChip: cashdSlots,
		Epoch: epoch, Funds: e.funds,
	}
}

// dialAll opens n clients whose retry decisions are counted in retries.
func dialAll(socket string, n int, seed uint64, retries *lineCounter) ([]*client.Client, error) {
	var cs []*client.Client
	for i := 0; i < n; i++ {
		c, err := client.Dial(client.Options{Socket: socket, Seed: seed + uint64(i) + 1, Log: retries})
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

func closeAll(cs []*client.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// lineCounter counts lines written to it (one per client retry
// decision).
type lineCounter struct{ n atomic.Int64 }

func (l *lineCounter) Write(p []byte) (int, error) {
	l.n.Add(int64(bytes.Count(p, []byte{'\n'})))
	return len(p), nil
}

// prepareJournal writes the preloaded state through a real daemon: all
// tenants submitted, every cell landed, then a clean drain.
func prepareJournal(env cashdEnv, in cashdInputs, conns int) error {
	opts := env.options(cashdPrepEpoch)
	opts.Journal = env.prepared
	srv, err := daemon.Start(opts)
	if err != nil {
		return err
	}
	var retries lineCounter
	cs, err := dialAll(env.socket, conns, 0, &retries)
	if err != nil {
		srv.Kill()
		return err
	}
	defer closeAll(cs)
	var next atomic.Int64
	errs := make(chan error, len(cs))
	for _, c := range cs {
		go func(c *client.Client) {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.Preload) {
					errs <- nil
					return
				}
				s := in.Preload[i]
				if _, err := c.Submit(s.Name, s); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	for range cs {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err == nil {
		_, err = awaitQuiet(cs[0])
	}
	if err != nil {
		srv.Kill()
		return err
	}
	if err := cs[0].Drain(); err != nil {
		srv.Kill()
		return err
	}
	return srv.Wait()
}

// awaitQuiet polls health until every admitted cell has landed.
func awaitQuiet(c *client.Client) (daemon.HealthResult, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		h, err := c.Health()
		if err != nil {
			return h, err
		}
		if h.CellsLanded == h.CellsTotal && h.Pending == 0 && h.Running == 0 {
			return h, nil
		}
		if time.Now().After(deadline) {
			return h, fmt.Errorf("cells still executing after 60s: %+v", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// copyFile copies src to dst and syncs it, so that the timed batch's
// first fsync does not also write back the whole copy.
func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// cashdPass is what one pass measured.
type cashdPass struct {
	start, wall, cpu float64
	lat              map[string][]float64 // client-observed ms, by method
	ticks            int64
	retries          int64
	shed             int64
	spend            daemon.SpendResult
	health           daemon.HealthResult // after every cell landed
}

// runBatch restarts the daemon on a fresh copy of the prepared journal,
// sends the batch closed-loop over conns connections (timed), waits for
// every cell to land, checks the books and drains.
func runBatch(env cashdEnv, in cashdInputs, conns int, seed uint64, tr *tracer, pass int) (cashdPass, error) {
	p := cashdPass{lat: map[string][]float64{}}
	if err := copyFile(env.journal, env.prepared); err != nil {
		return p, err
	}
	t0 := time.Now()
	srv, err := daemon.Start(env.options(cashdEpoch))
	if err != nil {
		return p, err
	}
	p.start = time.Since(t0).Seconds()
	var retries lineCounter
	cs, err := dialAll(env.socket, conns, seed, &retries)
	if err != nil {
		srv.Kill()
		return p, err
	}
	defer closeAll(cs)
	fail := func(err error) (cashdPass, error) {
		srv.Kill()
		return p, err
	}
	before, err := cs[0].Health()
	if err != nil {
		return fail(err)
	}

	var next atomic.Int64
	var mu sync.Mutex
	errs := make(chan error, len(cs))
	wall, cpu, err := measured(func() error {
		for ci, c := range cs {
			go func(ci int, c *client.Client) {
				root := tr.begin("conn", 0, 0)
				defer tr.end(root)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(in.Batch) {
						errs <- nil
						return
					}
					op := in.Batch[i]
					group := pass*len(in.Batch) + i + 1
					id := tr.begin("daemon."+op.Method, root, group)
					t := time.Now()
					var err error
					switch op.Method {
					case daemon.MethodSubmit:
						_, err = c.Submit(fmt.Sprintf("%s-%d", op.Spec.Name, seed), op.Spec)
					case daemon.MethodSpend:
						_, err = c.Spend()
					case daemon.MethodHealth:
						_, err = c.Health()
					case daemon.MethodAlloc:
						_, err = c.Alloc()
					}
					ms := float64(time.Since(t).Nanoseconds()) / 1e6
					tr.end(id)
					if err != nil {
						errs <- fmt.Errorf("conn %d: %s: %w", ci, op.Method, err)
						return
					}
					mu.Lock()
					p.lat[op.Method] = append(p.lat[op.Method], ms)
					mu.Unlock()
				}
			}(ci, c)
		}
		var first error
		for range cs {
			if e := <-errs; e != nil && first == nil {
				first = e
			}
		}
		return first
	})
	if err != nil {
		return fail(err)
	}
	p.wall, p.cpu = wall, cpu

	after, err := cs[0].Health()
	if err != nil {
		return fail(err)
	}
	p.ticks = after.Tick - before.Tick
	if p.health, err = awaitQuiet(cs[0]); err != nil {
		return fail(err)
	}
	if p.spend, err = cs[0].Spend(); err != nil {
		return fail(err)
	}
	p.shed = p.health.Shed
	p.retries = retries.n.Load()
	if err := checkBooks(in, p); err != nil {
		return fail(err)
	}
	if err := cs[0].Drain(); err != nil {
		return fail(err)
	}
	return p, srv.Wait()
}

// checkBooks verifies exactly-once landing and nanodollar-exact
// reconciliation: every tenant landed each cell once, consumed exactly
// its closed-form price, and was granted exactly consumed + refunded.
func checkBooks(in cashdInputs, p cashdPass) error {
	want := map[string]daemon.TenantSpec{}
	for _, s := range in.Preload {
		want[s.Name] = s
	}
	for _, op := range in.Batch {
		if op.Method == daemon.MethodSubmit {
			want[op.Spec.Name] = op.Spec
		}
	}
	if len(p.spend.Tenants) != len(want) {
		return fmt.Errorf("%d tenants on the books, %d submitted", len(p.spend.Tenants), len(want))
	}
	var cells int
	for _, t := range p.spend.Tenants {
		s, ok := want[t.Name]
		if !ok {
			return fmt.Errorf("unknown tenant %q on the books", t.Name)
		}
		if t.Landed != s.Cells || t.Cells != s.Cells {
			return fmt.Errorf("tenant %s landed %d of %d cells (spec %d)", t.Name, t.Landed, t.Cells, s.Cells)
		}
		if exp := daemon.ExpectedSpend(s, cost.Default()); t.Consumed != exp {
			return fmt.Errorf("tenant %s consumed %d nanodollars, its cells cost %d", t.Name, t.Consumed, exp)
		}
		if t.Granted != t.Consumed+t.Refunded || t.Outstanding != 0 {
			return fmt.Errorf("tenant %s: granted %d != consumed %d + refunded %d (outstanding %d)",
				t.Name, t.Granted, t.Consumed, t.Refunded, t.Outstanding)
		}
		cells += t.Cells
	}
	if p.health.CellsLanded != cells || p.health.Tenants != len(want) {
		return fmt.Errorf("health reports %d tenants, %d cells landed; books hold %d, %d",
			p.health.Tenants, p.health.CellsLanded, len(want), cells)
	}
	return nil
}

// recordProbe times Journal.RecordOnce on its own, on the same file
// system: the append + fsync floor under every submit.
func recordProbe(dir string) ([]float64, error) {
	j, err := supervise.OpenJournal(filepath.Join(dir, "probe.jsonl"), "perfbench probe", false)
	if err != nil {
		return nil, err
	}
	defer j.Close()
	var ms []float64
	for i := 0; i < cashdRecordProbe; i++ {
		t := time.Now()
		if _, err := j.RecordOnce(supervise.Entry{Status: supervise.StatusOK, Key: fmt.Sprintf("probe %d", i),
			Value: json.RawMessage(`{"spec":{"name":"probe","cells":2,"seed":1}}`)}); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return ms, nil
}

// codecProbe times WriteFrame + ReadFrame on a submit request and a
// spend response of the run, in µs per frame.
func codecProbe(in cashdInputs, spend daemon.SpendResult) (float64, error) {
	var submit cashdOp
	for _, op := range in.Batch {
		if op.Method == daemon.MethodSubmit {
			submit = op
			break
		}
	}
	params, err := json.Marshal(submit.Spec)
	if err != nil {
		return 0, err
	}
	result, err := json.Marshal(spend)
	if err != nil {
		return 0, err
	}
	frames := []any{
		daemon.Request{ID: 1, Method: daemon.MethodSubmit, Idem: submit.Spec.Name, Params: params},
		daemon.Response{ID: 1, Code: daemon.CodeOK, Result: result},
	}
	var buf bytes.Buffer
	t := time.Now()
	for i := 0; i < cashdCodecRounds; i++ {
		for _, f := range frames {
			buf.Reset()
			if err := daemon.WriteFrame(&buf, f); err != nil {
				return 0, err
			}
			var back json.RawMessage
			if err := daemon.ReadFrame(bufio.NewReader(&buf), &back); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(t).Nanoseconds()) / 1e3 / float64(cashdCodecRounds*len(frames)), nil
}

func runCashdMixed(cfg runConfig) (outcome, error) {
	out := outcome{Metrics: map[string]float64{}}
	// One closed-loop connection per processor, all processors in use.
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)
	in := newCashdInputs(cfg.Seed)
	env := cashdEnv{
		socket:   filepath.Join(cfg.Scratch, "d.sock"),
		prepared: filepath.Join(cfg.Scratch, "prepared.jsonl"),
		journal:  filepath.Join(cfg.Scratch, "cashd.jsonl"),
		funds:    in.funds(),
	}
	if err := prepareJournal(env, in, conns); err != nil {
		return out, fmt.Errorf("preparing the journal: %w", err)
	}

	var digest string
	var passes []cashdPass
	pass := func(i int, tr *tracer) (cashdPass, error) {
		out.Attempted += len(in.Batch)
		p, err := runBatch(env, in, conns, cfg.Seed, tr, i)
		if err != nil {
			out.Failed += len(in.Batch)
			return p, fmt.Errorf("pass %d: %w", i, err)
		}
		if i == 0 {
			digest = p.health.Digest
		} else if p.health.Digest != digest {
			return p, fmt.Errorf("pass %d health digest %s, pass 0 %s", i, p.health.Digest, digest)
		}
		passes = append(passes, p)
		return p, nil
	}
	starts := func() []float64 {
		var s []float64
		for _, p := range passes {
			s = append(s, p.start)
		}
		return s
	}

	if !cfg.Trace {
		pt, err := timePasses(cfg.Seconds, cashdMinPasses, func(i int) (float64, float64, error) {
			p, err := pass(i, nil)
			return p.wall, p.cpu, err
		})
		if err != nil {
			out.Check = err
			return out, nil
		}
		out.Metrics["setup_s"] = median(starts())
		out.Metrics["wall_s"] = median(pt.Wall)
		out.Metrics["cpu_s"] = median(pt.CPU)
		out.Digest = digest
		logf("cashd-mixed seed %d: %d passes, health digest %s", cfg.Seed, len(pt.Wall), digest)
		return out, nil
	}

	tr := newTracer()
	byIndex := map[int]cashdPass{}
	run, err := alternate(cfg.Seconds, cashdMinPasses, tr, func(i int, t *tracer) (float64, error) {
		p, err := pass(i, t)
		byIndex[i] = p
		return p.wall, err
	})
	if err != nil {
		out.Check = err
		return out, nil
	}
	k, b, err := run.medianPass()
	if err != nil {
		out.Check = err
		return out, nil
	}
	med := byIndex[k]

	// Client-observed latencies pool every pass of the run; tracing
	// adds two clock reads to a request that takes milliseconds.
	lat := map[string][]float64{}
	var walls []float64
	for _, p := range passes {
		for m, xs := range p.lat {
			lat[m] = append(lat[m], xs...)
		}
		walls = append(walls, p.wall)
	}
	m := out.Metrics
	m["req_per_s"] = float64(len(in.Batch)) / median(walls)
	m["submit_p50_ms"] = median(lat[daemon.MethodSubmit])
	m["spend_p50_ms"] = median(lat[daemon.MethodSpend])
	m["daemon.alloc_ms_p50"] = median(lat[daemon.MethodAlloc])
	m["daemon.health_ms_p50"] = median(lat[daemon.MethodHealth])
	for name, t := range map[string]struct {
		method string
		q      float64
	}{
		"submit_tail_ms":        {daemon.MethodSubmit, cashdSubmitTail},
		"spend_tail_ms":         {daemon.MethodSpend, cashdSpendTail},
		"daemon.health_ms_tail": {daemon.MethodHealth, cashdHealthTail},
	} {
		v, err := tailAt(lat[t.method], t.q)
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		m[name] = v
	}
	m["daemon.start_s"] = median(starts())
	frame, err := daemon.AppendFrame(nil, med.spend)
	if err != nil {
		return out, err
	}
	m["daemon.spend_kb"] = float64(len(frame)) / 1024
	m["daemon.ticks"] = float64(med.ticks)
	m["daemon.tick_lag_pct"] = 100 * (1 - float64(med.ticks)/(med.wall/cashdEpoch.Seconds()))
	if m["daemon.codec_us"], err = codecProbe(in, med.spend); err != nil {
		return out, err
	}
	m["daemon.shed"] = float64(med.shed)
	m["client.retries"] = float64(med.retries)
	m["daemon.tenants"] = float64(med.health.Tenants)
	m["daemon.cells_landed"] = float64(med.health.CellsLanded)
	rec, err := recordProbe(cfg.Scratch)
	if err != nil {
		return out, err
	}
	m["supervise.record_ms_p50"] = median(rec)
	if m["supervise.record_ms_tail"], err = tailAt(rec, cashdRecordTail); err != nil {
		return out, err
	}
	m["figs.other_s"] = b.Self["conn"]
	m["trace.overhead_pct"] = run.overheadPct()
	methods := make([]string, 0, len(b.Self))
	for n := range b.Self {
		methods = append(methods, n)
	}
	sort.Strings(methods)
	for _, n := range methods {
		logf("cashd-mixed traced pass: %s self %.4fs over %d spans", n, b.Self[n], b.Count[n])
	}
	out.Digest = digest
	logf("cashd-mixed seed %d: health digest %s", cfg.Seed, digest)
	return out, tr.dump(traceFile(cfg, "cashd-mixed"))
}
