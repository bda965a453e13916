package soak

import (
	"fmt"
	"path/filepath"
	"time"

	"cash/internal/cost"
	"cash/internal/daemon"
	"cash/internal/daemon/client"
	"cash/internal/fault"
	"cash/internal/fleet"
)

// The daemon suite drives cashd through kill -9 + restart cycles under
// a fault-injected wire, with the retrying client, and audits the
// wreckage: every cell executed exactly once, resubmits after a
// restart still deduplicated, every tenant's books balanced to the
// nanodollar and a clean drain. The replay submits the same tenants to
// a fresh daemon on a clean wire with no kills; the health digest is a
// pure function of what was submitted, so the two must agree.

// daemonShape sizes a daemon run: tenants × cells, killed and
// restarted kills times mid-execution.
type daemonShape struct {
	tenants, cells, kills int
}

var daemonDefault = daemonShape{tenants: 6, cells: 4, kills: 2}

// daemonEpoch is the daemon tick interval: fast enough to finish, slow
// enough that kills land mid-execution.
const daemonEpoch = 2 * time.Millisecond

// daemonSuite registers the daemon scenario at the given shape.
func daemonSuite(sh daemonShape) []scenario {
	return []scenario{{suite: "daemon", name: "kill-restart",
		seed: func(i int) uint64 { return uint64(1000 + 17*i) },
		run: func(seed uint64, dir string, replay bool) Result {
			health, kills, err := runDaemon(sh, seed, dir, !replay)
			if err != nil {
				return Result{Violations: []string{err.Error()}}
			}
			return Result{Digest: health.Digest, Counters: []Counter{
				{"kills", int64(kills)},
				{"cells", int64(health.CellsLanded)},
				{"nanos", health.ConsumedNanos},
			}}
		}}}
}

func dial(socket string, seed uint64) (*client.Client, error) {
	return client.Dial(client.Options{
		Socket:      socket,
		Seed:        seed,
		Timeout:     2 * time.Second,
		MaxAttempts: 12,
		BaseBackoff: 2 * time.Millisecond,
		MaxBackoff:  50 * time.Millisecond,
	})
}

// runDaemon runs one daemon to completion and returns its final health
// and the kills executed, or the first invariant it broke. With chaos
// the wire injects faults and the daemon is killed and restarted
// sh.kills times.
func runDaemon(sh daemonShape, seed uint64, dir string, chaos bool) (health daemon.HealthResult, kills int, err error) {
	suffix := "replay"
	if chaos {
		suffix = "chaos"
	}
	socket := filepath.Join(dir, fmt.Sprintf("cashd-%d-%s.sock", seed, suffix))
	journal := filepath.Join(dir, fmt.Sprintf("cashd-%d-%s.jsonl", seed, suffix))
	dopts := daemon.Options{
		Socket:       socket,
		Journal:      journal,
		Epoch:        daemonEpoch,
		QueueCap:     16,
		DrainTimeout: 30 * time.Second,
	}
	if chaos {
		dopts.WireFaults = fault.DefaultWireSpec(seed)
	}
	srv, err := daemon.Start(dopts)
	if err != nil {
		return health, 0, err
	}
	defer func() { srv.Kill() }() // no-op after a clean drain

	cl, err := dial(socket, seed)
	if err != nil {
		return health, 0, err
	}
	defer cl.Close()

	// Submit every tenant through the retrying client; the idempotency
	// key makes retries (and wire-fault duplicates) exactly-once.
	specs := make([]daemon.TenantSpec, sh.tenants)
	var want fleet.Nanos
	for t := range specs {
		specs[t] = daemon.TenantSpec{
			Name:  fmt.Sprintf("tenant-%d", t),
			Cells: sh.cells,
			Seed:  seed + uint64(t)*101,
		}
		want += daemon.ExpectedSpend(specs[t], cost.Default())
		idem := fmt.Sprintf("seed-%d-tenant-%d", seed, t)
		if _, err := cl.Submit(idem, specs[t]); err != nil {
			return health, 0, fmt.Errorf("submit %s: %w", specs[t].Name, err)
		}
		// Duplicate submit under the same key must ack as a replay, not
		// double-admit.
		ack, err := cl.Submit(idem, specs[t])
		if err != nil {
			return health, 0, fmt.Errorf("duplicate submit %s: %w", specs[t].Name, err)
		}
		if !ack.Resubmitted {
			return health, 0, fmt.Errorf("duplicate submit %s not marked resubmitted", specs[t].Name)
		}
	}

	// A watcher streams epochs in the background, reconnecting across
	// kills and fault-severed connections — proving the stream never
	// wedges a client. It stops on the drain's Final event or when the
	// run signals it to.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			wcl, werr := dial(socket, seed^0xabcd)
			if werr != nil {
				return
			}
			werr = wcl.Watch(2*time.Second, func(ev daemon.Epoch) bool { return !ev.Final })
			wcl.Close()
			if werr == nil {
				return // Final seen or handler stopped
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	defer close(stop)

	totalCells := sh.tenants * sh.cells
	if chaos {
		for k := 0; k < sh.kills; k++ {
			// Let some cells land, then kill mid-execution.
			if _, err := waitProgress(cl, (k+1)*totalCells/(sh.kills+2)); err != nil {
				return health, kills, fmt.Errorf("pre-kill %d: %w", k+1, err)
			}
			srv.Kill()
			kills++
			srv, err = daemon.Start(dopts)
			if err != nil {
				return health, kills, fmt.Errorf("restart %d: %w", k+1, err)
			}
			// Resubmitting after a crash must still dedup: the journal,
			// not process memory, is the source of truth.
			idem := fmt.Sprintf("seed-%d-tenant-%d", seed, 0)
			ack, aerr := cl.Submit(idem, specs[0])
			if aerr != nil {
				return health, kills, fmt.Errorf("post-restart resubmit: %w", aerr)
			}
			if !ack.Resubmitted {
				return health, kills, fmt.Errorf("restart %d lost submit %s", k+1, idem)
			}
		}
	}

	// Wait for every cell to land, then audit.
	health, err = waitProgress(cl, totalCells)
	if err != nil {
		return health, kills, err
	}
	if health.CellsLanded != totalCells || health.CellsTotal != totalCells {
		return health, kills, fmt.Errorf("landed %d/%d of %d cells",
			health.CellsLanded, health.CellsTotal, totalCells)
	}
	if health.Tenants != sh.tenants {
		return health, kills, fmt.Errorf("admitted %d tenants, want %d (duplicate admission?)",
			health.Tenants, sh.tenants)
	}

	// Spend reconciliation to the nanodollar: each tenant consumed
	// exactly its computed price, nothing outstanding, books balanced.
	spend, err := cl.Spend()
	if err != nil {
		return health, kills, err
	}
	var total fleet.Nanos
	for i, ts := range spend.Tenants {
		exp := daemon.ExpectedSpend(specs[i], cost.Default())
		if fleet.Nanos(ts.Consumed) != exp {
			return health, kills, fmt.Errorf("tenant %s consumed %d nanos, want %d", ts.Name, ts.Consumed, exp)
		}
		if ts.Outstanding != 0 {
			return health, kills, fmt.Errorf("tenant %s has %d nanos outstanding after completion", ts.Name, ts.Outstanding)
		}
		if ts.Granted != ts.Consumed+ts.Refunded {
			return health, kills, fmt.Errorf("tenant %s books unbalanced: granted %d != consumed %d + refunded %d",
				ts.Name, ts.Granted, ts.Consumed, ts.Refunded)
		}
		total += fleet.Nanos(ts.Consumed)
	}
	if total != want || fleet.Nanos(spend.RootConsumed) != want {
		return health, kills, fmt.Errorf("root consumed %d nanos, want %d", spend.RootConsumed, want)
	}

	// Graceful drain: the daemon settles, compacts and exits clean. A
	// quiesced daemon exits as soon as it has sent the drain ack, so a
	// wire fault on that ack leaves the client's retries nothing to dial;
	// the daemon's exit, not the ack, is the evidence that it drained.
	drainErr := cl.Drain()
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return health, kills, fmt.Errorf("daemon exited dirty: %w", err)
		}
	case <-time.After(30 * time.Second):
		return health, kills, fmt.Errorf("daemon still running after drain (drain: %v)", drainErr)
	}
	return health, kills, nil
}

// waitProgress polls health until at least target cells landed,
// tolerating transient failures while a kill/restart is in flight.
func waitProgress(cl *client.Client, target int) (daemon.HealthResult, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		h, err := cl.Health()
		if err == nil && h.CellsLanded >= target {
			return h, nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return daemon.HealthResult{}, fmt.Errorf("health poll: %w", err)
			}
			return h, fmt.Errorf("stalled at %d/%d cells landed", h.CellsLanded, target)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
