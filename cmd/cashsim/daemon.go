package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"cash"
)

// daemonCommands lists the cashd client commands.
const daemonCommands = "daemon-submit daemon-alloc daemon-spend daemon-health daemon-watch daemon-drain"

// parseDaemon parses one cashd client command. -socket is common to all
// of them; the rest are the command's own.
func parseDaemon(name string, args []string, stderr io.Writer) (*command, error) {
	fs := newFlagSet("cashsim "+name, "cashsim "+name+" [flags]", stderr)
	socket := fs.String("socket", "", "cashd unix socket (default $CASHD_SOCKET or the user cache directory)")
	var (
		call  func(cl *cash.DaemonClient, w io.Writer) error
		check func() error
	)
	switch name {
	case "daemon-submit":
		tenant := fs.String("tenant", "", "tenant name (required)")
		cells := fs.Int("cells", 4, "cells in the tenant grid")
		seed := fs.Uint64("tenant-seed", 0, "tenant workload seed")
		idem := fs.String("idem", "", "idempotency key (default derived from -tenant)")
		check = func() error {
			if *tenant == "" {
				return errors.New("daemon-submit needs -tenant")
			}
			return nil
		}
		call = func(cl *cash.DaemonClient, w io.Writer) error {
			// A stable default key makes plain re-invocations idempotent;
			// pass -idem for distinct submissions of the same tenant name.
			key := cmp.Or(*idem, "cashsim-"+*tenant)
			return printJSON(w)(cl.Submit(key, cash.DaemonTenantSpec{Name: *tenant, Cells: *cells, Seed: *seed}))
		}
	case "daemon-alloc":
		call = func(cl *cash.DaemonClient, w io.Writer) error { return printJSON(w)(cl.Alloc()) }
	case "daemon-spend":
		call = func(cl *cash.DaemonClient, w io.Writer) error { return printJSON(w)(cl.Spend()) }
	case "daemon-health":
		call = func(cl *cash.DaemonClient, w io.Writer) error { return printJSON(w)(cl.Health()) }
	case "daemon-watch":
		timeout := fs.Duration("drain-timeout", 10*time.Second, "wait budget (must be positive)")
		check = func() error {
			if *timeout <= 0 {
				return fmt.Errorf("-drain-timeout %v must be positive: daemon-watch waits on it", *timeout)
			}
			return nil
		}
		call = func(cl *cash.DaemonClient, w io.Writer) error { return watch(cl, w, *timeout) }
	case "daemon-drain":
		call = func(cl *cash.DaemonClient, w io.Writer) error {
			if err := cl.Drain(); err != nil {
				return err
			}
			_, err := fmt.Fprintln(w, "draining")
			return err
		}
	default:
		return nil, usageError(newFlagSet("cashsim", "", stderr),
			fmt.Errorf("unknown daemon command %q (want one of %s)", name, daemonCommands))
	}
	if err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if *socket == "" {
		*socket = cash.DefaultDaemonSocketPath()
	} else if dir := filepath.Dir(*socket); dir != "." {
		if _, err := os.Stat(dir); err != nil {
			return nil, usageError(fs, fmt.Errorf("-socket %s: parent directory %s does not exist (is cashd running, and where?)", *socket, dir))
		}
	}
	if check != nil {
		if err := check(); err != nil {
			return nil, usageError(fs, err)
		}
	}
	return &command{mode: name, run: func(w io.Writer) error {
		cl, err := cash.DialDaemon(cash.DaemonClientOptions{Socket: *socket})
		if err != nil {
			return err
		}
		defer cl.Close()
		return call(cl, w)
	}}, nil
}

// printJSON renders a daemon reply as indented JSON.
func printJSON(w io.Writer) func(any, error) error {
	return func(v any, err error) error {
		if err != nil {
			return err
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

// watch streams the daemon's epochs until the final one.
func watch(cl *cash.DaemonClient, w io.Writer, timeout time.Duration) error {
	return cl.Watch(timeout, func(ev cash.DaemonEpoch) bool {
		fmt.Fprintf(w, "tick %d: placed %d completed %d landed %d/%d consumed %d nanos",
			ev.Tick, ev.Placed, ev.Completed, ev.CellsLanded, ev.CellsTotal, ev.ConsumedNanos)
		if ev.Draining {
			fmt.Fprint(w, " draining")
		}
		if ev.Final {
			fmt.Fprint(w, " final")
		}
		fmt.Fprintln(w)
		return !ev.Final
	})
}
