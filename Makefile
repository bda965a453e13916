# Development targets. `make check` is the gate to run before sending a
# change: vet + the full test suite under the race detector. `make lint`
# and `make fuzz-smoke` run alongside it in CI.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet race check bench lint fuzz-smoke chaos daemon-smoke calib

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check: vet race

# lint prefers golangci-lint (.golangci.yml) but degrades to vet + a
# gofmt diff check where the binary is not installed, so the target is
# runnable in every environment.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run ./...; \
	else \
		echo "golangci-lint not found; falling back to go vet + gofmt"; \
		$(GO) vet ./...; \
		out=$$(gofmt -l .); if [ -n "$$out" ]; then \
			echo "gofmt needed on:"; echo "$$out"; exit 1; \
		fi; \
	fi

# fuzz-smoke gives each native fuzz target a short budget — a crash
# regression gate, not a bug hunt. Lengthen with FUZZTIME=5m.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzGenTrace -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzArrivalStream -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzReqQueue -fuzztime=$(FUZZTIME) ./internal/experiment/

# chaos runs the guardrail and fleet soaks the way CI does: every
# scenario, the default seed counts, guardrails armed. CHAOS_FLAGS
# passes extra cashsim flags through (CI shrinks the seed counts with
# it; locally e.g. CHAOS_FLAGS='-chaos-seeds 50 -fleet-seeds 10' for a
# longer hunt, or '-fleet-journal-dir /tmp/fleet' to keep the journals).
CHAOS_FLAGS ?=

chaos: build
	$(GO) run ./cmd/cashsim -chaos $(CHAOS_FLAGS)

# daemon-smoke exercises cashd's crash-safety end to end with real
# processes: start, submit, kill -9, restart on the same journal,
# assert exactly-once execution and reconciled spend, drain clean.
# DAEMON_SMOKE_DIR keeps the working directory (journal included) for
# post-mortem; default is a fresh mktemp dir.
DAEMON_SMOKE_DIR ?=

daemon-smoke:
	./scripts/daemon-smoke.sh $(DAEMON_SMOKE_DIR)

# calib runs the fast-tier calibration gate the way CI does: record the
# golden cycle-level characterisation of the calibration corpus, then
# replay the fast tier (interval) over all 64 configurations
# and assert every (app, config, phase) cell within the 2% IPC
# tolerance. The per-cell delta table lands in calib-report.txt on
# failure — that file is the artifact CI uploads. CALIB_GOLDEN persists
# the goldens so repeated local gates skip the cycle-level re-record
# (delete the file to force one). The same contract runs as
# TestCalibrationGate under `make check`; this target is the standalone
# entry point with the report artifact.
CALIB_GOLDEN ?= /tmp/cash-calib-golden.gob

calib: build
	@if [ ! -f $(CALIB_GOLDEN) ]; then \
		$(GO) run ./cmd/cashsim -calib-record $(CALIB_GOLDEN); \
	fi
	$(GO) run ./cmd/cashsim -calib $(CALIB_GOLDEN) -out calib-report.txt

# bench runs the throughput-critical benchmarks and refreshes
# BENCH.json (headline: best Minstr/s from
# BenchmarkAblation_SimThroughput across BENCH_COUNT repetitions).
# BENCH_BASELINE is the seed commit's Minstr/s measured on the same
# machine and feeds the speedup_vs_seed field; override it after
# re-measuring the seed on a different host. Oracle-backed benchmarks
# reuse the on-disk characterisation cache — an existing
# CASH_ORACLE_CACHE is respected, otherwise a scratch default keeps
# repeated runs cheap. CASH_BENCH_SCALE shrinks the workloads (CI's
# bench-smoke job uses that).
BENCH_COUNT ?= 3
BENCH_BASELINE ?= 5.22

bench:
	CASH_ORACLE_CACHE=$${CASH_ORACLE_CACHE:-/tmp/cash-bench-oracle.gob} \
		$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) . \
		| $(GO) run ./cmd/benchjson -o BENCH.json -baseline $(BENCH_BASELINE)
