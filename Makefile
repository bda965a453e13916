# Development targets. `make check` is the gate to run before sending a
# change: vet (of this module and of the perfbench benchmark program,
# its own module, so an API change that breaks the benchmark fails
# here) + the full test suite under the race detector. `make lint` and
# `make fuzz-smoke` run alongside it in CI. `make report-golden`
# re-records the committed report golden (TestReportGolden) after a
# change that is meant to move report bytes, so the diff shows in the
# change itself.

GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet race check bench lint fuzz-smoke chaos daemon-smoke calib report-golden linedelta

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

race:
	$(GO) test -race ./...

check: vet race

# report-golden re-renders every artifact at scale 0.002 into
# internal/figs/testdata/report-0.002.txt, the bytes TestReportGolden
# compares against.
report-golden:
	$(GO) test ./internal/figs -run '^TestReportGolden$$' -count=1 -update

# linedelta prints the non-test Go lines inserted and deleted outside
# perfbench/ between BASE and the working tree (tracked files; `git add`
# new ones first): the net line delta a change description states.
BASE ?= HEAD

linedelta:
	@git diff --numstat $(BASE) -- '*.go' ':(exclude)*_test.go' ':(exclude)perfbench/' \
		| awk '{ins += $$1; del += $$2} END {printf "non-test Go outside perfbench/: +%d -%d, net %+d\n", ins, del, ins - del}'

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
	$(GO) test -run='^$$' -fuzz=FuzzTraceReplay -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzArrivalStream -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzReqQueue -fuzztime=$(FUZZTIME) ./internal/experiment/
	$(GO) test -run='^$$' -fuzz=FuzzJournalReopen -fuzztime=$(FUZZTIME) ./internal/supervise/
	$(GO) test -run='^$$' -fuzz=FuzzEntryCodec -fuzztime=$(FUZZTIME) ./internal/supervise/
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=$(FUZZTIME) ./internal/daemon/
	$(GO) test -run='^$$' -fuzz=FuzzRebuild -fuzztime=$(FUZZTIME) ./internal/daemon/
	$(GO) test -run='^$$' -fuzz=FuzzSpendFrame -fuzztime=$(FUZZTIME) ./internal/daemon/
	$(GO) test -run='^$$' -fuzz=FuzzSpendDecode -fuzztime=$(FUZZTIME) ./internal/daemon/client/
	$(GO) test -run='^$$' -fuzz=FuzzLoadCache -fuzztime=$(FUZZTIME) ./internal/oracle/

# chaos runs the chaos soak: every guard, fleet and daemon scenario
# over the soak's default seed count. CHAOS_FLAGS passes `cashsim chaos`
# flags through (CI uses '-seeds 8 -dir chaos-evidence' to shrink the
# seed count and keep every journal; locally e.g. CHAOS_FLAGS='-seeds 50'
# for a longer hunt, or '-dir /tmp/soak' to keep the journals).
CHAOS_FLAGS ?=

chaos: build
	$(GO) run ./cmd/cashsim chaos $(CHAOS_FLAGS)

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
		$(GO) run ./cmd/cashsim calib -record $(CALIB_GOLDEN); \
	fi
	$(GO) run ./cmd/cashsim calib -gate $(CALIB_GOLDEN) -out calib-report.txt

# bench runs the throughput-critical benchmarks (the root package's,
# then cashd's read answers in internal/daemon) and refreshes
# BENCH.json (headline: best Minstr/s from
# BenchmarkAblation_SimThroughput across BENCH_COUNT repetitions).
# BENCH_BASELINE is the seed commit's Minstr/s measured on the same
# machine and feeds the speedup_vs_seed field; override it after
# re-measuring the seed on a different host. Oracle-backed benchmarks
# reuse the on-disk characterisation cache — an existing
# CASH_ORACLE_CACHE is respected, otherwise a scratch default keeps
# repeated runs cheap. CASH_BENCH_SCALE shrinks the workloads (CI's
# bench-smoke job uses that). BENCH_COMPARE names a reference
# BENCH.json whose allocs/op and B/op the allocation-gated benchmarks
# must match exactly (benchjson -compare; it is read before BENCH.json
# is rewritten, so CI's bench-smoke job gates on the committed file).
BENCH_COUNT ?= 3
BENCH_BASELINE ?= 5.22
BENCH_COMPARE ?=

bench:
	CASH_ORACLE_CACHE=$${CASH_ORACLE_CACHE:-/tmp/cash-bench-oracle.gob} \
		$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) . ./internal/daemon \
		| $(GO) run ./cmd/benchjson -o BENCH.json -baseline $(BENCH_BASELINE) \
			$(if $(BENCH_COMPARE),-compare $(BENCH_COMPARE))
