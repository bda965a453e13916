#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Every build and run artefact stays under
# .bench_build/ in that root.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod || ! -d internal ]]; then
	echo "perfbench: run from the root of a full CASH checkout" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
# Keep the Go toolchain's caches, configuration and telemetry files
# inside the checkout, and never let it reach for the network.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
