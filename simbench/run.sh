#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs one workload:
#
#   bash simbench/run.sh --workload baldur_perm_k2 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache go
# to .bench_build/ under the root; nothing is written outside it.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/simbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOFLAGS=-mod=readonly \
	GOTOOLCHAIN=local GOPROXY=off

(cd "$root/simbench" && go build -o "$out/simbench" .) >&2
exec "$out/simbench" "$@"
