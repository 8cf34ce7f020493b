#!/usr/bin/env bash
# Builds the benchmark and cmd/sweepd from the sources of the checkout it
# is run in (run it from the checkout's root), then runs the benchmark
# with the given arguments:
#
#   bash perfbench/run.sh --workload replay-pr --seed 42 --seconds 40 --trace 0
#
# Go's build cache, temporary files and everything a run writes stay
# under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-buildvcs=false GOPROXY=off \
	GOTOOLCHAIN=local GOWORK=off
(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/sweepd" uvmsim/cmd/sweepd
)
exec "$out/bin/perfbench" -sweepd "$out/bin/sweepd" -workdir "$out" "$@"
