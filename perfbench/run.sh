#!/usr/bin/env bash
# Builds roadpartd and the load generator from the checkout, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-sharded --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache and the run's scratch files stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/roadpartd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (cmd/roadpartd and go.mod not found)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go build -o "$build/roadpartd" ./cmd/roadpartd
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -daemon "$build/roadpartd" -workdir "$build/run" "$@"
