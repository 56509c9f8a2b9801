#!/usr/bin/env bash
# The one committed benchmark command. Builds bench/ucadbench from source
# into .bench_build/ (inside the checkout, ignored by git) and runs it with
# the given arguments, e.g.
#
#   bash bench/run.sh --workload inproc-hot --seed 1 --seconds 28 --trace 0
#   bash bench/run.sh -all -runs 10 -out bench/out/set.json
#   bash bench/run.sh compare bench/baseline.json bench/out/set.json
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root="$PWD"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "bench/run.sh: $root is not a checkout of the repository (go.mod and internal/ missing)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
# Everything the toolchain writes stays inside the checkout: build cache,
# temp files, module cache (unused: the benchmark has no dependency outside
# this repository) and the toolchain's own config and telemetry dir.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$build/ucadbench" ./ucadbench)
exec "$build/ucadbench" "$@"
