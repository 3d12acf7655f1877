#!/usr/bin/env bash
# Builds cmd/cppcbench from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash cmd/cppcbench/run.sh --workload fig-suite --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the traced run's span files stay in
# $CARGO_TARGET_DIR (default .bench_build) under the current directory.
# The build needs the repository around cmd/cppcbench (go.mod replaces the
# cppc module with ../..), so it fails, and the script exits non-zero
# without running anything, when that is missing.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/gotmp"
out=$(cd "$out" && pwd)

# Everything the Go toolchain writes (build cache, temporary files, module
# cache, its config and telemetry counters) goes under $out too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CARGO_TARGET_DIR="$out"

(cd "$here" && go build -buildvcs=false -o "$out/cppcbench" .)
exec "$out/cppcbench" -repo "$(cd "$here/../.." && pwd)" "$@"
