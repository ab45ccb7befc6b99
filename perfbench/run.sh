#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to the binary. Run it from the repository root:
#
#   bash perfbench/run.sh --workload det-resident --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache included, stay in .bench_build under
# the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be there)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
