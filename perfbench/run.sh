#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from, then
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload scaling-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache, span
# files and CPU profiles all stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

# The fingerprint's commit: the git revision when there is one, otherwise a
# hash of the simulator's sources.
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
else
	commit=src-$(cd "$root" && find go.mod internal cmd -type f -name '*.go' -o -name go.mod |
		LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)
fi

exec "$build/perfbench" -out "$build/out" -commit "$commit" "$@"
