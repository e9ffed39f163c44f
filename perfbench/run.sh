#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --workload all
#
# Every build artifact, cache and trace stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
	GOENV=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)

commit=none
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo none)
fi
exec "$out/perfbench" --root "$root" --out "$out" --commit "$commit" "$@"
