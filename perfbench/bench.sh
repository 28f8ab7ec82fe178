#!/usr/bin/env bash
# End-to-end benchmark entry point. Run from the repository root:
#
#   bash perfbench/bench.sh --workload paper_tables --seed 1 --seconds 20 --trace 0
#   bash perfbench/bench.sh steady --workload service_mix --runs 5
#
# Builds cmd/tables, cmd/nbtisweep, cmd/nbtisimd and the harness from the
# tree into .bench_build/, then hands every argument to the harness. All
# build caches and scratch files stay under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/tables" ]; then
	echo "perfbench: run from the repository root (go.mod and cmd/ not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS=
export GOPROXY=off GOSUMDB=off
export GOWORK=off CGO_ENABLED=0
# Keep the go command's own config and telemetry files in the checkout too.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"

go build -o "$out/bin/" ./cmd/tables ./cmd/nbtisweep ./cmd/nbtisimd
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
