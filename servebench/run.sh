#!/usr/bin/env bash
# Builds dbserve and the benchmark driver from this checkout, then runs one
# benchmark run. Run it from the repository root:
#
#   bash servebench/run.sh --workload read-mostly --seed 1 --seconds 30 --trace 0
#
# Every build output, Go cache, temporary file, server log and span dump
# goes under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dbserve" ] || [ ! -f "$root/servebench/go.mod" ]; then
	echo "run.sh: run from the repository root (needs go.mod, cmd/dbserve and servebench/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local

go build -o "$out/dbserve" ./cmd/dbserve
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -dbserve "$out/dbserve" -dir "$out" "$@"
