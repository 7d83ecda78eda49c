#!/usr/bin/env bash
# Builds `semsim` and the benchmark program from the checkout it is run in,
# then runs one benchmark pass. Run it from the repository root:
#
#   bash servebench/run.sh --workload point-hot --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache and the per-run scratch files
# stay under .bench_build/ in the checkout. The last line of standard
# output is the JSON result; servebench/README.md describes it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/semsim" ] || [ ! -f "$root/servebench/go.mod" ]; then
	echo "servebench: run from the root of a semsim checkout (cmd/semsim not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/semsim" ./cmd/semsim >&2
(cd "$root/servebench" && go build -o "$out/bin/servebench" .) >&2
exec "$out/bin/servebench" -semsim "$out/bin/semsim" -workdir "$out" "$@"
