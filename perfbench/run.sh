#!/usr/bin/env bash
# Builds the pipeline benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload small-programs --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, Go config) stays under
# .bench_build at the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -outdir "$out" "$@"
