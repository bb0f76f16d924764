#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload api-small --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's config and traced
# runs' spans go under $CARGO_TARGET_DIR (default .bench_build), inside the
# checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
