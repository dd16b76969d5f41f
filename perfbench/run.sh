#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root.
#
#   bash perfbench/run.sh --workload batch-proc --seed 1 --seconds 40 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# The Go build cache, the binary, scratch inputs, result records and span
# files all live under .bench_build/ at the checkout root, so nothing is
# read or written outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS=-mod=mod \
	GOTOOLCHAIN=local GOPROXY=off
# The build stamps the git revision into the binary for provenance; where
# git cannot report on the checkout, build without the stamp.
(cd "$root/perfbench" && { go build -o "$out/perfbench" . 2>/dev/null ||
	go build -buildvcs=false -o "$out/perfbench" .; })
cd "$root"
exec "$out/perfbench" "$@"
