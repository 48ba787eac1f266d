#!/usr/bin/env bash
# Builds the vxperf benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash vxperf/run.sh --workload fig2 --seed 1 --seconds 20 --trace 0
#
# Every build output, Go cache and temporary file stays under
# .bench_build/ in the checkout. The build fails (and nothing is run)
# when the engine sources beside vxperf/ are missing.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/vxperf"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/vxperf" && go build -o "$out/vxperf" .)
exec "$out/vxperf" -tmp "$out/tmp" "$@"
