#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash bench/run.sh                          # every workload, untraced and traced
#   bash bench/run.sh -workload search -seed 3 -seconds 30 -trace 0
#
# Everything the build and the run write (Go build cache, binary,
# temporary artifact stores, spans) stays under .bench_build/ in the
# current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$out/rcabench" .)
exec "$out/rcabench" "$@"
