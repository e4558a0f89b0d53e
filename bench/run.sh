#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the repository root: bash bench/run.sh [-workload NAME] [-seed N]
# [-seconds S] [-trace 0|1|DIR] [-json FILE] [-quick].
#
# Everything the build and the runs write stays under .bench_build/ in the
# repository: the Go build cache, temporary files, the go command's
# configuration and telemetry counters, the binary, and traces. The module
# proxy and toolchain downloads are off; the benchmark module needs
# nothing outside this repository and the Go standard library.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/switchflow-bench" .)
cd "$root"
exec "$out/switchflow-bench" "$@"
