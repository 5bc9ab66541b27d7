#!/usr/bin/env bash
# Builds the live benchmark from the checkout this script sits in and runs
# it from the checkout's root; every argument passes through, e.g.
#
#   bash livebench/run.sh --workload offload_io --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, GOPATH, the toolchain's config and telemetry, the binary and
# the generated inputs. Nothing is downloaded.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/livebench" .) >&2
cd "$root"
exec "$out/livebench" "$@"
