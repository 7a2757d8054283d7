#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run it from the
# root of a checkout of the repository:
#
#   bash benchmark/run.sh --workload paper-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, temporary stores and
# caches, and the span files of traced runs. The Go toolchain is kept
# offline (GOPROXY=off, GOTOOLCHAIN=local); the harness has no
# dependency outside the repository's own module.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/benchmark/go.mod" ]]; then
	echo "benchmark: run from the root of a repository checkout (go.mod and benchmark/go.mod must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home" "$build/bin"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
unset BRANCHPROF_VM_BACKEND

(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
