#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash vaxbench/run.sh --workload os-mix --seed 1 --seconds 30 --trace 0
#
# Every file the build and the run write (binary, Go build cache, span
# dumps) goes under .bench_build/ in the repository root, and the Go
# toolchain is kept offline and away from the user's home directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/vaxbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
    echo "vaxbench: run from the root of a repository checkout" >&2
    exit 2
fi
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOFLAGS=

# The host fingerprint names the commit when the checkout is a git
# repository; VCS stamping stays off so a build never depends on git.
commit=unknown
if [ -d "$root/.git" ]; then
    commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/vaxbench" && go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$out/vaxbench" .)
exec "$out/vaxbench" "$@"
