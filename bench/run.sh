#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it from the
# repository root, passing every argument through:
#
#   bash bench/run.sh --workload ft_toom_clean --seed 1 --seconds 25 --trace 0
#
# The Go build cache lives in .bench_build/ too, so a run reads and writes
# nothing outside the checkout. Without the repository's own module next to
# bench/ the build fails and the script exits non-zero.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off CGO_ENABLED=0
(cd "$root/bench" && go build -o "$out/ftbench" .) >&2
exec "$out/ftbench" "$@"
