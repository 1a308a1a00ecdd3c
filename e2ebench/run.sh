#!/usr/bin/env bash
# Builds mpqserve and the e2ebench harness from this checkout into
# .bench_build/, then runs the harness with the given arguments:
#
#   bash e2ebench/run.sh --workload pick-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the runs
# write stays under .bench_build/ (Go build cache and temp files
# included); nothing is downloaded.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$root/e2ebench" && go build -o "$out/" mpq/cmd/mpqserve .) >&2
exec "$out/e2ebench" -root "$root" -mpqserve "$out/mpqserve" "$@"
