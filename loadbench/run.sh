#!/usr/bin/env bash
# Builds comic-serve and the load benchmark from this checkout and runs the
# benchmark from the checkout's root with the arguments given, e.g.
#
#   bash loadbench/run.sh --workload cold-solve --seed 3 --seconds 20 --trace 0
#
# The Go build cache, binaries and trace files all stay under .bench_build/
# in the checkout, so the first run compiles everything and later runs only
# relink what changed.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
mkdir -p "$GOCACHE" "$GOTMPDIR" "$out/bin"

cd "$root/loadbench"
go build -buildvcs=false -o "$out/bin/loadbench" .
go build -buildvcs=false -o "$out/bin/comic-serve" comic/cmd/comic-serve
cd "$root"
exec "$out/bin/loadbench" -serve "$out/bin/comic-serve" -trace-dir "$out/traces" "$@"
