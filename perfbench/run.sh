#!/usr/bin/env bash
# Builds the benchmark and cmd/saserve from source, then runs one
# benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload service --seed 1 --seconds 20 --trace 0
#
# Every build output, the Go build cache and the run's stores stay in
# .bench_build/ under the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -d "$root/cmd/saserve" ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and cmd/saserve/ are missing here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

# stale BIN DIR...: BIN is missing or older than a Go source or module
# file, or a directory, under the DIRs. A directory's time changes when a
# file in it is added, removed or renamed, so deleting a source file also
# rebuilds. go build -o relinks and rewrites its output every time;
# skipping up-to-date binaries keeps ~20 MB of writes out of the set-up,
# where their writeback would slow the stores' fsyncs.
stale() {
	local bin=$1
	shift
	[[ ! -x "$bin" ]] || [[ -n $(find "$@" \( -type d -o -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit) ]]
}
if stale "$out/perfbench" perfbench internal go.mod; then
	go -C perfbench build -o "$out/perfbench" .
fi
if stale "$out/saserve" cmd/saserve internal go.mod; then
	go build -o "$out/saserve" ./cmd/saserve
fi
exec "$out/perfbench" -root "$root" -saserve "$out/saserve" "$@"
