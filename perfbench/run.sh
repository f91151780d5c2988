#!/usr/bin/env bash
# Builds sspc, sspcd, datagen and the benchmark from the tree it sits in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload fit-title --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes goes to
# .bench_build/ under that root, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the build directory too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/sspc" ]; then
	echo "run.sh: no sspc sources under $root; run it from the repository root" >&2
	exit 2
fi

mkdir -p "$GOTMPDIR" "$out/bin"
# Any other go command would start a detached telemetry child that outlives
# this script; "go telemetry off" is the one that does not, and it turns the
# child off for every later go command that shares this config directory.
go telemetry off
go build -o "$out/bin/" ./cmd/sspc ./cmd/sspcd ./cmd/datagen
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin" "$@"
