#!/usr/bin/env bash
# Builds the fairserve binary and the load generator from source, then runs
# the generator with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload audit-7300 --seed 1 --seconds 10 --trace 0
#
# Every build artefact, cache, input and data directory lives under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
# Without the program's sources there is nothing to measure: fail before
# any go command runs.
if [[ ! -f go.mod || ! -d cmd/fairserve || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (go.mod and cmd/fairserve not found in $root)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
# The go command starts a detached telemetry child that can outlive it
# unless telemetry is off in its config directory, which lives here.
echo off > "$out/config/go/telemetry/mode"
# The module has no external dependencies: nothing is ever downloaded.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
  GOPROXY=off GOFLAGS= GOTELEMETRY=off XDG_CONFIG_HOME="$out/config" CGO_ENABLED=0 \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
go build -o "$out/bin/fairserve" ./cmd/fairserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" "$@"
