#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through, e.g.
#
#   bash perfbench/run.sh --workload queue-ingest --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. The build, its caches and the
# traced run's span files all stay under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off GOPROXY=off GOTELEMETRY=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
