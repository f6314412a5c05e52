#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The Go build cache, the binary, temporary
# store directories and trace files all stay under .bench_build/, so the
# benchmark reads and writes nothing outside the checkout. Without the
# repository around it (perfbench/ alone) the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -dir "$build/perfbench-work" "$@"
