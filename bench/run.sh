#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout, then runs it with the given arguments. Run from the root:
#
#   bash bench/run.sh --workload tenants --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh -seed 1 -out bench/out -trace 1     # every workload
#   bash bench/run.sh -compare base/results.json new/results.json
#
# Everything go writes stays inside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" "$@"
