#!/usr/bin/env bash
# Builds the benchmark and the s3crmd daemon from the checkout's sources and
# runs one workload. Run it from the checkout root:
#
#   bash bench/run.sh --workload forward-solve --seed 1 --seconds 28 --trace 0
#
# Everything it builds or writes stays in .bench_build/, the Go build cache
# included. It never fetches anything: the module has no dependencies
# outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off
(cd bench && go build -o "$out/s3crm-bench" . && go build -o "$out/s3crmd" s3crm/cmd/s3crmd)
exec "$out/s3crm-bench" --out "$out" --daemon "$out/s3crmd" "$@"
