#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload compute-large --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. The build cache, the binary and the
# traced runs' span files stay inside the checkout (.bench_build/,
# .bench_out/). The toolchain is pinned to the local one and module
# downloads are off: the benchmark needs nothing beyond the repository.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
(
	cd "${root}/perfbench"
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off \
		GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" \
		go build -o "${build}/perfbench" .
)
exec "${build}/perfbench" --out "${root}/.bench_out" "$@"
