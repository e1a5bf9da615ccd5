#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload subset --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, per-run scratch
# directories and the traced run's span file. The build resolves the
# pipeline packages through go.mod's `replace repro => ../`, so it fails
# (and nothing runs) when the checkout holds no pipeline sources.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build/perfbench"
mkdir -p "${out}"

export GOCACHE="${out}/go-cache"
export GOPATH="${out}/go-path"
export XDG_CONFIG_HOME="${out}/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)

cd "${root}"
exec "${out}/perfbench" "$@"
