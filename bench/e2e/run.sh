#!/usr/bin/env bash
# The end-to-end vantage -> collector benchmark: configure and build it
# (Release, into build-e2e/ at the repository root), then run it.
#
#   bench/e2e/run.sh [--seed=N] [--workloads=a,b] [--seconds=S] [--trace]
#                    [--out=FILE] [--trace-out=FILE] [--smoke]
#
# Arguments go to the hhh_e2e binary (bench/e2e/main.cpp); a flag's value
# may also be the next argument, as in
#   bench/e2e/run.sh --workload fleet_v4_exact --seed 3 --seconds 10 --trace 0
# Build output goes to stderr. Stdout carries `workload metric value unit`
# lines and, last, one JSON result line. The exit status is non-zero when
# the build fails or any epoch fails.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
cd "$root"
build=build-e2e

cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target hhh_e2e -j "$(nproc)" >&2

sha=unknown
if [ "$(git rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
  sha=$(git rev-parse --short=12 HEAD)
  git diff --quiet HEAD -- || sha="$sha-dirty"
fi

# The work directory is relative so Unix socket paths stay short.
exec "$build/hhh_e2e" --workdir="$build/work" --git-sha="$sha" "$@"
