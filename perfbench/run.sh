#!/usr/bin/env bash
# Builds the decision benchmark from source and runs it; every argument
# is passed on (see perfbench.ml).  Run from the repository root:
#
#   bash perfbench/run.sh --workload oneshot-apps --seed 1 --seconds 20 --trace 0
#
# Build output goes to .bench_build and run output to .bench_run, both
# inside the checkout; the dune cache is off so nothing is written
# outside it.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build --profile release ./perfbench/perfbench.exe 1>&2
exec ./.bench_build/default/perfbench/perfbench.exe "$@"
