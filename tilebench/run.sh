#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it with the
# given arguments (see tilebench/README.md). Run from the repository root:
#   bash tilebench/run.sh --workload solve --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./tilebench/main.exe 1>&2
exec ./_build/default/tilebench/main.exe "$@"
