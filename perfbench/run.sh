#!/usr/bin/env bash
# Build the program and the benchmark from source, then run the benchmark.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload flow-cold --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the JSON result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/psaflowd.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
