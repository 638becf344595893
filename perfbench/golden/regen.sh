#!/usr/bin/env bash
# Regenerate the golden flow reports the benchmark checks every output
# against.  Each of the 20 builtin specs (5 apps x informed/uninformed x
# quick/eval) is run once through the reference tree-walking interpreter
# with the cache off on one domain, so the goldens share no code path
# with the VM backend, the cache or the scheduler that the benchmark
# measures.  Run from the repository root:
#
#   bash perfbench/golden/regen.sh
#
# Takes a few minutes: the walker needs 7-11 s per evaluation-size flow
# on a 2-vCPU virtual machine.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . ./bin/psaflow.exe
psaflow=./_build/default/bin/psaflow.exe
out=perfbench/golden
for app in nbody kmeans adpredictor rush_larsen bezier; do
  for mode in uninformed informed; do
    for workload in eval quick; do
      flag=()
      [ "$workload" = quick ] && flag=(--quick)
      file="$out/$app.$mode.$workload.txt"
      "$psaflow" run "$app" "${flag[@]}" --mode "$mode" --interp ast \
        --cache off --jobs 1 --ledger off > "$file.tmp"
      mv "$file.tmp" "$file"
      echo "wrote $file"
    done
  done
done
