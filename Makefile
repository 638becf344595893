.PHONY: all check test bench bench-quick bench-compare bench-warm-cold bench-jobs golden-check trace-check fault-check report-check serve-check doc clean

all:
	dune build @all

# tier-1 verification: everything compiles and the full test suite passes
check:
	dune build && dune runtest

test: check

# full evaluation-workload benchmark run
bench:
	dune exec bench/main.exe

# fast perf smoke run; leaves a machine-readable trajectory in bench.json
bench-quick:
	dune exec bench/main.exe -- --quick --json bench.json

# regression gate: re-run the quick bench and diff against the committed
# seed baseline (fails on >20% regression in any section or in
# interpreter throughput, if the vm backend drops below 20x the seed
# walker or the walker of the same run, or on a per-app vm coverage floor)
bench-compare: bench-quick
	dune exec bench/compare.exe -- bench.json BENCH_seed.json

# cache-effectiveness gate: a cold quick bench populates a fresh cache,
# then a warm rerun must cut the combined runs+ablation time >= 2x and
# actually serve entries from the disk tier.  Only the gated sections
# run: interpreter throughput and the micro section (bound by Bechamel's
# time quota) are cache-independent.
bench-warm-cold:
	rm -rf .psa-cache bench-cold.json bench-warm.json
	dune exec bench/main.exe -- runs ablation --quick --json bench-cold.json
	dune exec bench/main.exe -- runs ablation --quick --json bench-warm.json
	dune exec bench/compare.exe -- --warm-cold bench-cold.json bench-warm.json

# scheduler-effectiveness gate: the same quick bench at --jobs 1 and
# --jobs 4 (cache off, so both runs do the full work) must show the
# combined runs+ablation time dropping >= 1.8x, with the parallel run
# actually scheduling futures.  Skipped automatically (exit 0) on hosts
# with fewer than 4 cores, where the speedup is physically unavailable.
bench-jobs:
	rm -f bench-jobs1.json bench-jobs4.json
	dune exec bench/main.exe -- runs ablation --quick --jobs 1 --cache off --json bench-jobs1.json
	dune exec bench/main.exe -- runs ablation --quick --jobs 4 --cache off --json bench-jobs4.json
	dune exec bench/compare.exe -- --jobs-speedup bench-jobs1.json bench-jobs4.json

# golden gate: each of the 20 builtin specs (5 apps x uninformed/informed
# x eval/quick) run on the default backend, cache and ledger off, must
# print byte for byte the report the reference tree-walker produced
# (perfbench/golden, written by perfbench/golden/regen.sh).  The only gate
# that compares evaluation-size flows with the walker.  JOBS, when set, is
# passed to --jobs (planned nests split into parallel chunks only at
# --jobs > 1).
JOBS ?=
golden-check:
	dune build bin/psaflow.exe
	@fail=0; for app in nbody kmeans adpredictor rush_larsen bezier; do \
	  for mode in uninformed informed; do \
	    for workload in eval quick; do \
	      flag=; [ "$$workload" = quick ] && flag=--quick; \
	      golden=perfbench/golden/$$app.$$mode.$$workload.txt; \
	      if dune exec --no-build bin/psaflow.exe -- run $$app $$flag --mode $$mode \
	           --cache off --ledger off $(if $(JOBS),--jobs $(JOBS)) | cmp -s - $$golden; then \
	        echo "golden-check: $$app $$mode $$workload ok$(if $(JOBS), (--jobs $(JOBS)))"; \
	      else \
	        echo "golden-check: $$app $$mode $$workload differs from $$golden"; fail=1; \
	      fi; \
	    done; \
	  done; \
	done; \
	exit $$fail

# trace gate: record a span trace of an nbody flow run and validate it
# (balanced per-domain tracks, all flow-level span kinds, >= 2 domains)
trace-check:
	dune exec bin/psaflow.exe -- run nbody --quick --jobs 4 --cache off --trace trace.json
	dune exec bench/tracecheck.exe -- trace.json \
	  --require-kinds task,branch,dse-point,interp-run,cache-lookup \
	  --require-tids 2

# resilience gate: inject a fault into the FPGA codegen task and check
# that the run degrades gracefully -- the surviving branches still emit
# designs, the process exits with the "partial" code (3), and the span
# trace of the degraded run is still well-formed
fault-check:
	dune build bin/psaflow.exe bench/tracecheck.exe
	@rc=0; dune exec --no-build bin/psaflow.exe -- run nbody --quick --jobs 4 --cache off \
	  --faults "task:FPGA/Generate oneAPI Design" --trace fault-trace.json \
	  --journal fault-journal.jsonl || rc=$$?; \
	if [ "$$rc" -ne 3 ]; then echo "fault-check: expected partial exit code 3, got $$rc"; exit 1; fi; \
	echo "fault-check: partial exit code 3 as expected"
	dune exec --no-build bench/tracecheck.exe -- fault-trace.json \
	  --require-kinds task,branch,dse-point,interp-run,cache-lookup \
	  --require-tids 2
	dune exec --no-build bench/tracecheck.exe -- --journal fault-journal.jsonl \
	  --require-kinds span,retry,failure,fault

# ledger gate: two identical quick runs (one per job count) recorded
# into fresh ledgers must yield a readable report, a stats table, and a
# "verdict: ok" diff (exit 0) -- i.e. the stable record fields are
# jobs-invariant and no phantom regressions appear between identical
# runs.  Exercises the record/report/diff path end to end, plus the
# flight-recorder journal via --journal.
report-check:
	dune build bin/psaflow.exe bench/tracecheck.exe
	rm -rf .psa-runs-a .psa-runs-b report-journal.jsonl
	dune exec --no-build bin/psaflow.exe -- run nbody --quick --jobs 4 --cache off \
	  --ledger .psa-runs-a --journal report-journal.jsonl
	dune exec --no-build bin/psaflow.exe -- run nbody --quick --jobs 1 --cache off \
	  --ledger .psa-runs-b
	dune exec --no-build bin/psaflow.exe -- report .psa-runs-a
	dune exec --no-build bin/psaflow.exe -- stats .psa-runs-a
	dune exec --no-build bin/psaflow.exe -- diff .psa-runs-a .psa-runs-b
	dune exec --no-build bench/tracecheck.exe -- --journal report-journal.jsonl \
	  --require-kinds span

# daemon gate: start a real psaflowd, drive it over its Unix socket and
# check the service invariants end to end -- served report bytes equal
# `psaflow run` stdout for the same spec, repeat requests are cache
# splices (zero new cache misses), an overload burst sheds with 503
# without disturbing in-flight runs, finished requests leave ledger
# records and journals, SIGTERM drains cleanly, and a restart still
# serves the persisted history.  Every request's journal must then
# validate as flight-recorder JSONL with span records.  Artifacts land
# in ./serve-smoke/.
serve-check:
	dune build bin/psaflowd.exe bin/psaflow.exe bench/servesmoke.exe bench/tracecheck.exe
	dune exec --no-build bench/servesmoke.exe -- \
	  _build/default/bin/psaflowd.exe _build/default/bin/psaflow.exe
	@for j in serve-smoke/.psa-reqs/*.journal.jsonl; do \
	  dune exec --no-build bench/tracecheck.exe -- --journal $$j --require-kinds span \
	    || exit 1; \
	done

# API documentation (odoc): fails on any odoc warning in lib/flow,
# lib/obs, lib/ir or lib/serve, whose public interfaces are the
# documented API surface.  Skips gracefully when odoc is not installed
# (opam install odoc).
doc:
	@command -v odoc >/dev/null 2>&1 || { \
	  echo "doc: odoc not installed (opam install odoc); skipping"; exit 0; }; \
	dune build @doc 2> doc-warnings.log; st=$$?; \
	cat doc-warnings.log; \
	if [ $$st -ne 0 ]; then exit $$st; fi; \
	if grep -E 'lib/(flow|obs|ir|serve)/' doc-warnings.log >/dev/null 2>&1; then \
	  echo "doc: odoc warnings in lib/flow, lib/obs, lib/ir or lib/serve (see above)"; exit 1; fi; \
	echo "doc: API docs in _build/default/_doc/_html"

clean:
	dune clean
