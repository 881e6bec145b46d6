#!/usr/bin/env bash
# Builds the service and the benchmark from source, then runs the
# benchmark with the given arguments, e.g.
#   bash bench/perf/run.sh --workload check-sat --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to stderr, so the last
# stdout line is the benchmark's JSON result.
set -euo pipefail
dune build --root . bin/mca_serve.exe bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
