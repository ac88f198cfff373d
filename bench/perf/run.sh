#!/bin/sh
# Build the benchmark harness and the depsurf CLI it drives, then run one
# workload from the repository root:
#
#   sh bench/perf/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Any other main.exe command line works too (run, compare; see
# bench/perf/README.md).
set -eu
# the build writes only under ./_build: no shared dune cache in $HOME
DUNE_CACHE=disabled dune build --root . ./bench/perf/main.exe ./bin/depsurf_cli.exe 1>&2
# A traced study pass records about 27k spans at bench scale, more than
# the default 16384-span ring of a domain holds; the serve children keep
# the default.
export DEPSURF_TRACE_CAP=65536
exec ./_build/default/bench/perf/main.exe "$@"
