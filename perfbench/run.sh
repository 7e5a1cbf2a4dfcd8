#!/bin/sh
# Build the detector and the benchmark from source in the current
# checkout, then run one benchmark measurement:
#
#   sh perfbench/run.sh --workload oneshot --seed 1 --seconds 12 --trace 0
#
# Run from the root of the repository.  The build stays inside the
# checkout (dune's shared cache is disabled), so a failed build exits
# non-zero before anything is measured.
set -e
export DUNE_CACHE=disabled
dune build --root . ./perfbench/arde_bench.exe ./bin/arde_cli.exe 1>&2
exec ./_build/default/perfbench/arde_bench.exe "$@"
