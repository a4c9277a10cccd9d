#!/bin/sh
# Builds the benchmark and the vartune binary from the checkout it is run
# in, then runs one workload:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout.  See perfbench/README.md.
set -e
# No shared dune cache: the build reads and writes only inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/vartune.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
