#!/bin/sh
# Builds ilvbench in the checkout it is started from (with dune's shared
# cache off, so nothing outside the checkout is read or written) and runs
# it with the given arguments.  Start it from the root of the checkout:
#   sh ilvbench/run.sh --workload bug_hunt --seed 1 --seconds 20 --trace 0
exec dune exec --root . --cache=disabled --display=quiet --no-print-directory \
  -- ./ilvbench/ilvbench.exe "$@"
