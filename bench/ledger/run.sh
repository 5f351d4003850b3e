#!/usr/bin/env bash
# Build the ledger from source in this checkout, then run it with the
# given arguments (see README.md). Run from the root of the checkout:
#   bash bench/ledger/run.sh --workload scan-1m --seed 1 --seconds 20 --trace 0
# The dune cache is off so that the build writes only under _build.
set -euo pipefail
cd "$(dirname "$0")/../.."
dune build --root . --cache=disabled ./bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
