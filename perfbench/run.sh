#!/usr/bin/env bash
# Build the benchmark from source, then run it; every argument is passed
# through (see perfbench.ml for the options). Build output goes to stderr,
# so the last line of stdout is the benchmark's JSON result. Dune's shared
# cache is off so that nothing is read or written outside this checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
