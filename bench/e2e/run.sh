#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it, from the root of
# a checkout of the repository:
#
#   bash bench/e2e/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# Arguments go to tbaabench unchanged; see bench/e2e/README.md. The build
# output stays in the checkout's _build directory (no shared dune cache).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: run from the repository root (no dune-project or lib/ here)" >&2
  exit 2
fi

dune build --root . --cache=disabled --display=quiet ./bench/e2e/tbaabench.exe >&2
exec ./_build/default/bench/e2e/tbaabench.exe "$@"
