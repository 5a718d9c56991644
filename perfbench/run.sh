#!/usr/bin/env bash
# Build the benchmark from source and run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: dune-project or lib/ is missing; run from a full checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  for d in "$HOME"/.opam/*/bin; do
    if [ -x "$d/dune" ]; then PATH="$d:$PATH"; break; fi
  done
fi
export DUNE_CACHE=disabled
dune build --root . --profile release ./perfbench/bench.exe 1>&2
# With two CPUs or more, pin the benchmark to CPU 0; the UDP workload's
# load generator then runs on CPU 1 (see udpwl.ml).
if command -v taskset >/dev/null 2>&1 && [ "$(nproc 2>/dev/null || echo 1)" -ge 2 ]; then
  export PERFBENCH_PIN=1
  exec taskset -c 0 ./_build/default/perfbench/bench.exe "$@"
fi
exec ./_build/default/perfbench/bench.exe "$@"
