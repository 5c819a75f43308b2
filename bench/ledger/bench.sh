#!/usr/bin/env bash
# Build the ledger from source, then run one workload of the benchmark:
#   bash bench/ledger/bench.sh --workload W --seed S --seconds N --trace 0|1
# Build output goes to stderr; the last line on stdout is the result
# object. Run from the root of a checkout of the repository.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench.sh: $(pwd) is not a checkout of the repository (no dune-project or lib/)" >&2
  exit 2
fi
# `ledger.exe run` takes a trace directory: --trace 1 writes under _ledger/trace
args=()
while [ $# -gt 0 ]; do
  case "$1/${2-}" in
    --trace/0) shift 2 ;;
    --trace/1) mkdir -p _ledger/trace; args+=(--trace _ledger/trace); shift 2 ;;
    --trace/*) echo "bench.sh: --trace expects 0 or 1, got '${2-}'" >&2; exit 2 ;;
    *) args+=("$1"); shift ;;
  esac
done
# keep every build product inside the checkout
DUNE_CACHE=disabled dune build --root . ./bench/ledger/ledger.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe run "${args[@]}"
