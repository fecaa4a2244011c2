#!/usr/bin/env bash
# Paper-figure gate: runs every fig*/tbl_*/abl_* bench binary that has an
# expected-output file under bench/expected/ and fails on any byte
# difference in its stdout. The binaries are deterministic in virtual
# time, so an unchanged simulation reproduces those files exactly. An
# intended change to a figure refreshes its file:
#   build/bench/<binary> > bench/expected/<binary>.txt
# tbl_client_scaling has no file: its host-time columns differ from run to
# run, and tools/bench_compare.py gates its JSON report instead.
#
# Each binary runs under tools/measure_e2e.py, which records its wall time
# and peak RSS as row "figures/<binary>" of the host-cost report (gated
# against BENCH_e2e.baseline.json by tools/bench_compare.py).
#
# Usage: tools/check_figures.sh [build_dir] [e2e_report]
#   defaults: build, BENCH_e2e.json (both under the repository root)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
E2E="${2:-$ROOT/BENCH_e2e.json}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

failed=()
for expected in "$ROOT"/bench/expected/*.txt; do
  name="$(basename "$expected" .txt)"
  python3 "$ROOT/tools/measure_e2e.py" "$E2E" "figures/$name" -- \
    "$BUILD_DIR/bench/$name" > "$OUT"
  if cmp -s "$expected" "$OUT"; then
    echo "figures: $name ok"
  else
    echo "figures: $name DIFFERS from bench/expected/$name.txt" >&2
    diff "$expected" "$OUT" >&2 || true
    failed+=("$name")
  fi
done

if (( ${#failed[@]} > 0 )); then
  echo "error: ${#failed[@]} figure output(s) changed: ${failed[*]}" >&2
  exit 1
fi
echo "figures: all outputs byte-identical to bench/expected/"
