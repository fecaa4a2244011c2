#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green, in one command.
#
#   1. Release configure + build of everything (tests and benches).
#   2. Full ctest suite.
#   3b. Datapath-protocol gate: bench/abl_datapath_protocols (deterministic
#      virtual-time metrics) vs BENCH_datapath_protocols.baseline.json —
#      fails on a >10% deviation (tools/compare_datapath.py).
#   3b'. Client-scaling gate: bench/tbl_client_scaling (16 K -> 1 M logical
#      clients over multiplexed QPs, §14) vs
#      BENCH_client_scaling.baseline.json — fails on deviation, key-set
#      drift, or a memory-constancy violation
#      (tools/compare_client_scaling.py).
#   3b''. Failover gate: bench/tbl_failover (leader kill mid-traffic, §15;
#      deterministic virtual-time metrics) vs BENCH_failover.baseline.json —
#      fails on deviation, key-set drift, or an exactly-once violation
#      (tools/compare_failover.py).
#   3c. Live-monitor exercise: bench/tbl_slo_tenants runs with the invariant
#      monitor ticking in --strict mode (any watcher violation aborts the
#      bench and thus the gate), then tools/obs_report.py diffs its
#      --metrics_json dump (snapshotted at the end of the workload, before
#      teardown) against the committed BENCH_slo.baseline.json and fails on
#      a >10% deviation or key-set drift.
#   3d. Paper-figure gate: every fig*/tbl_*/abl_* binary with a committed
#      bench/expected/<binary>.txt must reproduce it byte for byte
#      (tools/check_figures.sh).
#   3e. Host-cost gate: every bench binary above, and every figure binary
#      of 3d, runs under tools/measure_e2e.py, which records its wall time
#      and peak RSS in BENCH_e2e.json; tools/bench_compare.py then fails on
#      peak-RSS growth above 25% against the committed
#      BENCH_e2e.baseline.json. Wall time is recorded, not gated (it
#      measures the host).
#   4. ASan/UBSan pass over the allocation-sensitive suites
#      (tools/check_asan.sh).
#   5. Optimized UBSan pass over the same plus the obs suite
#      (tools/check_ubsan.sh).
#   6. Benchmark self-test: kdbench builds src/ with its own CMake project
#      and names config fields by designated initializer, so a field
#      rename or deletion breaks it; python3 kdbench/selftest.py builds it
#      and checks its determinism on all four workloads.
#   7. Host-perf gate, last: bench/run_simcore.sh, compared against the
#      committed BENCH_simcore.baseline.json — fails on a >10% regression
#      (tools/compare_simcore.py). It measures the host as much as the
#      code, so it runs after every other gate has reported; the script
#      still exits non-zero when it fails.
#
# Usage: tools/run_tier1.sh [--fast]
#   --fast  skip everything after ctest (steps 3-7)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="$ROOT/build"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

cmake --preset release -S "$ROOT" >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$(nproc)"

if [[ "$FAST" == 0 ]]; then
  E2E="$ROOT/BENCH_e2e.json"
  rm -f "$E2E"
  measure() { python3 "$ROOT/tools/measure_e2e.py" "$E2E" "$1" -- \
                "$BUILD_DIR/bench/$1" "${@:2}"; }
  measure abl_datapath_protocols \
    --json="$ROOT/BENCH_datapath_protocols.json" >/dev/null
  python3 "$ROOT/tools/compare_datapath.py" \
    "$ROOT/BENCH_datapath_protocols.baseline.json" \
    "$ROOT/BENCH_datapath_protocols.json" --tolerance 0.10
  measure tbl_client_scaling \
    --json="$ROOT/BENCH_client_scaling.json" >/dev/null
  python3 "$ROOT/tools/compare_client_scaling.py" \
    "$ROOT/BENCH_client_scaling.baseline.json" \
    "$ROOT/BENCH_client_scaling.json" --tolerance 0.10
  measure tbl_failover \
    --json="$ROOT/BENCH_failover.json" >/dev/null
  python3 "$ROOT/tools/compare_failover.py" \
    "$ROOT/BENCH_failover.baseline.json" \
    "$ROOT/BENCH_failover.json" --tolerance 0.10
  measure tbl_slo_tenants --strict --monitor_period=100000 \
    --metrics_json="$ROOT/BENCH_slo.json" >/dev/null
  python3 "$ROOT/tools/obs_report.py" "$ROOT/BENCH_slo.baseline.json" \
    "$ROOT/BENCH_slo.json" --tolerance 0.10
  "$ROOT/tools/check_figures.sh" "$BUILD_DIR" "$E2E"
  python3 "$ROOT/tools/bench_compare.py" "$ROOT/BENCH_e2e.baseline.json" \
    "$E2E" --spec peak_rss_mb=0.25
  "$ROOT/tools/check_asan.sh"
  "$ROOT/tools/check_ubsan.sh"
  python3 "$ROOT/kdbench/selftest.py"
  "$ROOT/bench/run_simcore.sh" "$BUILD_DIR"
  python3 "$ROOT/tools/compare_simcore.py" \
    "$ROOT/BENCH_simcore.baseline.json" "$ROOT/BENCH_simcore.json" \
    --max-regress 0.10
fi

echo "tier1: all checks passed"
