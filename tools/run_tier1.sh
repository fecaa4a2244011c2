#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green, in one command.
#
#   1. Release configure + build of everything (tests and benches).
#   2. Full ctest suite.
#   3. Deterministic gates. Each bench runs and tools/bench_compare.py
#      gates its report against the committed BENCH_<bench>.baseline.json:
#      every virtual-time key must equal its baseline, a row or key present
#      in only one report fails, and host_* keys are recorded, not gated.
#      - datapath_protocols: bench/abl_datapath_protocols (§12: ring
#        consume and receiver-paced credits against the paper's schemes,
#        plus WriteWithImm vs Write+Send);
#      - client_scaling: bench/tbl_client_scaling (16 K -> 1 M logical
#        clients over multiplexed QPs, §14), plus the memory-constancy
#        invariants on the current report;
#      - failover: bench/tbl_failover (leader kill mid-traffic, §15), plus
#        the exactly-once invariants on the current report;
#      - slo: bench/tbl_slo_tenants runs with the invariant monitor ticking
#        in --strict mode (any watcher violation aborts the bench and thus
#        the gate), and its --metrics_json dump (snapshotted at the end of
#        the workload, before teardown) is gated field by field.
#   4. Paper-figure gate: every fig*/tbl_*/abl_* binary with a committed
#      bench/expected/<binary>.txt must reproduce it byte for byte
#      (tools/check_figures.sh).
#   5. Host-cost gate: every bench binary above, and every figure binary
#      of step 4, runs under tools/measure_e2e.py, which records its wall
#      time and peak RSS in BENCH_e2e.json; tools/bench_compare.py then
#      fails on peak-RSS growth above 25% against the committed
#      BENCH_e2e.baseline.json. Wall time is recorded, not gated (it
#      measures the host).
#   6. ASan/UBSan pass over the allocation-sensitive suites
#      (tools/check_asan.sh).
#   7. Optimized UBSan pass over the same plus the obs suite
#      (tools/check_ubsan.sh).
#   8. Benchmark self-test: kdbench builds src/ with its own CMake project
#      and names config fields by designated initializer, so a field
#      rename or deletion breaks it; python3 kdbench/selftest.py builds it
#      and checks its determinism on all four workloads.
#   9. Host-perf gate, last: bench/run_simcore.sh, gated by
#      tools/bench_compare.py against the committed
#      BENCH_simcore.baseline.json — fails when a benchmark's real_time
#      grows by more than 10%. It measures the host as much as the code,
#      so it runs after every other gate has reported; the script still
#      exits non-zero when it fails.
#
# Usage: tools/run_tier1.sh [--fast]
#   --fast  skip everything after ctest (steps 3-9)
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
  gate() { python3 "$ROOT/tools/bench_compare.py" \
             "$ROOT/BENCH_$1.baseline.json" "$ROOT/BENCH_$1.json"; }
  measure abl_datapath_protocols \
    --json="$ROOT/BENCH_datapath_protocols.json" >/dev/null
  gate datapath_protocols
  measure tbl_client_scaling \
    --json="$ROOT/BENCH_client_scaling.json" >/dev/null
  gate client_scaling
  measure tbl_failover --json="$ROOT/BENCH_failover.json" >/dev/null
  gate failover
  measure tbl_slo_tenants --strict --monitor_period=100000 \
    --metrics_json="$ROOT/BENCH_slo.json" >/dev/null
  gate slo
  "$ROOT/tools/check_figures.sh" "$BUILD_DIR" "$E2E"
  gate e2e
  "$ROOT/tools/check_asan.sh"
  "$ROOT/tools/check_ubsan.sh"
  python3 "$ROOT/kdbench/selftest.py"
  "$ROOT/bench/run_simcore.sh" "$BUILD_DIR"
  gate simcore
fi

echo "tier1: all checks passed"
