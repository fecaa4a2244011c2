#!/usr/bin/env python3
"""Compare an abl_datapath_protocols JSON report against the baseline.

The bench is fully deterministic (virtual-time metrics and event counts),
so on an unchanged datapath every metric matches the committed baseline
exactly. A deviation beyond --tolerance (default 10%, relative, either
direction) on any metric fails the gate: an intended protocol change must
refresh BENCH_datapath_protocols.baseline.json; an unintended one is a
perf or schedule regression.

The comparison is tools/bench_compare.py's: zero-valued baselines (e.g.
reads_per_record of the ring protocol, rnr_events everywhere) are
invariants, and key-set drift fails in both directions, so a rename never
un-gates the metric it renamed.

Usage: tools/compare_datapath.py BASELINE CURRENT [--tolerance 0.10]
"""

import argparse
import sys

import bench_compare


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="max relative deviation per metric "
                             "(default 0.10)")
    args = parser.parse_args()

    failures, missing, unexpected = bench_compare.diff(
        bench_compare.load(args.baseline), bench_compare.load(args.current),
        args.tolerance, "BENCH_datapath_protocols.baseline.json")

    if missing:
        print(f"error: benchmarks missing from current report: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1
    if unexpected:
        print(f"error: benchmarks not in baseline (refresh it): "
              f"{', '.join(unexpected)}", file=sys.stderr)
        return 1
    if failures:
        print(f"error: {len(failures)} metric(s) deviated more than "
              f"{args.tolerance:.0%} from the committed baseline",
              file=sys.stderr)
        return 1
    print(f"datapath: all metrics within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
