"""Shared machinery for the deterministic-bench JSON gates.

tools/compare_client_scaling.py and tools/compare_failover.py both gate a
virtual-time-deterministic bench report against a committed baseline with
the same semantics (established by tools/compare_datapath.py):

  - numeric metrics must match within a relative tolerance, either
    direction;
  - a zero-valued baseline metric is an invariant — any nonzero current
    value fails regardless of tolerance;
  - key-set drift fails in BOTH directions: a benchmark or metric present
    in only one report (renamed, dropped, or added without refreshing the
    baseline) is an error, never silently skipped;
  - host-speed-dependent metrics (keys starting with "host_") are excluded
    from gating.

This module holds that machinery once; the per-bench scripts add their own
invariant checks (memory constancy, exactly-once delivery) on top.

Run as a script it gates a host-cost report (BENCH_e2e.json, written by
tools/measure_e2e.py) with a spec instead of a tolerance: each --spec
METRIC=MAX_GROWTH names one gated metric and fails only when the current
value exceeds the baseline by more than MAX_GROWTH (relative). Metrics the
spec does not name are not compared; host_* keys (wall time) are recorded
but never gated.

Usage: tools/bench_compare.py BASELINE CURRENT --spec peak_rss_mb=0.25
"""

import argparse
import json
import os
import sys


def load(path):
    """Returns {bench_name: {metric: value}} with host_* keys stripped."""
    with open(path) as f:
        report = json.load(f)
    rows = {}
    for entry in report.get("benchmarks", []):
        name = entry["name"]
        rows[name] = {k: v for k, v in entry.items()
                      if k != "name" and isinstance(v, (int, float))
                      and not isinstance(v, bool)
                      and not k.startswith("host_")}
    return rows


def diff(base, cur, tolerance, baseline_name, spec=None):
    """Per-metric comparison; returns (failures, missing, unexpected).

    Prints one line per compared metric. `missing`/`unexpected` are
    benchmark names present in only one report; metric-level drift within
    a shared benchmark lands in `failures`. A `spec` ({metric: max_growth})
    replaces `tolerance`: only the named metrics are compared, and each
    fails only on growth beyond its own bound.
    """
    if spec is not None:
        base = {n: {k: v for k, v in m.items() if k in spec}
                for n, m in base.items()}
        cur = {n: {k: v for k, v in m.items() if k in spec}
               for n, m in cur.items()}
    failures = []
    missing = sorted(set(base) - set(cur))
    unexpected = sorted(set(cur) - set(base))
    for name in sorted(base):
        if name not in cur:
            continue
        for key in sorted(set(spec or ()) - set(base[name])):
            failures.append(f"{name}: spec metric '{key}' not in baseline")
        for key in sorted(set(cur[name]) - set(base[name])):
            failures.append(
                f"{name}: metric '{key}' not in baseline (refresh "
                f"{baseline_name})")
        for key, bval in sorted(base[name].items()):
            if key not in cur[name]:
                failures.append(f"{name}: metric '{key}' missing")
                continue
            cval = cur[name][key]
            if bval == 0:
                ok = cval == 0
                delta = "" if ok else f" (now {cval})"
            else:
                rel = cval / bval - 1.0
                ok = abs(rel) <= tolerance if spec is None else \
                    rel <= spec[key]
                delta = f" ({rel:+.1%})"
            status = "ok" if ok else "DEVIATED"
            print(f"{name:32} {key:22} {bval:14.3f} -> {cval:14.3f}"
                  f"{delta:12} {status}")
            if not ok:
                failures.append(f"{name}/{key}: {bval} -> {cval}")
    return failures, missing, unexpected


def spec_item(text):
    """"peak_rss_mb=0.25" -> ("peak_rss_mb", 0.25); argparse type."""
    metric, _, bound = text.partition("=")
    try:
        return metric, float(bound)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad spec '{text}' (want METRIC=MAX_GROWTH)") from None


def main():
    parser = argparse.ArgumentParser(
        description="Gate a bench report against its baseline by spec.")
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--spec", action="append", required=True,
                        type=spec_item, metavar="METRIC=MAX_GROWTH",
                        help="gate METRIC on relative growth above "
                             "MAX_GROWTH (repeatable)")
    args = parser.parse_args()
    spec = dict(args.spec)

    failures, missing, unexpected = diff(
        load(args.baseline), load(args.current), None,
        os.path.basename(args.baseline), spec)
    for name in missing:
        failures.append(f"benchmark missing from current report: {name}")
    for name in unexpected:
        failures.append(f"benchmark not in baseline (refresh it): {name}")
    if failures:
        for f in failures:
            print(f"error: {f}", file=sys.stderr)
        return 1
    bounds = ", ".join(f"{k} +{v:.0%}" for k, v in sorted(spec.items()))
    print(f"{os.path.basename(args.current)}: within spec ({bounds})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
