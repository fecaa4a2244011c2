#!/usr/bin/env python3
"""Gate a bench report against its committed baseline.

Usage: tools/bench_compare.py BASELINE CURRENT

BASELINE is a committed BENCH_<bench>.baseline.json, and <bench> selects
an entry of SPECS. Each entry names three things:

  - the loader that turns a report into {row: {key: value}};
  - the host keys, whose values measure the host as much as the code.
    Keys starting with "host_" are recorded and never compared. A key in
    `host_bounds` fails only when it grows by more than its relative
    bound; it may shrink freely;
  - an invariant, checked on CURRENT alone, so that refreshing the
    baseline cannot hide a violation.

Every other key must equal its baseline value. The benches run in
virtual time, which is bit-reproducible, so any difference is a schedule
change: an intended one refreshes the baseline and gives its cause in
CHANGES.md. A row or key present in only one report fails, in either
direction, so a rename never drops a metric out of the gate.

Exits 0 when the gate passes, 1 when it fails and 2 on a usage error.
"""

import json
import os
import sys
from typing import Callable, NamedTuple, Optional


def benchmark_rows(report):
    """The "benchmarks" list of a bench's --json report, or of the host-cost
    report that tools/measure_e2e.py writes."""
    return {e["name"]: {k: v for k, v in e.items() if k != "name"}
            for e in report["benchmarks"]}


def metrics_dump(report):
    """A MetricsRegistry --metrics_json dump: one row per instrument, with
    every field of every gauge and histogram."""
    rows = {name: {"value": value}
            for name, value in report["counters"].items()}
    rows.update(report["gauges"])
    rows.update(report["histograms"])
    return rows


def gbench_times(report):
    """A google-benchmark report: one row per benchmark, holding its
    representative real_time. That is the minimum over repetitions, or the
    median aggregate when the report holds only aggregates
    (--benchmark_report_aggregates_only); both stay stable on a noisy
    host."""
    runs, times = {}, {}
    for e in report["benchmarks"]:
        if e.get("run_type") != "aggregate":
            runs.setdefault(e["run_name"], []).append(e["real_time"])
        elif e["aggregate_name"] == "median":
            times[e["run_name"]] = e["real_time"]
    times.update((name, min(ts)) for name, ts in runs.items())
    return {name: {"real_time": t} for name, t in times.items()}


def constant_memory(rows):
    """§14's scaling claims: broker memory does not grow with the logical
    client count (mux rows) or with the producer count (SRQ rows)."""
    groups = (
        ("client_scaling_mux/* rows",
         lambda n: n.startswith("client_scaling_mux/"),
         ("ctrl_recv_buf_bytes", "meta_peak_bytes")),
        ("client_scaling/*/srq_on rows",
         lambda n: n.startswith("client_scaling/") and n.endswith("/srq_on"),
         ("ctrl_recv_buf_bytes",)),
    )
    failures = []
    for label, member, keys in groups:
        for key in keys:
            values = {n: m.get(key) for n, m in rows.items() if member(n)}
            if len(set(values.values())) > 1:
                failures.append(f"memory constancy violated: {key} differs "
                                f"across {label}: {sorted(values.items())}")
    return failures


def exactly_once(rows):
    """§15's claims: no record lost or delivered twice through the leader
    kill, and the kill really landed."""
    failures = []
    endpoints = {n: m for n, m in rows.items()
                 if n.startswith("failover/endpoint_")}
    if not endpoints:
        failures.append("no failover/endpoint_* rows in the current report")
    for name, m in sorted(endpoints.items()):
        for key in ("lost", "dup"):
            if m.get(key) != 0:
                failures.append(f"exactly-once violated: {name} reports "
                                f"{key}={m.get(key)}")
        if m.get("delivered") != m.get("produced"):
            failures.append(f"delivery gap: {name} produced "
                            f"{m.get('produced')} but delivered "
                            f"{m.get('delivered')}")
    if rows.get("failover/cluster", {}).get("broker_deaths", 0) < 1:
        failures.append("failover/cluster reports no broker death: the kill "
                        "never landed, so the run measured nothing")
    return failures


class Spec(NamedTuple):
    load: Callable
    host_bounds: Optional[dict] = None
    invariant: Optional[Callable] = None


SPECS = {
    "datapath_protocols": Spec(benchmark_rows),
    "client_scaling": Spec(benchmark_rows, invariant=constant_memory),
    "failover": Spec(benchmark_rows, invariant=exactly_once),
    "slo": Spec(metrics_dump),
    "e2e": Spec(benchmark_rows, host_bounds={"peak_rss_mb": 0.25}),
    "simcore": Spec(gbench_times, host_bounds={"real_time": 0.10}),
}


def compare(spec, base, cur):
    """Returns (failures, keys equal to baseline, keys within host bounds).

    Prints one line per host-bounded key."""
    bounds = spec.host_bounds or {}
    failures = [f"row missing from current report: {n}"
                for n in sorted(base.keys() - cur.keys())]
    failures += [f"row not in baseline (refresh it): {n}"
                 for n in sorted(cur.keys() - base.keys())]
    equal = bounded = 0
    for name in sorted(base.keys() & cur.keys()):
        b, c = base[name], cur[name]
        for key in sorted(b.keys() | c.keys()):
            if key.startswith("host_"):
                continue
            if key not in c:
                failures.append(f"{name}: key '{key}' missing from current "
                                f"report")
            elif key not in b:
                failures.append(f"{name}: key '{key}' not in baseline "
                                f"(refresh it)")
            elif key in bounds:
                ok = c[key] <= b[key] * (1 + bounds[key])
                print(f"{name:56} {key:12} {b[key]:12.1f} -> "
                      f"{c[key]:12.1f} {c[key] / b[key] - 1:+7.1%}"
                      f"{'' if ok else '  REGRESSED'}")
                if ok:
                    bounded += 1
                else:
                    failures.append(f"{name}/{key}: {b[key]} -> {c[key]}, "
                                    f"above +{bounds[key]:.0%}")
            elif c[key] != b[key]:
                failures.append(f"{name}/{key}: {b[key]} -> {c[key]}")
            else:
                equal += 1
    if spec.invariant:
        failures += spec.invariant(cur)
    return failures, equal, bounded


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    baseline, current = argv
    bench = os.path.basename(baseline)
    bench = bench.removeprefix("BENCH_").removesuffix(".baseline.json")
    if bench not in SPECS:
        print(f"error: no spec for {os.path.basename(baseline)} (want "
              f"BENCH_<bench>.baseline.json, <bench> one of "
              f"{', '.join(SPECS)})", file=sys.stderr)
        return 2
    spec = SPECS[bench]
    with open(baseline) as f:
        base = spec.load(json.load(f))
    with open(current) as f:
        cur = spec.load(json.load(f))

    failures, equal, bounded = compare(spec, base, cur)
    for failure in failures:
        print(f"error: {bench}: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"{bench}: pass, {equal} keys equal to baseline, {bounded} "
          f"within host bounds"
          f"{', invariants hold' if spec.invariant else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
