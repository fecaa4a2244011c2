#!/usr/bin/env python3
"""Tests for tools/bench_compare.py against the committed baselines.

Each case gates an edited copy of a committed BENCH_<bench>.baseline.json,
written to a scratch directory, against the committed file. The invariant
cases write the edited report under the baseline's own name too, so they
show that a refreshed baseline cannot hide a violation.

Usage: python3 tools/bench_compare_test.py
"""

import contextlib
import glob
import io
import json
import os
import tempfile
import unittest

import bench_compare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ("datapath_protocols", "client_scaling", "failover", "slo")


def baseline_path(bench):
    return os.path.join(ROOT, f"BENCH_{bench}.baseline.json")


def committed(bench):
    with open(baseline_path(bench)) as f:
        return json.load(f)


def row(report, name):
    return next(r for r in report["benchmarks"] if r["name"] == name)


def virtual_time_values(report):
    """Yields (label, container, key) for every gated number of a
    deterministic report: every non-host_* number of every row, or every
    field of every instrument of a metrics dump."""
    if "benchmarks" in report:
        containers = [(r["name"], r) for r in report["benchmarks"]]
    else:
        containers = [("counters", report["counters"])]
        containers += [(name, fields) for section in ("gauges", "histograms")
                       for name, fields in report[section].items()]
    for label, values in containers:
        for key, value in values.items():
            if (isinstance(value, (int, float)) and
                    not isinstance(value, bool) and
                    not key.startswith("host_")):
                yield f"{label}/{key}", values, key


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.tmp = tmp.name

    def gate(self, bench, current, baseline=None):
        """Exit status of gating `current` against the committed baseline of
        `bench`, or against `baseline` written under that baseline's name."""
        base = baseline_path(bench)
        if baseline is not None:
            base = os.path.join(self.tmp, os.path.basename(base))
            with open(base, "w") as f:
                json.dump(baseline, f)
        cur = os.path.join(self.tmp, "current.json")
        with open(cur, "w") as f:
            json.dump(current, f)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return bench_compare.main([base, cur])

    def test_every_baseline_passes_against_itself(self):
        paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.baseline.json")))
        benches = {os.path.basename(p)[len("BENCH_"):-len(".baseline.json")]
                   for p in paths}
        self.assertEqual(benches, set(bench_compare.SPECS))
        for path in paths:
            with self.subTest(path=path), \
                    contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(bench_compare.main([path, path]), 0)

    def test_one_unit_on_any_virtual_time_value_fails(self):
        for bench in DETERMINISTIC:
            report = committed(bench)
            for label, values, key in list(virtual_time_values(report)):
                values[key] += 1
                with self.subTest(bench=bench, value=label):
                    self.assertEqual(self.gate(bench, report), 1)
                values[key] -= 1

    def test_drift_below_ten_percent_fails(self):
        report = committed("failover")
        row(report, "failover/cluster")["sim_events"] += 4
        self.assertEqual(self.gate("failover", report), 1)
        report = committed("slo")
        report["gauges"]["sim.engine.events"]["value"] += 4
        self.assertEqual(self.gate("slo", report), 1)

    def test_key_set_drift_fails_both_ways(self):
        report = committed("datapath_protocols")
        del report["benchmarks"][0]["latency_us_p50"]
        self.assertEqual(self.gate("datapath_protocols", report), 1)
        report = committed("datapath_protocols")
        report["benchmarks"][0]["new_metric"] = 0
        self.assertEqual(self.gate("datapath_protocols", report), 1)
        report = committed("datapath_protocols")
        report["benchmarks"].append(dict(report["benchmarks"][0],
                                         name="notify/imm/65536B"))
        self.assertEqual(self.gate("datapath_protocols", report), 1)
        report = committed("datapath_protocols")
        report["benchmarks"].pop()
        self.assertEqual(self.gate("datapath_protocols", report), 1)

    def test_invariants_checked_on_current_report(self):
        for key, value in (("lost", 1), ("dup", 1), ("delivered", 99)):
            report = committed("failover")
            row(report, "failover/endpoint_0")[key] = value
            with self.subTest(key=key):
                self.assertEqual(self.gate("failover", report, report), 1)
        report = committed("failover")
        row(report, "failover/cluster")["broker_deaths"] = 0
        self.assertEqual(self.gate("failover", report, report), 1)
        for name, key in (
                ("client_scaling_mux/65536", "meta_peak_bytes"),
                ("client_scaling_mux/65536", "ctrl_recv_buf_bytes"),
                ("client_scaling/64/srq_on", "ctrl_recv_buf_bytes")):
            report = committed("client_scaling")
            row(report, name)[key] += 1
            with self.subTest(row=name, key=key):
                self.assertEqual(self.gate("client_scaling", report, report),
                                 1)

    def test_host_keys_are_not_gated(self):
        report = committed("client_scaling")
        for r in report["benchmarks"]:
            for key in r:
                if key.startswith("host_"):
                    r[key] *= 2
        self.assertEqual(self.gate("client_scaling", report), 0)

    def test_peak_rss_gated_at_plus_25_percent_one_sided(self):
        for factor, status in ((0.5, 0), (1.2, 0), (1.3, 1)):
            report = committed("e2e")
            for r in report["benchmarks"]:
                r["peak_rss_mb"] *= factor
            with self.subTest(factor=factor):
                self.assertEqual(self.gate("e2e", report), status)

    def test_simcore_real_time_gated_at_plus_10_percent_one_sided(self):
        for factor, status in ((0.5, 0), (1.05, 0), (1.15, 1)):
            report = committed("simcore")
            for r in report["benchmarks"]:
                r["real_time"] *= factor
            with self.subTest(factor=factor):
                self.assertEqual(self.gate("simcore", report), status)
        report = committed("simcore")
        report["benchmarks"] = report["benchmarks"][4:]
        self.assertEqual(self.gate("simcore", report), 1)

    def test_simcore_takes_the_fastest_repetition(self):
        report = committed("simcore")
        medians = [r for r in report["benchmarks"]
                   if r["aggregate_name"] == "median"]
        for factors, status in (((1.3, 1.0, 1.2), 0), ((1.3, 1.15, 1.2), 1)):
            report["benchmarks"] = [
                dict(r, run_type="iteration", real_time=r["real_time"] * f)
                for r in medians for f in factors]
            with self.subTest(factors=factors):
                self.assertEqual(self.gate("simcore", report), status)

    def test_baseline_name_selects_the_spec(self):
        report = committed("failover")
        path = os.path.join(self.tmp, "failover.json")
        with open(path, "w") as f:
            json.dump(report, f)
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(bench_compare.main([path, path]), 2)
            self.assertEqual(bench_compare.main([path]), 2)


if __name__ == "__main__":
    unittest.main()
