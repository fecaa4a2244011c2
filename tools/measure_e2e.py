#!/usr/bin/env python3
"""Run one bench binary and record its host cost in a BENCH_e2e report.

Runs COMMAND, waits for it with os.wait4, and merges one row into REPORT
(created if absent):

  {"name": NAME, "host_wall_s": <wall seconds>, "peak_rss_mb": <MiB>}

peak_rss_mb is the child's ru_maxrss; tools/bench_compare.py fails on its
growth above 25% against BENCH_e2e.baseline.json. host_wall_s depends on
the host, so the report records it but no gate reads it. Exits with the
command's own exit status; a failed command records no row.

Usage: tools/measure_e2e.py REPORT NAME -- COMMAND [ARGS...]
"""

import json
import os
import sys
import time


def main():
    args = sys.argv[1:]
    if len(args) < 4 or args[2] != "--":
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    report_path, name, argv = args[0], args[1], args[3:]

    start = time.monotonic()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall_s = time.monotonic() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return code if code > 0 else 128 - code

    report = {"benchmarks": []}
    if os.path.exists(report_path):
        with open(report_path) as f:
            report = json.load(f)
    rows = [r for r in report["benchmarks"] if r["name"] != name]
    rows.append({"name": name,
                 "host_wall_s": round(wall_s, 3),
                 "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1)})
    report["benchmarks"] = sorted(rows, key=lambda r: r["name"])
    with open(report_path, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
