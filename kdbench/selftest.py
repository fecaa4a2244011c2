#!/usr/bin/env python3
"""Self-test of kdbench's own determinism and correctness checks.

    python3 kdbench/selftest.py [--workloads iot_stream,mux_fanin]

For each workload (default: all four):
  1. two untraced runs with one seed print byte-identical virtual-time
     metrics (the `virtual-digest` line);
  2. a traced run with that seed prints the same digest, so benchmark spans
     schedule no simulator event (inside one run, kdbench already fails when
     a traced iteration's digest differs from an untraced one's);
  3. a run with a second seed passes every correctness check and gives a
     different digest (the seed reaches the inputs).
Each run does two measured iterations, so the in-process check that every
iteration of a seed gives the same digest runs too. Exits non-zero on the
first failure.
"""
import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (builds kdbench the way the benchmark command does)

WORKLOADS = ["iot_stream", "bulk_replicated", "tcp_produce_fanout",
             "mux_fanin"]


def digest(binary, workload, seed, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--iterations", "2",
           "--out", run.OUT]
    done = subprocess.run(cmd, cwd=run.OUT, stdout=subprocess.PIPE,
                          text=True, timeout=run.RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("FAIL %s seed %d trace %d: exit %d\n%s" %
                 (workload, seed, trace, done.returncode, done.stdout))
    for line in done.stdout.splitlines():
        if line.startswith("virtual-digest "):
            return line[len("virtual-digest "):]
    sys.exit("FAIL %s: no virtual-digest line" % workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    binary = run.build()
    os.makedirs(run.OUT, exist_ok=True)
    for w in args.workloads.split(","):
        first = digest(binary, w, 7, 0)
        again = digest(binary, w, 7, 0)
        if again != first:
            sys.exit("FAIL %s: same seed, different virtual metrics:\n"
                     "  %s\n  %s" % (w, first, again))
        traced = digest(binary, w, 7, 1)
        if traced != first:
            sys.exit("FAIL %s: traced run changed virtual metrics:\n"
                     "  %s\n  %s" % (w, first, traced))
        other = digest(binary, w, 8, 0)
        if other == first:
            sys.exit("FAIL %s: seed 8 gave seed 7's metrics" % w)
        print("ok  %-20s %s" % (w, first), flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
