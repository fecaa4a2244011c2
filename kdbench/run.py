#!/usr/bin/env python3
"""Builds kdbench from the sources beside it and runs one workload.

    python3 kdbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to .bench_build/kdbench
(Release, incremental); the binary runs in .bench_build/out, where traced
runs leave their span files. Build output goes to stderr, so the last line
of stdout is kdbench's JSON result. Exits non-zero, printing no result,
when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kdbench")
OUT = os.path.join(ROOT, ".bench_build", "out")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "kdbench"],
    ]
    for cmd in steps:
        # stdout of the build joins stderr: stdout is reserved for results.
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.exit("kdbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "kdbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    binary = build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", OUT]
    try:
        done = subprocess.run(cmd, cwd=OUT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write((e.stdout or b"").decode(errors="replace"))
        sys.exit("kdbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout.decode(errors="replace"))
    sys.stdout.flush()
    if done.returncode != 0:
        sys.exit("kdbench: %s exited with %d" % (args.workload,
                                                 done.returncode))


if __name__ == "__main__":
    main()
