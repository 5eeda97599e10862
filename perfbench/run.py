#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check-params

Run from the root of a checkout. Configures and builds perfbench/ (which
compiles the cbrain library from ../src) in Release mode under
.bench_build/perfbench, then runs the benchmark binary, whose last stdout
line is the JSON result. Build output goes to stderr. With --trace 1 the
Perfetto trace of the traced window is written to
.bench_build/trace-<workload>.json (checkable with tools/validate_trace.py).

--check-params builds and runs perfbench_params_check: the golden
reference on the benchmark's generated parameters, asserting every
conv/fc/eltwise layer is live. It is kept out of the per-run path.

Exit code 0 on success; nonzero, with no result line, when the sources
are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("alexnet_func_b1", "mobilenet_func_batch", "resnet18_shard4")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-params", action="store_true")
    args = ap.parse_args()
    if not args.check_params and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.check_params:
        cmd = [os.path.join(BUILD, "perfbench_params_check"),
               "--seed", str(args.seed)]
    else:
        cmd = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(BUILD_ROOT, "trace-%s.json" % args.workload)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
