#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, then run one workload.

    python3 perfbench/run.py --workload serve_miss --seed 1 --seconds 30 --trace 0

Workloads: serve_miss and serve_mixed (those of BENCHMARK.json) and
serve_hot (a cache-layer diagnostic); see harness/workloads.h and METRICS.md.
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics,
the per-journey accounting tables and the tracing overhead. The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The harness is built with CMake under $CARGO_TARGET_DIR (default
.bench_build) inside the checkout; the first run builds the library (about
a minute on 4 cores), later runs only check that the build is current. The
harness self-tests run before every measurement. Exit status is non-zero,
with no JSON line, when the source tree is missing or the build or a
self-test fails, and non-zero when any served answer was wrong.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_miss", "serve_mixed", "serve_hot")


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output on stderr only when it fails."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("command failed: %s" % " ".join(cmd))


def build(build_dir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no poetbin source tree next to %s" % HERE)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(ROOT, out_root)
    build_dir = os.path.join(out_root, "perfbench")
    work_dir = os.path.join(out_root, "perfbench-work")
    build(build_dir)
    os.makedirs(work_dir, exist_ok=True)
    run_quiet([os.path.join(build_dir, "perfbench_selftest")])

    sys.stdout.flush()
    proc = subprocess.run([
        os.path.join(build_dir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--workdir", work_dir,
    ])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
