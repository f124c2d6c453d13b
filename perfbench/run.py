#!/usr/bin/env python3
"""Build and run the end-to-end checkpointing benchmark.

    python3 perfbench/run.py --workload jacobi-file --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/
(or $CARGO_TARGET_DIR); later calls only rebuild what changed.  Build
output goes to stderr, so the last line on stdout is the benchmark's
JSON result.  Exits nonzero, printing no result, when the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("jacobi-file", "sage-ickptd", "chain-restore")
RUN_TIMEOUT_S = 165


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build; returns True on success."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler scratch stays in the checkout
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
                return False
        cmd = ["cmake", "--build", out, "--target", "perfbench",
               "perfbench_selftest", "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0


def run(cmd):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the decorator self-test instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    out = build_dir()
    t0 = time.monotonic()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    print("perfbench: build ready in %.1f s" % (time.monotonic() - t0),
          file=sys.stderr)
    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    if args.selftest:
        return run([os.path.join(out, "perfbench_selftest"),
                    os.path.join(work, "selftest")])
    return run([os.path.join(out, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--work-dir", work])


if __name__ == "__main__":
    sys.exit(main())
