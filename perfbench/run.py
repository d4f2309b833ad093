#!/usr/bin/env python3
"""Builds the GDPR engine benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload processor --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and the run's data directory under it; both stay inside the checkout. The
last line of stdout is the run's JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("processor", "consent", "rights-rpc", "relational")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gdpr", "store.h")):
        log("no engine sources under %s/src: nothing to build" % ROOT)
        return None
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            log("cmake configure failed")
            return None
    r = subprocess.run(["cmake", "--build", build_dir, "-j", "3",
                        "--target", "gdpr_perfbench"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env)
    if r.returncode != 0:
        log("build failed")
        return None
    return os.path.join(build_dir, "gdpr_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that planted wrong expectations are reported")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 2

    run_dir = os.path.join(build_dir, "runs", "%s-%d-%d" % (
        args.workload or "selftest", args.seed, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [binary, "--dir=" + run_dir]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload=" + args.workload, "--seed=%d" % args.seed,
                "--seconds=%g" % args.seconds, "--trace=%d" % args.trace]
        if args.trace:
            traces = os.path.join(build_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd.append("--trace-file=" + os.path.join(
                traces, "%s-%d.csv" % (args.workload, args.seed)))
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("run exceeded %d s" % RUN_TIMEOUT_S)
            return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("benchmark exited with %d" % proc.returncode)
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
