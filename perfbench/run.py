#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload.

    python3 perfbench/run.py --workload crawl_k1 --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. The first call configures and
builds perfbench/CMakeLists.txt into .bench_build/perfbench (the program's
libraries plus the driver); later calls rebuild only what changed. Each call
runs the workload in a fresh driver process, so peak RSS belongs to that
workload alone.

stdout ends with two lines: a record of the run (host core count, build
type, compiler, seed, workload inputs, fingerprints) and, last, the result
{"correct", "attempted", "failed", "metrics"}. Build output and diagnostics
go to stderr. Any failure to build or run exits non-zero without a result.
"""
import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
WORKLOADS = ("crawl_k1", "fig3_sweep", "service_ckpt")
# A run must finish within 180 s; the driver gets what the build left.
RUN_LIMIT_S = 175.0


def uint(text):
    """Whole-string unsigned decimal: rejects '2e4', '+5', ' 7', '1_000'."""
    if not re.fullmatch(r"[0-9]+", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(f"not an unsigned 64-bit integer: {text!r}")
    return int(text)


def positive(text):
    value = uint(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=uint)
    parser.add_argument("--seconds", required=True, type=positive,
                        help="how long one run measures")
    parser.add_argument("--trace", required=True, choices=("0", "1"),
                        help="1 = per-layer metrics instead of end-to-end")
    return parser.parse_args(argv)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no program sources under {ROOT}; "
                 "run from the root of a source checkout")
    jobs = str(len(os.sched_getaffinity(0)))
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)


def run_driver(args, deadline):
    scratch = ROOT / ".bench_build" / f"scratch-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", str(scratch)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: driver exceeded the run time limit")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: driver exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        sys.exit("perfbench: driver printed no result")
    return json.loads(lines[-1])


def main(argv):
    args = parse_args(argv)
    build()
    report = run_driver(args, time.monotonic() + RUN_LIMIT_S)
    for failure in report["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"record": report["record"]}))
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build step failed: {err}")
