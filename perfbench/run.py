#!/usr/bin/env python3
"""Wall-clock benchmark of the xcql stream's user paths.

Run from the repository root:

    python3 perfbench/run.py --workload durable_ingest --seed 1 --seconds 25 --trace 0

Builds perfbench_xcql from the repository's sources (first run only), runs
one workload in a process of its own, and prints that process's result: the
metrics readably on stderr, and as the last line of stdout one JSON object
{correct, attempted, failed, metrics}. --trace 1 reports the per-layer
metrics instead of the end-to-end ones and writes the span file. The exit
code is the workload's: 0 when every correctness check passed, 1 when one
failed, 2 when the workload could not run.

Everything the benchmark leaves behind lives under the build directory
($CARGO_TARGET_DIR, default .bench_build): the build, span files (spans/)
and result lines (results/). Each run's data directories live in a fresh
temporary directory under it, removed when the run ends.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("durable_ingest", "quote_monitor", "resume_replay")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(source_dir, build_dir):
    """Configures (once) and builds perfbench_xcql; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench_xcql",
                  "-j", jobs])
    for cmd in steps:
        # The build's chatter goes to stderr: stdout carries only the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench_xcql")


def run(cmd):
    """Runs one benchmark process; returns (exit code, stdout lines)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--perturb", default="",
                    help="name of a correctness check whose input to perturb "
                         "(the run must then fail that check)")
    args = ap.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(source_dir, "..", "src",
                                       "CMakeLists.txt")):
        log("the repository's sources (src/) are missing next to perfbench/")
        return 2
    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    try:
        binary = build(source_dir, os.path.join(out_root, "perfbench"))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    for sub in ("runs", "spans", "results"):
        os.makedirs(os.path.join(out_root, sub), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=os.path.join(out_root, "runs"))
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", scratch]
        if args.workload == "resume_replay":
            # The history is written by a process of its own, so the
            # measured process starts with a real restart.
            code, _ = run([binary, "--prepare"] + common)
            if code != 0:
                log("resume_replay preparation failed")
                return 2
        cmd = [binary] + common + ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(out_root, "spans",
                                            f"{args.workload}.csv")]
        if args.perturb:
            cmd += ["--perturb", args.perturb]
        code, lines = run(cmd)
    except subprocess.TimeoutExpired:
        log("the workload did not finish in time")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if lines and lines[-1].startswith("{"):
        with open(os.path.join(out_root, "results",
                               f"{args.workload}-seed{args.seed}-trace"
                               f"{args.trace}.json"), "w") as f:
            f.write(lines[-1] + "\n")
        print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
