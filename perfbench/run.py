#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run it from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) in Release into the build directory
($CARGO_TARGET_DIR, else .bench_build); later calls rebuild incrementally.
The benchmark's stdout passes through unchanged, so its last line is the
result JSON; a copy of each run's output is kept under <build>/results/.
Build output goes to stderr. The exit code is the benchmark's (see
perfbench/README.md); 2 when the build fails or the run exceeds its time.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "dyn_graph.hpp")):
        sys.exit("perfbench: no library sources under " + os.path.join(ROOT, "src"))
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    return os.path.join(out, target)


def git_commit():
    if os.environ.get("PERFBENCH_GIT_COMMIT"):
        return os.environ["PERFBENCH_GIT_COMMIT"]
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run(cmd, log_name):
    env = dict(os.environ, PERFBENCH_GIT_COMMIT=git_commit())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, log_name), "w") as f:
        f.write(proc.stdout)
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=0.0,
                    help="dataset scale override (anomaly baselines only)")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's self-tests")
    args = ap.parse_args()

    if args.selftest:
        binary = build("perfbench_selftest")
        return run([binary, "--workdir", os.path.join(build_dir(), "tmp")],
                   "selftest.txt")
    if not args.workload:
        ap.error("--workload is required")
    binary = build("perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir(), "tmp")]
    if args.scale > 0:
        cmd += ["--scale", repr(args.scale)]
    return run(cmd, "%s-seed%d-trace%d.txt" % (args.workload, args.seed, args.trace))


if __name__ == "__main__":
    sys.exit(main())
