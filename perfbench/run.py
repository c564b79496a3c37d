#!/usr/bin/env python3
"""Build pqbench from source and run one workload.

    python3 perfbench/run.py --workload timeline-hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The pqbench binary is built with CMake from
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run compiles the engine, later runs
only relink what changed. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(the lists in BENCHMARK.json). The line before it records the run
context: build type, compiler, git sha, nproc, seed, WAL filesystem, and
per-op sample counts with their p99s. The exit code is nonzero when the
build fails, an op fails, or the metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build(bdir):
    """Configure once, then build incrementally; returns the binary path."""
    out = os.path.join(bdir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "3"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(out, "pqbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink users and op counts (smoke tests)")
    ap.add_argument("--selftest", action="store_true",
                    help="drop one scanned row; exit 0 only if the "
                         "oracle reports it")
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--git-sha", git_sha(),
           "--work-dir", os.path.join(bdir, "pqbench-work")]
    if args.selftest:
        cmd.append("--selftest")
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: pqbench timed out\n")
        return 1
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stdout)
        sys.stderr.write("run.py: pqbench printed no result (exit %d)\n"
                         % p.returncode)
        return 1
    if args.selftest:
        return p.returncode

    want = expected_metrics(args.trace)
    got = [(k, v["unit"]) for k, v in res["metrics"].items()]
    if want is not None and sorted(got) != sorted(want):
        sys.stderr.write("run.py: metrics %s do not match BENCHMARK.json %s\n"
                         % (got, want))
        return 1
    print(json.dumps({"context": res.get("info", {})}))
    print(json.dumps({k: res[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
