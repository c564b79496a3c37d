#!/usr/bin/env python3
"""Steadiness runner: run each workload K times and judge the spread.

    python3 perfbench/steady.py --runs 10 --seed-base 100 --out set1.json
    python3 perfbench/steady.py --runs 10 --seed-base 100 --out set2.json \
        --compare set1.json

Each run is `perfbench/run.py --trace 0` with its own seed (seed-base,
seed-base+1, ...) and BENCHMARK.json's run_seconds. For every end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median against the metric's bound: "ok" below
a third of the bound, "near" below the bound, "OVER" above it (setup_s
is reported but not judged by spread). With --compare, each median is
also checked against the earlier set's: worse by more than the bound is
"DRIFT". Take the two sets apart in time; drift over time is the
failure one batch cannot show. Exit code 1 on any OVER, DRIFT or failed
run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    res = json.loads(lines[-1]) if lines else None
    ctx = json.loads(lines[-2]).get("context", {}) if len(lines) > 1 else {}
    return p.returncode, res, ctx, time.time() - t0


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, second):
    """Relative worsening of `second` against `first` (negative = better)."""
    if first == 0:
        return 0.0
    d = (second - first) / first
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--out", help="write every run's values here")
    ap.add_argument("--compare", help="an earlier --out file")
    args = ap.parse_args()

    spec = load_spec()
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in spec["workloads"]])
    earlier = None
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    record = {"runs": args.runs, "seed_base": args.seed_base,
              "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
              "workloads": {}}
    bad = False
    for w in names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        contexts = []
        for k in range(args.runs):
            seed = args.seed_base + k
            rc, res, ctx, secs = run_once(w, seed, spec["run_seconds"])
            ok = rc == 0 and res and res["correct"] and res["failed"] == 0
            print("%-15s seed %-4d %5.1fs %s" % (w, seed, secs,
                  "ok" if ok else "FAILED (exit %d)" % rc), flush=True)
            if not ok:
                bad = True
                continue
            contexts.append(ctx)
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        record["workloads"][w] = {"values": values,
                                  "context": contexts[:1]}
        if len(contexts) < 2:
            continue
        print("%-15s %-18s %12s %12s %12s %8s %6s" % (
            w, "metric", "median", "q1", "q3", "spread", "bound"))
        for m in spec["end_to_end"]:
            med, q1, q3, sp = spread(values[m["name"]])
            if m["name"] == "setup_s":
                verdict = "(not judged)"
            elif sp < m["bound"] / 3:
                verdict = "ok"
            elif sp < m["bound"]:
                verdict = "near"
            else:
                verdict, bad = "OVER", True
            line = "%-15s %-18s %12.5g %12.5g %12.5g %7.2f%% %5.0f%% %s" % (
                "", m["name"], med, q1, q3, 100 * sp, 100 * m["bound"],
                verdict)
            if earlier and w in earlier["workloads"]:
                prev = earlier["workloads"][w]["values"].get(m["name"])
                if prev and len(prev) >= 2:
                    d = worse_by(m, statistics.median(prev), med)
                    drift = d > m["bound"]
                    bad = bad or drift
                    line += "  vs earlier %+6.2f%% %s" % (
                        100 * d, "DRIFT" if drift else "ok")
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
