#!/usr/bin/env python3
"""The benchmark's own smoke test, at a tiny size (about 10 seconds).

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, in both modes, it runs
perfbench/run.py at --scale 0.03 and asserts that the run is correct
with no failed op, and that every end-to-end (--trace 0) or per-layer
(--trace 1) metric is printed with the unit BENCHMARK.json gives it. It
checks that the wal.* metrics are zero on the in-memory workloads and
nonzero on durable-ingest. Last, it runs the oracle self-test: one row
is dropped from a scanned timeline, and the run must report exactly
that one failure, so the correctness check cannot pass vacuously.
Exit code 0 when everything holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.03"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "10", "--trace",
           str(trace), "--scale", SCALE] + list(extra)
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            before = len(problems)
            p = run(w, trace)
            label = "%s --trace %d" % (w, trace)
            try:
                res = json.loads(p.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append("%s: no result (exit %d)"
                                % (label, p.returncode))
                print("%-40s FAILED" % label, flush=True)
                continue
            if p.returncode != 0 or not res["correct"] or res["failed"]:
                problems.append("%s: exit %d, correct=%s, failed=%s"
                                % (label, p.returncode, res["correct"],
                                   res["failed"]))
            got = res["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    problems.append("%s: %s missing" % (label, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    problems.append("%s: %s unit %s, want %s" % (
                        label, m["name"], got[m["name"]]["unit"],
                        m["unit"]))
            if trace == 1:
                wal = [got[n]["value"] for n in got if n.startswith("wal.")]
                durable = w == "durable-ingest"
                if durable and not all(v > 0 for v in wal):
                    problems.append("%s: wal.* not all nonzero" % label)
                if not durable and any(v != 0 for v in wal):
                    problems.append("%s: wal.* nonzero in memory" % label)
            print("%-40s %s" % (label, "ok" if len(problems) == before
                                else "FAILED"), flush=True)
    p = run("timeline-hot", 0, "--selftest")
    if p.returncode != 0:
        problems.append("oracle self-test: the dropped row went unnoticed")
    else:
        print("%-40s ok" % "oracle self-test (dropped row caught)")
    for msg in problems:
        print("FAIL:", msg)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
