#!/usr/bin/env python3
"""Check the deterministic fields of two figure harnesses against the
values committed in golden_figures.json.

fig_faults prints its recovery round count and its stale, detection and
resubscribe counters exactly per seed; fig10 prints its server-traffic%
column exactly. Their qps and wall times vary run to run and are not
compared. A change that moves a compared field changes the figure, and
must update golden_figures.json with the reason.

  python3 tests/check_golden.py BIN_DIR 'fig_faults 300 3 --seed 1'
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FAULT_KEYS = ("recovery_rounds", "stale_during_partition",
              "stale_after_convergence", "detections", "resubscribes")
# fig10 rows: compute servers, qps, speedup, server-traffic%.
FIG10_ROW_RE = re.compile(r"^(\d+)\s+\d+\s+[\d.]+x\s+([\d.]+%)\s*$", re.M)


def fig_faults_fields(out):
    for line in out.splitlines():
        if line.startswith("fig_faults summary:"):
            kv = dict(re.findall(r"(\w+)=(\S+)", line))
            return {k: kv.get(k) for k in FAULT_KEYS}
    return {}


def fig10_fields(out):
    return dict(FIG10_ROW_RE.findall(out))


def main(argv):
    if len(argv) != 2:
        print(__doc__)
        return 2
    bin_dir, case = argv
    with open(os.path.join(HERE, "golden_figures.json"),
              encoding="utf-8") as f:
        want = json.load(f)[case]
    cmd = case.split()
    proc = subprocess.run([os.path.join(bin_dir, cmd[0])] + cmd[1:],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        print(proc.stdout)
        print("%s: exit status %d" % (case, proc.returncode))
        return 1
    fields = fig_faults_fields if cmd[0] == "fig_faults" else fig10_fields
    got = fields(proc.stdout)
    if got != want:
        print(proc.stdout)
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                print("%s: %s = %s, want %s"
                      % (case, key, got.get(key), want.get(key)))
        return 1
    print("ok %s: %s" % (case, ", ".join("%s=%s" % kv
                                         for kv in sorted(got.items()))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
