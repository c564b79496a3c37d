#!/usr/bin/env python3
"""Golden tests for pqcheck.

Each directory under fixtures/ is a miniature source tree that
deliberately violates (or observes) one rule family. Expectations live
in the sources themselves: `// pqcheck-expect: <rule>` marks the exact
line where one ACTIVE finding must anchor, clang -verify style, so the
corpus is self-maintaining under edits. A case fails on any difference
in either direction -- a missed detection and a false positive are both
regressions. Suppressed findings (live `pqcheck: allow(...)` comments)
must be suppressed, not active, and never stale.

Run directly or via ctest (`pqcheck_golden`):

  python3 tools/pqcheck/test_pqcheck.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
PQCHECK = os.path.join(HERE, "pqcheck.py")

EXPECT_RE = re.compile(r"pqcheck-expect:\s*([a-z\-]+)")


def expected_findings(case_dir):
    """{(rel, line, rule)} harvested from the fixture sources."""
    expected = set()
    for dirpath, _d, names in os.walk(case_dir):
        for name in sorted(names):
            if not name.endswith((".cc", ".hh")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, case_dir).replace(os.sep, "/")
            with open(path, encoding="utf-8") as f:
                for lineno, line in enumerate(f, 1):
                    for m in EXPECT_RE.finditer(line):
                        expected.add((rel, lineno, m.group(1)))
    return expected


def run_case(case_dir):
    name = os.path.basename(case_dir)
    # A case with a src/ directory analyzes that, so files beside it (a
    # perfbench/ tree, say) play the parts they play next to the real src.
    src = os.path.join(case_dir, "src")
    root = src if os.path.isdir(src) else case_dir
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json",
                                     delete=False) as tmp:
        report_path = tmp.name
    try:
        proc = subprocess.run(
            [sys.executable, PQCHECK, "--root", root,
             "--json", report_path],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        with open(report_path, encoding="utf-8") as f:
            report = json.load(f)
    finally:
        os.unlink(report_path)

    expected = expected_findings(root)
    actual = {(v["file"], v["line"], v["rule"])
              for v in report["violations"] if not v["suppressed"]}

    errors = []
    for miss in sorted(expected - actual):
        errors.append("expected finding not reported: %s:%d [%s]" % miss)
    for extra in sorted(actual - expected):
        errors.append("unexpected finding: %s:%d [%s]" % extra)
    want_exit = 1 if expected else 0
    if proc.returncode != want_exit:
        errors.append("exit status %d, want %d" % (proc.returncode,
                                                   want_exit))
    stale = [v for v in report["violations"]
             if v["rule"] == "stale-suppression" and not v["suppressed"]
             and (v["file"], v["line"], v["rule"]) not in expected]
    for v in stale:
        errors.append("live suppression reported stale: %s:%d"
                      % (v["file"], v["line"]))

    if errors:
        print("FAIL %s" % name)
        for e in errors:
            print("  " + e)
        print("  -- pqcheck output --")
        for line in proc.stdout.splitlines():
            print("  | " + line)
        return False
    print("ok   %-18s %d expected, %d suppressed"
          % (name, len(expected), report["suppressed_count"]))
    return True


def main():
    cases = sorted(
        os.path.join(FIXTURES, d) for d in os.listdir(FIXTURES)
        if os.path.isdir(os.path.join(FIXTURES, d)))
    if not cases:
        print("no fixture cases found under %s" % FIXTURES)
        return 1
    failures = sum(0 if run_case(c) else 1 for c in cases)
    print("%d/%d fixture case(s) passed" % (len(cases) - failures,
                                            len(cases)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
