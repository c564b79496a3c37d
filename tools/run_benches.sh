#!/usr/bin/env bash
# Run the micro benchmarks and distill per-benchmark items/sec (and ns/op)
# into BENCH_micro.json at the repo root, so the perf trajectory across
# PRs is machine-readable. When the figure harnesses are built, also run
# fig7 (system-comparison completion-time ratios), fig9 (the interleaved
# crossover vote rate), and the §4.3 value-sharing ablation at smoke
# scale and record their headline numbers under "figures". CI runs this
# and uploads the JSON; regenerate locally with:
#
#     tools/run_benches.sh [path/to/micro_benchmarks] [output.json]
#
# Smoke parameters (CI-sized; the paper-scale runs are documented in
# DESIGN.md §9) can be overridden with FIG7_ARGS / FIG9_ARGS /
# SHARING_ARGS / FAULTS_ARGS / SHARD_ARGS / RECOVERY_ARGS, or skipped
# entirely with SKIP_FIGS=1.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN=${1:-build/bench/micro_benchmarks}
OUT=${2:-BENCH_micro.json}
MIN_TIME=${BENCH_MIN_TIME:-0.2}
BENCH_DIR=$(dirname "$BIN")
FIG7_ARGS=${FIG7_ARGS:-"400 12"}
FIG9_ARGS=${FIG9_ARGS:-"3000"}
SHARING_ARGS=${SHARING_ARGS:-"400 10"}
FAULTS_ARGS=${FAULTS_ARGS:-"400 4 --seed 1"}
# Shard scaling wants a graph big enough that per-shard load stays
# balanced; 60k users keeps the CI run under a couple of minutes.
SHARD_ARGS=${SHARD_ARGS:-"60000 4000 60000 --shards 1,2,4,8"}
# Enough unbatched fsyncs to measure the group-commit speedup without
# spending CI minutes on the slow arm of the comparison.
RECOVERY_ARGS=${RECOVERY_ARGS:-"4000 100000"}

if [ ! -x "$BIN" ]; then
    echo "error: benchmark binary '$BIN' not found (build with cmake first)" >&2
    exit 1
fi

RAW=$(mktemp)
FIG7_RAW=$(mktemp)
FIG9_RAW=$(mktemp)
SHARING_RAW=$(mktemp)
FAULTS_RAW=$(mktemp)
SHARD_RAW=$(mktemp)
RECOVERY_RAW=$(mktemp)
trap 'rm -f "$RAW" "$FIG7_RAW" "$FIG9_RAW" "$SHARING_RAW" "$FAULTS_RAW" \
     "$SHARD_RAW" "$RECOVERY_RAW"' EXIT
"$BIN" --benchmark_format=json --benchmark_min_time="$MIN_TIME" > "$RAW"

# A missing figure harness used to be skipped silently, which made the
# uploaded JSON look like the figure had simply produced no data. Fail
# loudly instead; SKIP_FIGS=1 is the explicit opt-out.
require_bench() {
    if [ ! -x "$BENCH_DIR/$1" ]; then
        echo "error: figure harness '$BENCH_DIR/$1' not found or not" \
             "executable (build it, or set SKIP_FIGS=1 to skip the" \
             "figure runs)" >&2
        exit 1
    fi
}

if [ "${SKIP_FIGS:-0}" != "1" ]; then
    for b in fig7_system_comparison fig9_interleaved \
             ablation_value_sharing fig_faults fig_shard_scaling \
             fig_recovery; do
        require_bench "$b"
    done
    "$BENCH_DIR/fig7_system_comparison" $FIG7_ARGS > "$FIG7_RAW"
    "$BENCH_DIR/fig9_interleaved" $FIG9_ARGS > "$FIG9_RAW"
    "$BENCH_DIR/ablation_value_sharing" $SHARING_ARGS > "$SHARING_RAW"
    "$BENCH_DIR/fig_faults" $FAULTS_ARGS > "$FAULTS_RAW"
    "$BENCH_DIR/fig_shard_scaling" $SHARD_ARGS > "$SHARD_RAW"
    "$BENCH_DIR/fig_recovery" $RECOVERY_ARGS > "$RECOVERY_RAW"
fi

# The build tree holding the benchmark binaries (build/bench/.. by
# default): its CMakeCache.txt names the project's build type.
BUILD_TREE=$(cd "$BENCH_DIR/.." && pwd)
GIT_SHA=$(git rev-parse HEAD 2>/dev/null || echo unknown)

python3 - "$RAW" "$OUT" "$FIG7_RAW" "$FIG9_RAW" "$SHARING_RAW" \
    "$FAULTS_RAW" "$SHARD_RAW" "$RECOVERY_RAW" "$BUILD_TREE" "$GIT_SHA" \
    <<'EOF'
import glob
import json
import os
import re
import sys

(raw_path, out_path, fig7_path, fig9_path, sharing_path,
 faults_path, shard_path, recovery_path, build_tree, git_sha) = sys.argv[1:11]


def cmake_var(path, name):
    """The value of `name` in a CMakeCache.txt or set(...) file, or None."""
    try:
        text = open(path).read()
    except OSError:
        return None
    m = re.search(r"^" + name + r":[A-Z]+=(.*)$", text, re.M) or re.search(
        r"^set\(" + name + r' "([^"]*)"\)', text, re.M)
    return m.group(1) if m else None


# The project's own build context, the same fields perfbench/run.py
# prints. Google Benchmark's library_build_type describes how the
# benchmark *library* was built, not this project.
compiler = "unknown"
for path in glob.glob(os.path.join(build_tree, "CMakeFiles", "*",
                                   "CMakeCXXCompiler.cmake")):
    cid = cmake_var(path, "CMAKE_CXX_COMPILER_ID")
    if cid:
        compiler = "%s %s" % (
            cid, cmake_var(path, "CMAKE_CXX_COMPILER_VERSION") or "")
context = {
    "build_type": cmake_var(os.path.join(build_tree, "CMakeCache.txt"),
                            "CMAKE_BUILD_TYPE") or "unknown",
    "compiler": compiler.strip(),
    "git_sha": git_sha,
    "nproc": os.cpu_count(),
}
with open(raw_path) as f:
    raw = json.load(f)

benchmarks = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    entry = {"real_time_ns": round(b["real_time"], 1)}
    if "items_per_second" in b:
        entry["items_per_second"] = round(b["items_per_second"], 1)
    benchmarks[b["name"]] = entry

figures = {}

# Fig 7: "pequod    2.09s    1.00x   (197.06s, 1.00x)" per system.
fig7 = {}
for line in open(fig7_path):
    m = re.match(r"^(\S.*?)\s+(\d+\.\d+)s\s+(\d+\.\d+)x\s+\(", line)
    if m:
        fig7[m.group(1).strip()] = {
            "runtime_s": float(m.group(2)),
            "factor": float(m.group(3)),
        }
if fig7:
    figures["fig7_completion_factors"] = fig7

# Fig 7 details: "client pequod  wall=... msgs=N bytes=...MB rt=N" —
# the counted frames and round trips behind each modeled runtime.
fig7_rpc = {}
for line in open(fig7_path):
    m = re.match(r"^\s+(\S.*?)\s+wall=.* msgs=(\d+) .* rt=(\d+)$", line)
    if m:
        fig7_rpc[m.group(1)] = {"messages": int(m.group(2)),
                                "round_trips": int(m.group(3))}
if fig7_rpc:
    figures["fig7_rpc_counts"] = fig7_rpc

# Fig 9: "80   1.255   1.283   separate" per vote rate; the crossover is
# the first rate where separate RPCs win.
crossover = None
rates = 0
for line in open(fig9_path):
    m = re.match(r"^(\d+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s+(\w+)$", line)
    if m:
        rates += 1
        if m.group(4) == "separate" and crossover is None:
            crossover = int(m.group(1))
if rates:
    figures["fig9_crossover_vote_rate_pct"] = (
        crossover if crossover is not None else 100)

# §4.3: "memory saved by value sharing: 1.34x (paper 1.14x)".
for line in open(sharing_path):
    m = re.match(r"^memory saved by value sharing: (\d+\.\d+)x", line)
    if m:
        figures["value_sharing_memory_factor"] = float(m.group(1))

# §10: the fig_faults summary line carries partition-recovery metrics.
for line in open(faults_path):
    m = re.match(
        r"^fig_faults summary: .*recovery_rounds=(-?\d+) .*"
        r"qps_recovery_pct=(\d+\.\d+) stale_during_partition=(\d+) "
        r"stale_after_convergence=(\d+)", line)
    if m:
        figures["fig_faults_recovery"] = {
            "recovery_rounds": int(m.group(1)),
            "qps_recovery_pct": float(m.group(2)),
            "stale_during_partition": int(m.group(3)),
            "stale_after_convergence": int(m.group(4)),
        }

# Shard scaling: "shards=4 qps=792434 p50_us=2.5 p99_us=105.3" per
# shard count; speedup is derived against the 1-shard (first) row.
shard = {}
baseline_qps = None
for line in open(shard_path):
    m = re.match(
        r"^shards=(\d+) qps=(\d+) p50_us=(\d+\.\d+) p99_us=(\d+\.\d+)$",
        line)
    if m:
        qps = float(m.group(2))
        if baseline_qps is None:
            baseline_qps = qps
        shard[m.group(1)] = {
            "qps": qps,
            "speedup": round(qps / baseline_qps, 2),
            "p50_us": float(m.group(3)),
            "p99_us": float(m.group(4)),
        }
if shard:
    figures["fig_shard_scaling"] = shard

# §13: durability cost/benefit — group-commit speedup, replay rate, and
# whether the warm restart read back a byte-identical timeline.
for line in open(recovery_path):
    m = re.match(
        r"^fig_recovery summary: fsync_batch_speedup=(\d+\.\d+)x "
        r"unbatched_qps=(\d+) batched_qps=(\d+) "
        r"recovery_s_per_1m=(\d+\.\d+) warm_restart_fresh=(\d+)$", line)
    if m:
        figures["fig_recovery"] = {
            "fsync_batch_speedup": float(m.group(1)),
            "unbatched_qps": int(m.group(2)),
            "batched_qps": int(m.group(3)),
            "recovery_s_per_1m_records": float(m.group(4)),
            "warm_restart_fresh": bool(int(m.group(5))),
        }

context["host"] = raw.get("context", {}).get("host_name", "unknown")
context["date"] = raw.get("context", {}).get("date")
out = {"context": context, "benchmarks": benchmarks}
if figures:
    out["figures"] = figures
with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path} ({len(benchmarks)} benchmarks, "
      f"{len(figures)} figure summaries)")
EOF
