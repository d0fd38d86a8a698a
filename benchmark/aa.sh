#!/usr/bin/env bash
# A/A check: two sets of runs of the same build must agree within the
# benchmark's own bounds.
#
#   benchmark/aa.sh [R] [SECONDS] [WORKLOAD ...] > benchmark/AA.md
#
# Builds the benchmark once, then for every workload makes R runs for
# set A and R for set B, interleaved (A B A B ...). Run i of either set
# uses seed i, so the two sets see the same inputs and the counts can be
# compared exactly, while the R runs of one set see R different inputs,
# which is the spread the driver measures. Prints, per metric x workload:
# both medians, B/A, how much worse B is than A against the bound, and
# the spread of set A (quartile distance over median) against a third of
# the bound. Every run's metrics are kept in benchmark/target/aa-runs.json.
# Exits non-zero if any row fails.
set -euo pipefail
cd "$(dirname "$0")/.."

R="${1:-5}"
SECONDS_PER_RUN="${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
shift $(( $# < 2 ? $# : 2 ))

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/npss-benchmark"

exec python3 - "$BIN" "$R" "$SECONDS_PER_RUN" "$@" <<'EOF'
import json, statistics, subprocess, sys

binary, runs, seconds, only = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4:]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"] if not only or w["name"] in only]
# Counts a later change may claim on: same seeds must give the same count.
EXACT = {"allocs_per_op": 1e-6, "virtual_s_per_op": 1e-6}
# bulk_payload's persistent world has thirteen idle threads that wake every
# 50 ms of wall clock and allocate; how many wake-ups a run holds varies.
# Pooled sessions interleave on two workers, and a handful of the pool's
# own allocations (queue growth, wake-ups) depend on the interleaving.
LOOSE = {("bulk_payload", "allocs_per_op"): 5e-3, ("session_pool_mix", "allocs_per_op"): 1e-5}

def run(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, result)
    return {name: m["value"] for name, m in result["metrics"].items()}

def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)

print(f"# A/A: two interleaved sets of {runs} runs of one build, {seconds} s each, seeds 1..{runs}\n")
print("`worse` is how far set B's median is on the bad side of set A's, as a share of A's;")
print("`spread` is the quartile distance of set A's runs (one seed each) over their median;")
print("`twin diff` is the largest relative difference between a run and its same-seed twin.")
print("A row passes when `worse` is within the bound, the spread is within a third of it")
print("(`setup_s` is exempt from the spread rule), and each run's counts differ from its")
print("same-seed twin's by at most 1e-6 (`allocs_per_op`: 5e-3 on `bulk_payload`, 1e-5 on")
print("`session_pool_mix`).\n")
failed, raw = 0, {}
for workload in workloads:
    a, b = [], []
    for seed in range(1, runs + 1):
        a.append(run(workload, seed))
        b.append(run(workload, seed))
    print(f"## {workload}\n")
    print("| metric | median A | median B | B/A | worse | bound | spread A | twin diff | verdict |")
    print("|---|---:|---:|---:|---:|---:|---:|---:|---|")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        va, vb = [r[name] for r in a], [r[name] for r in b]
        ma, mb = statistics.median(va), statistics.median(vb)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sp = spread(va) if runs >= 2 else 0.0
        ok = worse <= bound and (name == "setup_s" or sp <= bound / 3)
        twin = max(abs(x - y) / x for x, y in zip(va, vb))
        if name in EXACT:
            ok = ok and twin <= LOOSE.get((workload, name), EXACT[name])
        failed += not ok
        print(f"| {name} | {ma:.9g} | {mb:.9g} | {mb / ma:.7f} | {worse:+.5f} | {bound} "
              f"| {sp:.5f} | {twin:.1e} | {'PASS' if ok else 'FAIL'} |")
    print()
    raw[workload] = {"A": a, "B": b}
json.dump(raw, open("benchmark/target/aa-runs.json", "w"), indent=1)
print(f"{'FAIL' if failed else 'PASS'}: {failed} failing rows")
sys.exit(1 if failed else 0)
EOF
