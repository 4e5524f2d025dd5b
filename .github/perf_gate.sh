#!/usr/bin/env bash
# Paired performance gate: the checked-out HEAD against BASE_REV on the
# user-path benchmark (perfbench, declared by BENCHMARK.json).
#
#   bash .github/perf_gate.sh BASE_REV
#
# Run from the repository root. BASE_REV is checked out in a temporary
# `git worktree` and built in its own CARGO_TARGET_DIR; HEAD builds in
# the current one. Each workload then runs in 5 pairs (seeds 1-5) whose
# order alternates, base first on odd seeds and HEAD first on even ones,
# so a drift in host speed hits both sides alike:
#
#   bash perfbench/run.sh --workload W --seed S --seconds 25 --trace 0
#
# The gate fails when any run exits non-zero or prints "correct":false,
# or when HEAD's median blocks_per_s on a workload is below
# (1 - bound) x the base median, with the bound read from BENCHMARK.json.
# Every pair's values are printed. Temporary files go under $TMPDIR.
#
# Sourcing the script defines `compare RESULTS_DIR BOUND` without running
# anything; it checks result lines named {base,head}-WORKLOAD-SEED.json.
set -euo pipefail

WORKLOADS=(batch-cold sweep-9u)
SEEDS=(1 2 3 4 5)
SECONDS_PER_RUN=25

# Gate the result lines in RESULTS_DIR; exit status 1 names each failing
# workload.
compare() {
    python3 - "$1" "$2" <<'EOF'
import json, pathlib, statistics, sys

results, bound = pathlib.Path(sys.argv[1]), float(sys.argv[2])
runs = {}  # (workload, side) -> {seed: blocks_per_s}
failures = []
for path in sorted(results.glob("*.json")):
    side, rest = path.stem.split("-", 1)
    workload, seed = rest.rsplit("-", 1)
    line = json.loads(path.read_text().strip().splitlines()[-1])
    if line.get("correct") is not True:
        failures.append(f"{workload}: {side} seed {seed} printed \"correct\":false")
        continue
    runs.setdefault((workload, side), {})[int(seed)] = line["metrics"]["blocks_per_s"]["value"]

for workload in sorted({w for w, _ in runs} | {f.split(":")[0] for f in failures}):
    base, head = runs.get((workload, "base"), {}), runs.get((workload, "head"), {})
    print(f"{workload}: blocks_per_s (rows/s)")
    print(f"  {'seed':>4}  {'base':>12}  {'head':>12}  {'head/base':>9}")
    for seed in sorted(base.keys() | head.keys()):
        b, h = base.get(seed), head.get(seed)
        ratio = f"{h / b:9.3f}" if b and h is not None else f"{'-':>9}"
        fmt = lambda v: f"{v:12.1f}" if v is not None else f"{'-':>12}"
        print(f"  {seed:>4}  {fmt(b)}  {fmt(h)}  {ratio}")
    if not base or not head:
        failures.append(f"{workload}: no complete runs to compare")
        continue
    mb, mh = statistics.median(base.values()), statistics.median(head.values())
    floor = (1 - bound) * mb
    print(f"  median {mb:12.1f}  {mh:12.1f}  {mh / mb:9.3f}   floor {floor:.1f} (bound {bound})")
    if mh < floor:
        failures.append(
            f"{workload}: head median blocks_per_s {mh:.1f} is below {floor:.1f} "
            f"= (1 - {bound}) x base median {mb:.1f}"
        )

for f in failures:
    print(f"perf-gate: FAIL: {f}")
if failures:
    sys.exit(1)
print("perf-gate: OK")
EOF
}

# Run one workload on one side and keep its result line.
run_one() {
    local side=$1 dir=$2 workload=$3 seed=$4 target=$5
    echo "perf-gate: $workload seed $seed on $side" >&2
    if ! (cd "$dir" && CARGO_TARGET_DIR="$target" bash perfbench/run.sh \
        --workload "$workload" --seed "$seed" --seconds "$SECONDS_PER_RUN" --trace 0) \
        > "$work/log"; then
        echo "perf-gate: FAIL: $workload: $side seed $seed exited non-zero" >&2
        cat "$work/log" >&2
        exit 1
    fi
    tail -n 1 "$work/log" > "$work/results/$side-$workload-$seed.json"
}

main() {
    local base_rev=${1:?usage: bash .github/perf_gate.sh BASE_REV}
    local bound
    bound=$(python3 -c 'import json; print(next(m["bound"] for m in json.load(open("BENCHMARK.json"))["end_to_end"] if m["name"] == "blocks_per_s"))')
    head_dir=$PWD
    head_target=$(realpath -m "${CARGO_TARGET_DIR:-target}")
    work=$(mktemp -d)
    trap 'git -C "$head_dir" worktree remove --force "$work/base" 2>/dev/null || true; rm -rf "$work"' EXIT
    git worktree add --quiet --detach "$work/base" "$base_rev"
    mkdir "$work/results"
    echo "perf-gate: HEAD $(git rev-parse --short HEAD) vs base $(git rev-parse --short "$base_rev"), bound $bound" >&2
    for workload in "${WORKLOADS[@]}"; do
        for seed in "${SEEDS[@]}"; do
            if (( seed % 2 )); then
                run_one base "$work/base" "$workload" "$seed" "$work/base-target"
                run_one head "$head_dir" "$workload" "$seed" "$head_target"
            else
                run_one head "$head_dir" "$workload" "$seed" "$head_target"
                run_one base "$work/base" "$workload" "$seed" "$work/base-target"
            fi
        done
    done
    compare "$work/results" "$bound"
}

if [[ "${BASH_SOURCE[0]}" == "$0" ]]; then
    main "$@"
fi
