#!/bin/sh
# Ground rule (ii)'s protocol for a speed claim (ROADMAP.md; the tables
# of EXPERIMENTS.md P1-P4): the repository's benchmark (BENCHMARK.json)
# on one workload at a parent checkout and at this one, each built once,
# run in alternating pairs — parent first on odd pairs, this checkout
# first on even ones.
#
#   scripts/perf-pairs.sh <parent-checkout> <workload>|all [seed] [pairs]
#
# seed defaults to 42, pairs to 10; `all` runs every workload of
# BENCHMARK.json in turn and ends with one row per metric and one column
# per workload (parent median → change median, `=` where both sides'
# medians and quartiles are the same). The command and the run length are
# read from this checkout's BENCHMARK.json and run from each checkout's
# own root, so each side builds and runs its own perf/. Prints one row
# per pair, then for every end-to-end metric both sides' median and
# quartiles, the ratio of the medians and the pairs this checkout won
# (a tie counts for neither). Takes 2 x pairs x run length.
set -eu
here=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
workload=$2
seed=${3:-42}
pairs=${4:-10}
manifest() {
    python3 -c "import json; b = json.load(open('$here/BENCHMARK.json')); print($1)"
}
if [ "$workload" = all ]; then
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
    workloads=$(manifest "' '.join(w['name'] for w in b['workloads'])")
    for w in $workloads; do "$0" "$parent" "$w" "$seed" "$pairs" | tee "$out/$w"; echo; done
    python3 - "$out" $workloads <<'ALL'
import re, sys
out, *workloads = sys.argv[1:]
row = re.compile(r"\| (`\w+` \(\S+\)) \| ((\S+) \[.*?\]) \| ((\S+) \[.*?\]) \| × (\S+) \|")
cells = {}
for w in workloads:
    for metric, parent, p, change, c, ratio in row.findall(open(f"{out}/{w}").read()):
        cells.setdefault(metric, {})[w] = f"{p} =" if parent == change else f"{p} → {c} (×{ratio})"
print("| metric (unit) | " + " | ".join(f"`{w}`" for w in workloads) + " |")
print("|---|" + "---:|" * len(workloads))
for metric, by in cells.items():
    print(f"| {metric} | " + " | ".join(by[w] for w in workloads) + " |")
ALL
    exit
fi
command=$(manifest "' '.join(b['command'])")
build=$(manifest "' '.join('build' if a == 'run' else a for a in b['command'] if a != '--')")
seconds=$(manifest "b['run_seconds']")
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
for side in "$parent" "$here"; do (cd "$side" && $build); done
run() {
    echo "perf-pairs: pair $1 of $pairs, $2" >&2
    result=$(cd "$3" && $command --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$1 $2 $result" >> "$runs"
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run "$pair" parent "$parent"; run "$pair" change "$here"
    else
        run "$pair" change "$here"; run "$pair" parent "$parent"
    fi
done
python3 - "$runs" "$here/BENCHMARK.json" "$workload" "$seed" "$seconds" <<'EOF'
import json, statistics, sys
runs, manifest, workload, seed, seconds = sys.argv[1:]
rows = [line.split(" ", 2) for line in open(runs)]
side = {s: [json.loads(r) for _, t, r in rows if t == s] for s in ("parent", "change")}
value = lambda run, m: run["metrics"][m]["value"]
print(f"`{workload}`, seed {seed}, {len(side['parent'])} pairs of {seconds} s runs\n")
print("| pair | ran first | parent `req_per_s` | change `req_per_s` | change / parent | parent `round_wall_ms` | change `round_wall_ms` |")
print("|---:|---|---:|---:|---:|---:|---:|")
for i, (p, c) in enumerate(zip(side["parent"], side["change"]), 1):
    rp, rc = value(p, "req_per_s"), value(c, "req_per_s")
    print(f"| {i} | {'parent' if i % 2 else 'change'} | {rp:.0f} | {rc:.0f} | {rc / rp:.3f} | "
          f"{value(p, 'round_wall_ms'):.3f} | {value(c, 'round_wall_ms'):.3f} |")
print("\n| metric | parent: median [q1, q3] | change: median [q1, q3] | change / parent | pairs won |")
print("|---|---:|---:|---:|---:|")
for m in json.load(open(manifest))["end_to_end"]:
    name, sign = m["name"], 1 if m["better"] == "higher" else -1
    cell = {}
    for s, results in side.items():
        v = [value(r, name) for r in results]
        q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
        cell[s] = (med, f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
    won = sum(sign * (value(c, name) - value(p, name)) > 0 for p, c in zip(side["parent"], side["change"]))
    ratio = cell["change"][0] / cell["parent"][0] if cell["parent"][0] else float("nan")
    print(f"| `{name}` ({m['unit']}) | {cell['parent'][1]} | {cell['change'][1]} | × {ratio:.3f} | {won} / {len(side['parent'])} |")
failed = {s: sum(r["failed"] for r in side[s]) for s in side}
correct = all(r["correct"] for s in side for r in side[s])
print(f"\nfailed operations: parent {failed['parent']}, change {failed['change']}; every run correct: {str(correct).lower()}")
EOF
