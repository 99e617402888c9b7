#!/bin/sh
# Appends one line to PERF_HISTORY.jsonl: the repository's benchmark
# (BENCHMARK.json) run once, untraced, on every workload at this
# checkout — the host-time trajectory ROADMAP item 2c asks for, one line
# per performance PR.
#
#   scripts/perf-history.sh [seed]        seed defaults to 42
#
# The command, the run length and the workload names are read from
# BENCHMARK.json; each workload's entry is the last line of that run's
# standard output, verbatim (`correct`, `attempted`, `failed` and the
# twelve end-to-end metrics). `commit` is HEAD; a line measured with
# uncommitted changes in the tree reads `<HEAD>+dirty` and belongs to the
# commit that adds it. One run per workload, so host-time metrics carry
# the machine's run-to-run noise (5-15 % on a two-core sandbox); counts
# and simulated metrics repeat exactly. Takes about 2.5 minutes.
set -eu
cd "$(dirname "$0")/.."
seed=${1:-42}
manifest() {
    python3 -c "import json, sys; b = json.load(open('BENCHMARK.json')); print($1)"
}
command=$(manifest "' '.join(b['command'])")
seconds=$(manifest "b['run_seconds']")
workloads=$(manifest "' '.join(w['name'] for w in b['workloads'])")
commit=$(git rev-parse --short HEAD)
git diff --quiet HEAD || commit="$commit+dirty"
line="{\"commit\": \"$commit\", \"seed\": $seed, \"seconds\": $seconds, \"workloads\": {"
sep=""
for workload in $workloads; do
    echo "perf-history: $workload" >&2
    result=$($command --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)
    line="$line$sep\"$workload\": $result"
    sep=", "
done
printf '%s}}\n' "$line" >> PERF_HISTORY.jsonl
echo "perf-history: appended $commit (seed $seed, $seconds s per workload) to PERF_HISTORY.jsonl" >&2
