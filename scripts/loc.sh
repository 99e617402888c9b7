#!/bin/sh
# Non-test source lines per crate: for every .rs file under crates/*/src,
# the lines before its first `#[cfg(test)]` (the whole file if it has
# none). The count the S-series entries of EXPERIMENTS.md quote.
#
#   scripts/loc.sh            per-crate totals
#   scripts/loc.sh -v         per-file lines as well
set -eu
cd "$(dirname "$0")/.."
verbose=${1:-}
total=0
for crate in crates/*; do
    name=${crate#crates/}
    sum=0
    for f in $(find "$crate/src" -name '*.rs' | sort); do
        n=$(awk '/#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        sum=$((sum + n))
        if [ "$verbose" = "-v" ]; then
            printf '  %6d  %s\n' "$n" "${f#./}"
        fi
    done
    printf '%-10s %6d\n' "$name" "$sum"
    total=$((total + sum))
done
printf '%-10s %6d\n' total "$total"
