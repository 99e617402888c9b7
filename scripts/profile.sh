#!/bin/sh
# A sampling profile of one benchmark workload, for sizing an issue before
# anyone edits the code (EXPERIMENTS.md P6 and P7 have them before and
# after).
#
#   scripts/profile.sh <workload> [seconds] [cpu|alloc|bytes] [seed]
#
# seconds defaults to 10, the mode to cpu, the seed to 7. Builds perf/
# with frame pointers into target/profile (its own CARGO_TARGET_DIR, so
# the benchmark's own build is untouched), builds the sampler
# (scripts/profile-sampler.c) with the system `cc` into a temporary
# directory, runs the workload's untraced pass once with the sampler
# LD_PRELOADed, and prints scripts/profile-report.py's tables: each
# function's self and inclusive share of the samples under the
# workload's root, time in libc charged to its caller in the binary, and
# the self time of functions called from another crate. The root is
# `Cluster::step_until` for the four cluster workloads and perf's
# `run_round` for unreplicated_rpc (its `rpc_round` is inlined there);
# the report exits 1 if the root is missing from the binary or holds
# under a tenth of the samples, which is how a rename shows. cpu
# asks for a sample every millisecond of CPU time (the kernel rounds that
# to its tick, 4 ms on the sandbox); alloc takes every 16th malloc,
# calloc or realloc; bytes takes one sample per 256 KiB those calls ask
# for, so a call weighs as much as it asks for. alloc ranks what
# allocates often (on active_frag, BTreeMap entries), bytes what
# allocates much (the reassembly buffers). A fill of the sampler's
# 32 MB buffer is reported: use fewer seconds.
#
# Two caveats. libc's own symbol table is stripped, so its unexported
# internals (`__memmove_avx_unaligned_erms` behind memcpy, `_int_malloc`,
# `_int_free`) each resolve to the exported symbol below them, which is
# why the report gives libc one total rather than trusting its names.
# And those internals keep no frame pointer, so a walk that starts inside
# one skips its immediate caller: its time lands on the caller's caller
# (std, built without frame pointers, can do the same one level up).
set -eu
here=$(cd "$(dirname "$0")/.." && pwd)
workload=$1
seconds=${2:-10}
mode=${3:-cpu}
seed=${4:-7}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cc -O2 -shared -fPIC -fno-omit-frame-pointer -o "$tmp/sampler.so" "$here/scripts/profile-sampler.c"
CARGO_TARGET_DIR="$here/target/profile" RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --release --quiet --manifest-path "$here/perf/Cargo.toml"
binary="$here/target/profile/release/perf"
(cd "$here" && PROFILE_MODE="$mode" PROFILE_OUT="$tmp/samples" LD_PRELOAD="$tmp/sampler.so" \
    "$binary" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 > "$tmp/perf.out")
case $workload in
unreplicated_rpc) root=perf::workloads::run_round ;;
*) root=eternal::cluster::Cluster::step_until ;;
esac
echo "scripts/profile.sh $workload $seconds $mode $seed: $(tail -n 1 "$tmp/perf.out" | cut -c1-80)..."
python3 "$here/scripts/profile-report.py" "$tmp/samples" "$binary" "$root"
