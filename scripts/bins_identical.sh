#!/bin/sh
# Checks that every `cml-bench` binary prints the same stdout at the
# committed tree REV (A) as in the working tree (B).
#
#   sh scripts/bins_identical.sh REV
#
# Exports REV with `git archive` into .bench_build/src-<rev>, as
# bench_pairs.sh does, and builds each side's `cml-bench` binaries in
# release, offline, into its own target directory under .bench_build/
# (ignored by git). Then runs every binary of the working tree on both
# sides, passing `--threads 1` to the sweeps that read the flag (their
# reports name the thread count), and diffs the two stdouts. Prints one
# line per binary and exits 1 when any binary differs or fails on
# either side. Each side's stdout and stderr stay in the run directory
# the script names.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 REV" >&2
    exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
cd "$root"
commit=$(git rev-parse --verify "$rev^{commit}")
short=$(git rev-parse --short "$commit")
build="$root/.bench_build"
base="$build/src-$short"
out="$build/bins-$short-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$build" "$out"

if [ ! -d "$base" ]; then
    mkdir -p "$base.tmp"
    git archive "$commit" | tar -x -C "$base.tmp"
    mv "$base.tmp" "$base"
fi

tree_of() {
    if [ "$1" = A ]; then echo "$base"; else echo "$root"; fi
}

for side in A B; do
    echo "building $side ($(tree_of "$side"))"
    (
        cd "$(tree_of "$side")"
        CARGO_TARGET_DIR="$build/bins-target-$side" \
            cargo build --release --offline --quiet -p cml-bench --bins
    ) >"$out/build-$side.log" 2>&1 || {
        echo "build of $side failed; see $out/build-$side.log" >&2
        exit 1
    }
done

differ=0
for src in "$root"/crates/bench/src/bin/*.rs; do
    bin=$(basename "$src" .rs)
    flags=
    if grep -q threads_flag "$src"; then flags="--threads 1"; fi
    status=same
    for side in A B; do
        # shellcheck disable=SC2086
        if ! "$build/bins-target-$side/release/$bin" $flags \
            >"$out/$side-$bin.out" 2>"$out/$side-$bin.err"; then
            status="failed on $side"
        fi
    done
    if [ "$status" = same ] && ! cmp -s "$out/A-$bin.out" "$out/B-$bin.out"; then
        status="DIFFERS ($(diff "$out/A-$bin.out" "$out/B-$bin.out" | grep -c '^[<>]') lines)"
    fi
    [ "$status" = same ] || differ=1
    echo "$bin${flags:+ $flags}: $status"
done

if [ $differ -ne 0 ]; then
    echo "stdout differs from $short; see $out" >&2
    exit 1
fi
echo "all binaries print byte-identical stdout to $short"
