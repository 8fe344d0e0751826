#!/bin/sh
# Alternating A/B runs of the benchmark that BENCHMARK.json declares: the
# committed tree at REV (A) against the working tree (B).
#
#   sh scripts/bench_pairs.sh REV WORKLOAD N [SECONDS [SEED]]
#
# Exports REV with `git archive` into .bench_build/src-<rev> and builds
# each side's benchmark offline into its own target directory under
# .bench_build/ (ignored by git), once, before any timed run. Then runs N
# pairs of `<command> --workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0`, A first in even pairs and B first in odd ones, each in its
# own tree. SECONDS defaults to BENCHMARK.json's `run_seconds`, SEED
# to 1. Prints every run's end-to-end metrics beside its raw wall job and
# calibration medians, then per metric the median and q1–q3 of each
# side and the pairs B won, then each side's median of the two raw
# times. A normalized gain with a flat raw job time and a slower
# calibration is a calibration-kernel shift, not a simulator speedup.
# So it last prints, per pair, B's normalized `jobs_per_s` change beside
# its raw wall job-median speed change (A's raw job time over B's, so a
# positive figure is faster in both), counts the pairs whose two changes
# disagree in sign, and warns when the two medians do.
# Needs python3 for the JSON.
set -eu

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    echo "usage: $0 REV WORKLOAD N [SECONDS [SEED]]" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=$3
root=$(git rev-parse --show-toplevel)
cd "$root"
commit=$(git rev-parse --verify "$rev^{commit}")
short=$(git rev-parse --short "$commit")
build="$root/.bench_build"
base="$build/src-$short"
out="$build/pairs-$short-$workload-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$build" "$out"

# The benchmark command and run length, read from the working tree's
# BENCHMARK.json; one argument per line.
cmd_file="$out/command"
python3 -c '
import json, sys
b = json.load(open("BENCHMARK.json"))
print("\n".join(b["command"]))
print(b["run_seconds"], file=sys.stderr)
' >"$cmd_file" 2>"$out/run_seconds"
seconds=${4:-$(cat "$out/run_seconds")}
seed=${5:-1}

if [ ! -d "$base" ]; then
    mkdir -p "$base.tmp"
    git archive "$commit" | tar -x -C "$base.tmp"
    mv "$base.tmp" "$base"
fi

# run TREE TARGET LABEL SECONDS [FLAG...]: one benchmark run in TREE
# built into TARGET, its output kept in $out/LABEL.log.
run() {
    tree=$1
    target=$2
    label=$3
    secs=$4
    shift 4
    (
        cd "$tree"
        flags="$*"
        set --
        while IFS= read -r arg; do set -- "$@" "$arg"; done <"$cmd_file"
        # shellcheck disable=SC2086
        CARGO_TARGET_DIR="$target" "$@" --workload "$workload" --seed "$seed" \
            --seconds "$secs" --trace 0 $flags
    ) >"$out/$label.log" 2>&1
}

# The raw wall times of a run's summary line, in ms.
raw_times='wall: job median ([0-9.]+) ms.*calibration median ([0-9.]+) ms'

# summary LOG: the result line of one run, as `name=value` pairs, and
# the raw wall job and calibration medians of its summary line.
summary() {
    python3 - "$1" "$raw_times" <<'PY'
import json, re, sys
try:
    with open(sys.argv[1]) as f:
        lines = f.read().strip().splitlines()
    r = json.loads(lines[-1])
except (OSError, ValueError, IndexError):
    print("no result line")
else:
    m = " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items())
    raw = next((g for g in map(re.compile(sys.argv[2]).search, lines) if g), None)
    raw = f" job_ms={raw[1]} cal_ms={raw[2]}" if raw else " no summary line"
    print(f"correct={r['correct']} failed={r['failed']} {m}{raw}")
PY
}

tree_of() {
    if [ "$1" = A ]; then echo "$base"; else echo "$root"; fi
}

# Build both sides first with a smoke-size run, so no timed run pays for
# compilation.
for side in A B; do
    echo "building $side ($(tree_of $side))"
    run "$(tree_of $side)" "$build/target-$side" "build-$side" 1 --smoke || {
        echo "build or smoke run of $side failed; see $out/build-$side.log" >&2
        exit 1
    }
done

i=0
while [ $i -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then order="A B"; else order="B A"; fi
    for side in $order; do
        run "$(tree_of $side)" "$build/target-$side" "$side-$i" "$seconds" ||
            echo "run $side-$i failed" >&2
        printf 'pair %s %s: ' "$i" "$side"
        summary "$out/$side-$i.log"
    done
    i=$((i + 1))
done

python3 - "$out" "$pairs" "$raw_times" <<'EOF'
import json, re, sys
out, pairs, raw_times = sys.argv[1], int(sys.argv[2]), re.compile(sys.argv[3])
bench = json.load(open("BENCHMARK.json"))

def lines(label):
    try:
        with open(f"{out}/{label}.log") as f:
            return f.read().strip().splitlines()
    except OSError:
        return []

def result(label):
    try:
        return json.loads(lines(label)[-1])
    except (ValueError, IndexError):
        return None

def raw(label):
    """(job median, calibration median) in ms from the summary line."""
    for line in lines(label):
        if m := raw_times.search(line):
            return float(m[1]), float(m[2])
    return None

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

runs = {s: [result(f"{s}-{i}") for i in range(pairs)] for s in "AB"}
for s in "AB":
    bad = sum(1 for r in runs[s] if r is None or not r["correct"] or r["failed"])
    print(f"{s}: {pairs - bad} of {pairs} runs correct with no failed operation")
for m in bench["end_to_end"]:
    name, better = m["name"], m["better"]
    vals = {s: [r["metrics"][name]["value"] if r else None for r in runs[s]] for s in "AB"}
    won = sum(
        1
        for a, b in zip(vals["A"], vals["B"])
        if a is not None and b is not None and (b > a if better == "higher" else b < a)
    )
    print(f"{name} ({m['unit']}, {better} is better, bound {m['bound']:.0%})")
    med = {}
    for s in "AB":
        xs = [v for v in vals[s] if v is not None]
        if not xs:
            print(f"  {s}: no runs")
            continue
        med[s] = quantile(xs, 0.5)
        print(
            f"  {s}: median {med[s]:.4g}  q1 {quantile(xs, 0.25):.4g}  q3 {quantile(xs, 0.75):.4g}"
            f"  runs {' '.join(f'{x:.4g}' for x in xs)}"
        )
    if len(med) == 2 and med["A"]:
        print(f"  B/A median {med['B'] / med['A'] - 1:+.2%}; B better in {won} of {pairs} pairs")
print("raw wall medians (ms, not normalized)")
for s in "AB":
    times = [t for t in (raw(f"{s}-{i}") for i in range(pairs)) if t]
    if not times:
        print(f"  {s}: no summary lines")
        continue
    job, cal = zip(*times)
    print(f"  {s}: job {quantile(job, 0.5):.3f}  calibration {quantile(cal, 0.5):.3f}")

# Normalized against raw, pair by pair: a change that only the
# calibration normalization shows has opposite signs here.
print("jobs_per_s change (normalized) beside raw job speed change, B against A")
norm, rawc = [], []
for i in range(pairs):
    a, b = result(f"A-{i}"), result(f"B-{i}")
    ta, tb = raw(f"A-{i}"), raw(f"B-{i}")
    if not (a and b and ta and tb):
        print(f"  pair {i}: incomplete")
        continue
    n = b["metrics"]["jobs_per_s"]["value"] / a["metrics"]["jobs_per_s"]["value"] - 1
    r = ta[0] / tb[0] - 1
    norm.append(n)
    rawc.append(r)
    flag = "  signs disagree" if n * r < 0 else ""
    print(f"  pair {i}: normalized {n:+.2%}  raw {r:+.2%}{flag}")
if norm:
    split = sum(1 for n, r in zip(norm, rawc) if n * r < 0)
    print(f"  signs disagree in {split} of {len(norm)} pairs")
    med_n, med_r = quantile(norm, 0.5), quantile(rawc, 0.5)
    print(f"  medians: normalized {med_n:+.2%}  raw {med_r:+.2%}")
    if med_n * med_r < 0:
        print("  WARNING: the normalized and raw medians disagree in sign; "
              "the normalized change may be a calibration-kernel shift")
EOF
echo "logs in $out"
