#!/usr/bin/env bash
# Paired A/B runs of the repository benchmark: a base revision against
# this checkout.
#
#   scripts/ab.sh <base-rev> <workload> <pairs> [first-seed]
#
# Exports <base-rev> with `git archive` into target/ab/<rev>/ (an export
# leaves the repository's refs and worktree list untouched) and builds the
# benchmark there and here offline, from the vendored crates and the
# committed lockfiles. Then it runs the BENCHMARK.json command
# `<pairs>` times on each side, pair k with seed first-seed + k (default
# first seed 1), alternating which side goes first. Each run lasts
# BENCHMARK.json's run_seconds.
#
# Per end-to-end metric it prints each side's median and quartiles
# (Python's statistics.quantiles, n=4), the change of the median, how many
# pairs the change won with a two-sided sign-test p-value, and
# "unresolved" when the base's own spread (IQR / median) exceeds the
# metric's BENCHMARK.json bound: such a metric cannot show a change of
# that size either way. Below the table it prints each side's median
# `attempted` (requests or onboardings offered in the run): metrics such as
# peak_rss_mb move with it, so a change in throughput shows there. Every
# run's result line is kept in
# target/ab/<workload>-<rev>.jsonl for later tables. A run that is not
# `correct: true` aborts the script.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/ab.sh <base-rev> <workload> <pairs> [first-seed]" >&2
    exit 2
fi
base_rev=$(git rev-parse --short "$1^{commit}")
workload=$2
pairs=$3
first_seed=${4:-1}
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
mapfile -t command < <(jq -r '.command[]' BENCHMARK.json)

base_dir="$root/target/ab/$base_rev"
if [ ! -d "$base_dir" ]; then
    mkdir -p "$base_dir.tmp"
    git archive "$base_rev" | tar -x -C "$base_dir.tmp"
    mv "$base_dir.tmp" "$base_dir"
fi

manifest=$(jq -r '.command | index("--manifest-path") as $i | .[$i + 1]' BENCHMARK.json)
for dir in "$base_dir" "$root"; do
    echo "==> building the benchmark in $dir" >&2
    (cd "$dir" && cargo build --release --offline -q --manifest-path "$manifest")
done

log="$root/target/ab/$workload-$base_rev.jsonl"
: >"$log"

# Runs one side; appends {"side", "seed", "attempted", "metrics"} to the log.
run_side() {
    local side=$1 dir=$2 seed=$3 out last
    out=$(cd "$dir" && "${command[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds")
    last=$(tail -n 1 <<<"$out")
    if [ "$(jq -r '.correct' <<<"$last")" != "true" ]; then
        echo "$side run (seed $seed) is not correct:" >&2
        echo "$out" >&2
        exit 1
    fi
    jq -c --arg side "$side" --argjson seed "$seed" \
        '{side: $side, seed: $seed, attempted: .attempted, metrics: (.metrics | map_values(.value))}' \
        <<<"$last" >>"$log"
    echo "    $side seed $seed: attempted $(jq -c '.attempted' <<<"$last")" \
        "$(jq -c '.metrics | map_values(.value)' <<<"$last")" >&2
}

for ((k = 0; k < pairs; k++)); do
    seed=$((first_seed + k))
    echo "==> pair $((k + 1))/$pairs (seed $seed)" >&2
    if ((k % 2 == 0)); then
        run_side base "$base_dir" "$seed"
        run_side change "$root" "$seed"
    else
        run_side change "$root" "$seed"
        run_side base "$base_dir" "$seed"
    fi
done

python3 - "$log" BENCHMARK.json "$workload" "$base_rev" <<'EOF'
import json, math, statistics, sys

log, bench, workload, base_rev = sys.argv[1:]
runs = [json.loads(line) for line in open(log)]
spec = json.load(open(bench))["end_to_end"]
by_side = {"base": {}, "change": {}}
attempted = {"base": {}, "change": {}}
for r in runs:
    by_side[r["side"]][r["seed"]] = r["metrics"]
    attempted[r["side"]][r["seed"]] = r["attempted"]
seeds = sorted(set(by_side["base"]) & set(by_side["change"]))


def quart(vs):
    if len(vs) < 2:
        return vs[0], vs[0]
    q = statistics.quantiles(vs, n=4)
    return q[0], q[2]


def sign_p(wins, losses):
    # Two-sided sign test over the pairs that differ (ties dropped).
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    return min(1.0, 2 * sum(math.comb(n, i) for i in range(k + 1)) / 2**n)


print(f"{workload}: base {base_rev} vs change, {len(seeds)} pairs (seeds {seeds[0]}-{seeds[-1]})")
print(f"{'metric':<15} {'base median [q1, q3]':<30} {'change median [q1, q3]':<30} "
      f"{'delta':>8} {'wins':>6} {'sign p':>7}  note")
for m in spec:
    name, lower = m["name"], m["better"] == "lower"
    pairs = [(by_side["base"][s][name], by_side["change"][s][name]) for s in seeds
             if name in by_side["base"][s] and name in by_side["change"][s]]
    if not pairs:
        continue
    b = [p[0] for p in pairs]
    c = [p[1] for p in pairs]
    better = lambda bv, cv: cv < bv if lower else cv > bv
    wins = sum(better(bv, cv) for bv, cv in pairs)
    losses = sum(better(cv, bv) for bv, cv in pairs)
    bm, cm = statistics.median(b), statistics.median(c)
    (b1, b3), (c1, c3) = quart(b), quart(c)
    delta = (cm - bm) / abs(bm) if bm else 0.0
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    note = "unresolved" if spread > m["bound"] else ""
    base_col = f"{bm:.4g} [{b1:.4g}, {b3:.4g}]"
    change_col = f"{cm:.4g} [{c1:.4g}, {c3:.4g}]"
    print(f"{name:<15} {base_col:<30} {change_col:<30} {delta:>+8.1%} "
          f"{wins:>3}/{len(pairs):<2} {sign_p(wins, losses):>7.3f}  {note}")

# Offered work per run, beside the metrics it drives (peak_rss_mb grows
# with the requests a run serves).
att = {side: [attempted[side][s] for s in seeds] for side in ("base", "change")}
(a1, a3), (d1, d3) = quart(att["base"]), quart(att["change"])
am, dm = statistics.median(att["base"]), statistics.median(att["change"])
base_col = f"{am:.6g} [{a1:.6g}, {a3:.6g}]"
change_col = f"{dm:.6g} [{d1:.6g}, {d3:.6g}]"
print(f"{'attempted':<15} {base_col:<30} {change_col:<30} {(dm - am) / am if am else 0.0:>+8.1%}")
EOF
