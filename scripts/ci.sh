#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 test suite.
# Run from anywhere; operates on the repository root.
#
# Bench smoke mode: `scripts/ci.sh --smoke` (or BENCH_SMOKE=1) additionally
# runs every Criterion bench target once in --quick mode and captures its
# output as target/bench-smoke/BENCH_<name>.json (also copied to the repo
# root), so CI catches bench bit-rot (panicking asserts, broken tables)
# without paying for a full measurement run. Each smoke run also writes a
# telemetry snapshot (target/bench-smoke/METRICS_smoke.json), a validated
# chrome://tracing export of the demo batch (TRACE_smoke.json), one
# sampling-profiler pass (PROFILE_smoke.log), and prints the trend report
# against the committed repo-root series; add `--trend` to make a
# regression past the threshold fail the build.
set -euo pipefail

cd "$(dirname "$0")/.."

SMOKE="${BENCH_SMOKE:-0}"
TREND_ENFORCE=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        --trend) SMOKE=1; TREND_ENFORCE=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The fault-injection suites run as part of `cargo test` above, but tier-1
# names them explicitly so a packaging/bin-filter regression that silently
# drops them is caught here.
echo "==> tier-1: chaos/fault-injection suite (pool_chaos, sealed_install)"
cargo test -q -p deflection-core --test pool_chaos --test sealed_install

# perfbench is a standalone package (its own workspace and lockfile), so
# the workspace commands above never compile it; it builds against the
# pool and admission APIs by path, and its oracles pin serving verdicts.
echo "==> tier-1: perfbench's own tests (standalone package)"
cargo test -q --release --manifest-path perfbench/Cargo.toml

# Elision-precision ratchet: the test regenerates PRECISION.json and fails
# if any program proves fewer guards than the committed baseline. The diff
# below closes the other direction — an *improvement* (or any drift) must
# be committed as the new baseline, or the ratchet quietly stops ratcheting.
echo "==> tier-1: precision ratchet (PRECISION.json vs PRECISION.baseline.json)"
cargo test -q --test precision_ratchet || {
    echo "precision ratchet failed:" >&2
    echo "  if the regression is intended, review PRECISION.json, then:" >&2
    echo "  cp PRECISION.json PRECISION.baseline.json" >&2
    exit 1
}
if ! diff -u PRECISION.baseline.json PRECISION.json; then
    echo "precision drifted from the committed baseline:" >&2
    echo "  review the diff, then: cp PRECISION.json PRECISION.baseline.json" >&2
    exit 1
fi

if [ "$SMOKE" = "1" ]; then
    echo "==> bench smoke (--quick, one pass per target)"
    mkdir -p target/bench-smoke
    # Host context stamped into every BENCH file: the trend reporter only
    # enforces regressions between runs with the same core count.
    CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
    benches=$(sed -n 's/^name = "\(.*\)"$/\1/p' crates/bench/Cargo.toml | tail -n +2)
    for bench in $benches; do
        echo "==> bench smoke: $bench"
        log="target/bench-smoke/BENCH_${bench}.log"
        cargo bench -p deflection-bench --bench "$bench" -- --quick >"$log" 2>&1 || {
            cat "$log"
            echo "bench smoke failed: $bench" >&2
            exit 1
        }
        # Emit a machine-readable summary per bench — name, status, host
        # stamp, and the one-line JSON measurement objects the Criterion
        # shim printed — and copy it to the repo root so the trajectory is
        # visible outside gitignored target/.
        json="target/bench-smoke/BENCH_${bench}.json"
        {
            printf '{\n  "bench": "%s",\n  "status": "ok",\n' "$bench"
            printf '  "host": {"available_parallelism": %s, "smoke": true, "quick": true},\n' "$CORES"
            printf '  "measurements": [\n'
            { grep '^{"id": ' "$log" || true; } | sed -e 's/^/    /' -e '$!s/$/,/'
            printf '  ]\n}\n'
        } >"$json"
        count=$(grep -c '^{"id": ' "$log" || true)
        echo "    wrote $json ($count measurements)"
    done

    echo "==> telemetry snapshot (metrics_snapshot, with chrome-trace export)"
    cargo run -q --release --bin metrics_snapshot -- -o target/bench-smoke/METRICS_smoke.json \
        --trace-out target/bench-smoke/TRACE_smoke.json \
        >target/bench-smoke/METRICS_smoke.log 2>&1 || {
        cat target/bench-smoke/METRICS_smoke.log
        echo "metrics snapshot failed" >&2
        exit 1
    }
    # metrics_snapshot validates the trace before writing it; re-check here
    # with an independent parser when one is available.
    if command -v python3 >/dev/null 2>&1; then
        python3 -c 'import json,sys; json.load(open(sys.argv[1]))' \
            target/bench-smoke/TRACE_smoke.json || {
            echo "TRACE_smoke.json is not valid JSON" >&2
            exit 1
        }
    fi
    echo "    wrote target/bench-smoke/METRICS_smoke.json + TRACE_smoke.json"

    echo "==> sampling profiler (profile, one kernel)"
    cargo run -q --release --bin profile -- --kernel "NUMERIC SORT" \
        >target/bench-smoke/PROFILE_smoke.log 2>&1 || {
        cat target/bench-smoke/PROFILE_smoke.log
        echo "profile smoke failed" >&2
        exit 1
    }
    echo "    wrote target/bench-smoke/PROFILE_smoke.log"

    echo "==> closed-loop load harness (loadgen --quick, >=10^5 simulated clients)"
    cargo run -q --release --bin loadgen -- --quick \
        --metrics-out target/bench-smoke/METRICS_loadgen.json \
        >target/bench-smoke/LOADGEN_smoke.log 2>&1 || {
        cat target/bench-smoke/LOADGEN_smoke.log
        echo "loadgen smoke failed (bounded-tail acceptance or harness error)" >&2
        exit 1
    }
    echo "    wrote target/bench-smoke/METRICS_loadgen.json + LOADGEN_smoke.log"

    echo "==> trend report (current: target/bench-smoke, previous: repo root)"
    if [ "$TREND_ENFORCE" = "1" ]; then
        cargo run -q --release --bin trend -- --enforce
    else
        cargo run -q --release --bin trend || true
    fi

    # Refresh the repo-root baseline only AFTER the trend comparison (and,
    # under --trend, only when it passed — set -e aborts above otherwise):
    # copying earlier would overwrite the very series `trend` diffs against,
    # turning every delta into 0% and making the regression gate vacuous.
    for bench in $benches; do
        cp "target/bench-smoke/BENCH_${bench}.json" "BENCH_${bench}.json"
    done
    echo "    refreshed repo-root BENCH_*.json baseline"
fi

echo "==> CI green"
