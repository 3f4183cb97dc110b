//! **Ablation — telemetry overhead.**
//!
//! The collector must be free when nobody is watching: with telemetry
//! disabled, every instrumentation site is one relaxed atomic load and an
//! early return, and `Span::start` never reads the clock. This bench makes
//! that budget concrete:
//!
//! * measures the disabled per-op cost directly (a counter bump, a
//!   histogram observation and a span open/close in a tight loop),
//! * counts how many telemetry ops one verify+serve flow actually
//!   executes (by running it once with the collector enabled),
//! * asserts `ops × disabled-op cost ≤ 1%` of the measured verify+serve
//!   wall time — the headroom is typically several orders of magnitude,
//! * spot-checks that the verdict and the run report are bit-identical
//!   with the collector on and off.

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_bench::{median_flow_time, verify_and_serve, OVERHEAD_WORKLOAD};
use deflection_core::policy::PolicySet;
use deflection_core::producer::produce;
use deflection_telemetry::{Collector, Counter, Histogram, Span, METRICS};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Disabled-path cost of one instrumentation op, averaged over a tight
/// loop mixing the three site shapes (counter, histogram, span).
fn disabled_op_ns() -> f64 {
    static COUNTER: Counter = Counter::new("bench_probe_total", "");
    static HIST: Histogram = Histogram::new("bench_probe_ns", "");
    Collector::disable();
    const ITERS: u64 = 1_000_000;
    let start = Instant::now();
    for i in 0..ITERS {
        COUNTER.add(1);
        HIST.observe(i);
        let span = Span::start(&HIST);
        black_box(&span);
        drop(span);
    }
    // Three ops per iteration.
    start.elapsed().as_secs_f64() * 1e9 / (ITERS as f64 * 3.0)
}

fn print_table() {
    println!("\n=== Ablation: telemetry collector overhead on verify+serve ===\n");
    let policy = PolicySet::full();
    let binary = produce(OVERHEAD_WORKLOAD, &policy).expect("compiles").serialize();

    // Verdict/report equality across collector states.
    Collector::disable();
    let off_report = format!("{:?}", verify_and_serve(&binary));
    Collector::enable();
    let on_report = format!("{:?}", verify_and_serve(&binary));
    assert_eq!(off_report, on_report, "collector state changed an observable result");

    // Ops per flow: run once with a clean enabled collector and count the
    // metric *operations* crossed, not the events they carry — the VM
    // flushes hardware-model counters as one `add(delta)` per run, which
    // is one disabled-path load however many thousand events the delta
    // holds.
    Collector::enable();
    Collector::reset();
    let _ = verify_and_serve(&binary);
    let ops = Collector::op_count();
    Collector::disable();

    let op_ns = disabled_op_ns();
    let flow_off = median_flow_time(&binary, 5);
    Collector::enable();
    let flow_on = median_flow_time(&binary, 5);
    Collector::disable();

    let disabled_cost_ns = ops as f64 * op_ns;
    let budget_ns = flow_off.as_secs_f64() * 1e9 * 0.01;
    println!("{:<44} {:>14}", "verify+serve median (collector off)", format!("{flow_off:?}"));
    println!("{:<44} {:>14}", "verify+serve median (collector on)", format!("{flow_on:?}"));
    println!("{:<44} {:>14}", "telemetry ops per flow", ops);
    println!("{:<44} {:>11.3} ns", "disabled cost per op", op_ns);
    println!(
        "{:<44} {:>11.3} µs  (1% budget: {:.1} µs)",
        "disabled telemetry cost per flow",
        disabled_cost_ns / 1e3,
        budget_ns / 1e3
    );
    assert!(ops > 0, "the flow must actually cross instrumentation sites");
    assert!(
        disabled_cost_ns <= budget_ns,
        "disabled telemetry exceeds the 1% budget: {disabled_cost_ns:.0} ns of \
         {budget_ns:.0} ns over {ops} ops"
    );
    println!(
        "\nOK: disabled collector costs {:.4}% of the flow (budget 1%).\n",
        disabled_cost_ns / (flow_off.as_secs_f64() * 1e9) * 100.0
    );
}

fn bench(c: &mut Criterion) {
    print_table();
    let policy = PolicySet::full();
    let binary = produce(OVERHEAD_WORKLOAD, &policy).expect("compiles").serialize();
    Collector::disable();
    c.bench_function("telemetry/verify_serve/off", |b| {
        b.iter(|| black_box(verify_and_serve(&binary)))
    });
    Collector::enable();
    c.bench_function("telemetry/verify_serve/on", |b| {
        b.iter(|| black_box(verify_and_serve(&binary)))
    });
    Collector::disable();
    c.bench_function("telemetry/disabled_op", |b| {
        b.iter(|| {
            METRICS.pool_work_queue_claims.add(1);
            black_box(&METRICS.pool_work_queue_claims);
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
