//! **Ablation — flight-recorder overhead.**
//!
//! The flight recorder must be free when nobody is watching: with
//! recording disabled, every `record`/`record_ambient` site is one
//! relaxed atomic load and an early return, and `TraceId::mint` never
//! touches the mint counter. Same methodology as `ablation_telemetry`:
//!
//! * measures the disabled per-record cost in a tight loop,
//! * counts how many recorder ops one verify+serve flow executes (by
//!   running it once with the recorder enabled),
//! * asserts `ops × disabled-record cost ≤ 1%` of the measured
//!   verify+serve wall time,
//! * spot-checks that the verdict and the run report are bit-identical
//!   with the recorder on and off.
//!
//! Every flow here is single-threaded (a 1-worker pool serves on the
//! calling thread), so — like the telemetry and
//! icache ablations — these assertions carry **no core-count gate** and
//! the trend gate enforces them on any host.

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_bench::{median_flow_time, verify_and_serve, OVERHEAD_WORKLOAD};
use deflection_core::policy::PolicySet;
use deflection_core::producer::produce;
use deflection_telemetry::flightrec::{self, EventKind};
use deflection_telemetry::{FlightRecorder, TraceId};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Disabled-path cost of one recorder op, averaged over a tight loop
/// mixing the site shapes (explicit record, ambient record, mint).
fn disabled_record_ns() -> f64 {
    FlightRecorder::disable();
    const ITERS: u64 = 1_000_000;
    let start = Instant::now();
    for i in 0..ITERS {
        flightrec::record(EventKind::Run, TraceId::NONE, i, 0);
        flightrec::record_ambient(EventKind::Seal, i, 0);
        black_box(TraceId::mint());
    }
    // Three ops per iteration.
    start.elapsed().as_secs_f64() * 1e9 / (ITERS as f64 * 3.0)
}

fn print_table() {
    println!("\n=== Ablation: flight-recorder overhead on verify+serve ===\n");
    let policy = PolicySet::full();
    let binary = produce(OVERHEAD_WORKLOAD, &policy).expect("compiles").serialize();

    // Verdict/report equality across recorder states.
    FlightRecorder::disable();
    let off_report = format!("{:?}", verify_and_serve(&binary));
    FlightRecorder::enable();
    let on_report = format!("{:?}", verify_and_serve(&binary));
    FlightRecorder::disable();
    assert_eq!(off_report, on_report, "recorder state changed an observable result");

    // Recorder ops per flow, from a clean enabled recorder.
    FlightRecorder::reset();
    FlightRecorder::enable();
    let _ = verify_and_serve(&binary);
    let ops = FlightRecorder::op_count();
    FlightRecorder::disable();

    let op_ns = disabled_record_ns();
    let flow_off = median_flow_time(&binary, 5);
    FlightRecorder::enable();
    let flow_on = median_flow_time(&binary, 5);
    FlightRecorder::disable();

    let disabled_cost_ns = ops as f64 * op_ns;
    let budget_ns = flow_off.as_secs_f64() * 1e9 * 0.01;
    println!("{:<44} {:>14}", "verify+serve median (recorder off)", format!("{flow_off:?}"));
    println!("{:<44} {:>14}", "verify+serve median (recorder on)", format!("{flow_on:?}"));
    println!("{:<44} {:>14}", "recorder ops per flow", ops);
    println!("{:<44} {:>11.3} ns", "disabled cost per record", op_ns);
    println!(
        "{:<44} {:>11.3} µs  (1% budget: {:.1} µs)",
        "disabled recorder cost per flow",
        disabled_cost_ns / 1e3,
        budget_ns / 1e3
    );
    assert!(ops > 0, "the flow must actually cross recorder sites");
    assert!(
        disabled_cost_ns <= budget_ns,
        "disabled recorder exceeds the 1% budget: {disabled_cost_ns:.0} ns of \
         {budget_ns:.0} ns over {ops} ops"
    );
    println!(
        "\nOK: disabled recorder costs {:.4}% of the flow (budget 1%).\n",
        disabled_cost_ns / (flow_off.as_secs_f64() * 1e9) * 100.0
    );
}

fn bench(c: &mut Criterion) {
    print_table();
    let policy = PolicySet::full();
    let binary = produce(OVERHEAD_WORKLOAD, &policy).expect("compiles").serialize();
    FlightRecorder::disable();
    c.bench_function("flightrec/verify_serve/off", |b| {
        b.iter(|| black_box(verify_and_serve(&binary)))
    });
    FlightRecorder::enable();
    c.bench_function("flightrec/verify_serve/on", |b| {
        b.iter(|| black_box(verify_and_serve(&binary)))
    });
    FlightRecorder::disable();
    c.bench_function("flightrec/disabled_record", |b| {
        b.iter(|| {
            flightrec::record(EventKind::Claim, TraceId::NONE, 1, 2);
            black_box(());
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
