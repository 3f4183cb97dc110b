//! **Fig. 10** — HTTPS server response time and throughput vs concurrency.
//!
//! The paper drives its in-enclave HTTPS server with Siege at 10–200
//! concurrent connections and finds: similar performance up to ~75
//! connections, degradation starting at 100, significant response-time
//! growth at ≥150, +14.1% average response-time overhead, and <10%
//! throughput loss at 75–200 concurrency.
//!
//! Our pipeline: the per-request service time of the *real* in-enclave
//! handler (VM execution + real ChaCha20-Poly1305 record sealing) is
//! measured at the baseline and P1–P6 levels, then replayed through the
//! closed-loop multi-worker simulation (see DESIGN.md for the
//! substitution rationale).

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_bench::queueing::simulate;
use deflection_bench::{fmt_pct, measure, overhead_pct};
use deflection_core::policy::PolicySet;
use deflection_sgx_sim::layout::MemConfig;
use deflection_workloads::server;
use std::time::Duration;

const WORKERS: usize = 96;
const CONCURRENCY: [usize; 7] = [10, 25, 50, 75, 100, 150, 200];
const PAGE_BYTES: u64 = 4096;

fn service_time_us(policy: &PolicySet) -> f64 {
    let source = server::source();
    let config = MemConfig::small();
    // Median of several measured requests.
    let mut times: Vec<f64> = (0..5)
        .map(|i| {
            let input = server::request(i, PAGE_BYTES);
            measure(&source, &input, policy, &config).wall.as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn print_table() {
    println!("\n=== Fig. 10: HTTPS server response time & throughput vs concurrency ===\n");
    let base_us = service_time_us(&PolicySet::none());
    let full_us = service_time_us(&PolicySet::full());
    let svc_overhead = overhead_pct(base_us as u64 + 1, full_us as u64 + 1);
    println!(
        "measured per-request service time: baseline {base_us:.0} µs, P1-P6 {full_us:.0} µs \
         ({})\n",
        fmt_pct(svc_overhead)
    );
    println!(
        "{:<6} {:>14} {:>14} {:>9} {:>13} {:>13}",
        "conc", "RT base (µs)", "RT P1-P6 (µs)", "RT ovh", "thr base", "thr P1-P6"
    );
    println!("{:-<74}", "");
    let mut overheads = Vec::new();
    let mut thr_losses = Vec::new();
    for &clients in &CONCURRENCY {
        let base = simulate(clients, WORKERS, base_us, 0.05, 4000, 10);
        let full = simulate(clients, WORKERS, full_us, 0.05, 4000, 10);
        let rt_ovh =
            overhead_pct(base.mean_response_us as u64 + 1, full.mean_response_us as u64 + 1);
        overheads.push(rt_ovh);
        let thr_loss = (base.throughput_rps - full.throughput_rps) / base.throughput_rps * 100.0;
        if clients >= 75 {
            thr_losses.push(thr_loss);
        }
        println!(
            "{:<6} {:>14.0} {:>14.0} {:>9} {:>10.0}rps {:>10.0}rps",
            clients,
            base.mean_response_us,
            full.mean_response_us,
            fmt_pct(rt_ovh),
            base.throughput_rps,
            full.throughput_rps
        );
    }
    let avg = overheads.iter().sum::<f64>() / overheads.len() as f64;
    println!("{:-<74}", "");
    println!("average response-time overhead: {}", fmt_pct(avg));
    println!(
        "paper: +14.1% average response time; throughput loss <10% at 75-200 connections\n\
         (measured loss here: {}..{})\n",
        fmt_pct(*thr_losses.first().unwrap_or(&0.0)),
        fmt_pct(*thr_losses.last().unwrap_or(&0.0)),
    );
}

fn bench(c: &mut Criterion) {
    print_table();
    let source = server::source();
    let config = MemConfig::small();
    for (label, policy) in [("baseline", PolicySet::none()), ("p1-p6", PolicySet::full())] {
        let src = source.clone();
        let input = server::request(1, PAGE_BYTES);
        c.bench_function(&format!("fig10/request_4k/{label}"), move |b| {
            b.iter(|| measure(&src, &input, &policy, &config))
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(4)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
