//! `loadgen` — closed- and open-loop load generator for the multi-tenant
//! admission frontend.
//!
//! ```text
//! loadgen [--quick] [--metrics-out METRICS_file.json] [--seed N]
//! ```
//!
//! Two stages:
//!
//! 1. **Real serving warm-up** — drives mixed admission rounds (https,
//!    credit, genome seqgen, two nBench kernels, stateful KV) through the
//!    real [`AdmissionFrontend`] on a 1-worker pool, measuring each
//!    class's true in-enclave service time and populating the admission
//!    telemetry (queue-depth gauge, shed counters, batch-size histogram).
//! 2. **Scaled closed/open-loop simulation** — replays the measured mix
//!    through the discrete-event serving simulator at 10⁵ (`--quick`,
//!    ≈10³ concurrent clients per series plus a 10⁵-client overload
//!    series) to 10⁶ completions, reporting p50/p99 and saturation
//!    throughput for half-saturation, overload-with-shedding, and
//!    open-loop arrival series.
//!
//! Exits nonzero if the bounded-tail acceptance property fails: p99
//! under shedding must stay within 10× of p99 at half saturation —
//! the queue is bounded, so tail latency must not collapse with offered
//! load. `--metrics-out` writes the host-stamped telemetry snapshot
//! (`METRICS_loadgen.json`) a `trend` run can ingest.
//!
//! [`AdmissionFrontend`]: deflection::core::admission::AdmissionFrontend

use deflection::bench::queueing::{simulate_serving, Arrival, MixEntry, ServingConfig};
use deflection::bench::serving::{admission_round, measured_mix, rig, BATCH};
use deflection::telemetry::Collector;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage:\n  loadgen [--quick] [--metrics-out METRICS_file.json] [--seed N]");
    ExitCode::from(2)
}

fn sim_config(mix: &[MixEntry], arrival: Arrival, total: usize, seed: u64) -> ServingConfig {
    ServingConfig {
        arrival,
        workers: 4,
        mix: mix.to_vec(),
        jitter_frac: 0.05,
        total_requests: total,
        // Latency-tier queue sizing (see DESIGN.md §5k): queue wait is
        // bounded by high_water x mean service / workers, which is what
        // keeps the shedding-regime p99 inside the 10x envelope.
        high_water: 64,
        batch_max: 32,
        seed,
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut quick = false;
    let mut metrics_out: Option<String> = None;
    let mut seed = 23u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--metrics-out" => match args.next() {
                Some(path) => metrics_out = Some(path),
                None => return usage(),
            },
            "--seed" => match args.next().map(|s| s.parse::<u64>()) {
                Some(Ok(s)) => seed = s,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    // Stage 1: real admission serving. Every request goes enqueue ->
    // admit -> claim through the real frontend and pool, so the
    // telemetry snapshot reflects real serving, not simulation.
    let rounds = if quick { 2 } else { 8 };
    println!("=== loadgen: real admission warm-up ({rounds} mixed rounds, 1 worker) ===");
    let mut r = rig(1);
    let mut checksum = 0u64;
    for _ in 0..rounds {
        checksum = checksum.wrapping_add(admission_round(&mut r));
    }
    println!("  {} requests served, round checksum {checksum:#x}", rounds * BATCH);
    let named = measured_mix();
    for (name, m) in &named {
        println!("  measured service time {name:<14} {:>8.0} µs", m.service_us);
    }
    let mix: Vec<MixEntry> = named.iter().map(|(_, m)| *m).collect();

    // Stage 2: scaled series. `--quick` drives ~10^3 concurrent clients
    // per series plus one 10^5-client overload series (>=10^5 simulated
    // client completions in total); the full run drives 10^5 clients to
    // 10^6 completions.
    let (half_clients, over_clients, half_total, over_total) = if quick {
        (2usize, 100_000usize, 20_000usize, 100_000usize)
    } else {
        (8, 100_000, 200_000, 1_000_000)
    };
    println!("\n=== loadgen: closed-loop series (seed {seed}) ===");
    let half = simulate_serving(&sim_config(
        &mix,
        Arrival::Closed { clients: half_clients, think_us: 0 },
        half_total,
        seed,
    ));
    println!(
        "  half-saturation  {half_clients:>7} clients: p50 {:>7} µs  p99 {:>7} µs  \
         {:>8.0} rps  shed {:>5.1}%",
        half.p50_us,
        half.p99_us,
        half.throughput_rps,
        half.shed_rate * 100.0
    );
    let over = simulate_serving(&sim_config(
        &mix,
        Arrival::Closed { clients: over_clients, think_us: 100_000 },
        over_total,
        seed,
    ));
    println!(
        "  overload (shed)  {over_clients:>7} clients: p50 {:>7} µs  p99 {:>7} µs  \
         {:>8.0} rps  shed {:>5.1}%",
        over.p50_us,
        over.p99_us,
        over.throughput_rps,
        over.shed_rate * 100.0
    );

    println!("\n=== loadgen: open-loop series ===");
    let quick_div = if quick { 4 } else { 1 };
    for rate in [1_000.0f64, 4_000.0, 16_000.0] {
        let r = simulate_serving(&sim_config(
            &mix,
            Arrival::Open { rate_rps: rate },
            40_000 / quick_div,
            seed,
        ));
        println!(
            "  offered {rate:>7.0} rps: p99 {:>7} µs  completed {:>8.0} rps  shed {:>5.1}%",
            r.p99_us,
            r.throughput_rps,
            r.shed_rate * 100.0
        );
    }

    let simulated_clients = over_clients + half_clients;
    let completions = half.completed + over.completed;
    println!("\nsimulated clients: {simulated_clients}  completions (closed-loop): {completions}");

    if let Some(path) = metrics_out {
        let cores = std::thread::available_parallelism().ok().map(|n| n.get() as u64);
        let snapshot = Collector::snapshot();
        if let Err(e) = std::fs::write(&path, snapshot.to_json_stamped(cores)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }

    // Acceptance gate: bounded tail under shedding. The queue being
    // bounded means p99 cannot grow with offered load; 10x is the
    // envelope ISSUE 10 pins.
    let bound = 10.0 * half.p99_us as f64;
    if over.p99_us as f64 > bound {
        eprintln!(
            "FAIL: p99 under shedding ({} µs) exceeds 10x half-saturation p99 ({} µs)",
            over.p99_us, half.p99_us
        );
        return ExitCode::from(1);
    }
    println!(
        "PASS: p99 under shedding {} µs <= 10x half-saturation p99 {} µs",
        over.p99_us, half.p99_us
    );
    ExitCode::SUCCESS
}
