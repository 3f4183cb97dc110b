//! `loadgen` — the bounded-tail gate on the real serving path.
//!
//! ```text
//! loadgen [--metrics-out METRICS_file.json]
//! ```
//!
//! Drives the six-tenant mixed workload (https, credit, genome seqgen, two
//! nBench kernels, the stateful KV session) through the real
//! [`AdmissionFrontend`] → [`EnclavePool`] path on a 1-worker pool, with
//! the dispatcher on its own thread, in four phases of [`PHASE`] requests:
//!
//! 1. **Capacity** — a saturated phase keeps the queue at its high water
//!    while the worker serves, so each batch is queued before the last one
//!    ends; capacity is that phase's own completion rate.
//! 2. **Half load** — open-loop Poisson arrivals at ½× that capacity.
//! 3. **Capacity** again, saturated, so a host that changed speed during
//!    the half-load phase does not skew the next one.
//! 4. **Overload** — open-loop Poisson arrivals at 2× the fresh capacity.
//!
//! Each open-loop phase prints its offered rate beside the rate at which
//! it actually completed requests, so an "overload" that the worker
//! nearly kept up with shows as such.
//!
//! Latency runs from each request's scheduled send time to its verdict.
//! Exits 1 unless the overload phase sheds (`Overloaded` > 0) and its p99
//! stays within 10× of the half-load p99: the queue is bounded, so an
//! admitted request's wait cannot grow with offered load. A queue sized
//! for throughput instead (the `AdmissionConfig` default, high water 896)
//! sheds nothing at 2× and fails the gate. `--metrics-out` writes the
//! host-stamped telemetry snapshot (`METRICS_loadgen.json`) a `trend` run
//! can ingest.
//!
//! [`AdmissionFrontend`]: deflection::core::admission::AdmissionFrontend
//! [`EnclavePool`]: deflection::core::pool::EnclavePool

use deflection::bench::serving::{admission_round, frontend, rig, FUEL};
use deflection::core::admission::{AdmissionConfig, AdmissionFrontend, Ticket};
use deflection::core::tenant::TenantId;
use deflection::crypto::drbg::HmacDrbg;
use deflection::telemetry::Collector;
use std::process::ExitCode;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Queue depth at which submissions shed. DESIGN.md §5k sizes the
/// latency-tier queue so `high_water × service / workers` stays fixed:
/// 64 for four workers is 16 for one.
const HIGH_WATER: usize = 16;
/// Largest dispatched batch: the 4-worker tier's 32, capped at the queue.
const BATCH_MAX: usize = 16;
/// Requests per phase, so that a half-load p99 rests on its 20 slowest
/// requests rather than on a handful.
const PHASE: usize = 2000;
/// Seed of the Poisson arrival gaps.
const SEED: u64 = 23;
/// Pause before a saturating submitter retries a shed request: well under
/// one request's service time, so the queue refills while a batch runs.
const RETRY: Duration = Duration::from_micros(100);
/// Overload p99 may be at most this multiple of half-load p99.
const TAIL_BOUND: f64 = 10.0;

fn usage() -> ExitCode {
    eprintln!("usage:\n  loadgen [--metrics-out METRICS_file.json]");
    ExitCode::from(2)
}

/// What one open-loop phase saw.
struct Phase {
    served: usize,
    /// Completions per second, from the phase's start to its last verdict.
    served_per_s: f64,
    shed: usize,
    p50_ms: f64,
    p99_ms: f64,
}

/// Submits the `k`-th request of the rig's repeating mixed batch.
fn submit(
    fe: &AdmissionFrontend,
    tenants: &[TenantId],
    requests: &[(usize, Vec<u8>)],
    k: usize,
) -> Option<Ticket> {
    let (wl, payload) = &requests[k % requests.len()];
    fe.submit(tenants[*wl], payload.clone()).ok()
}

/// Keeps the queue at [`HIGH_WATER`] until [`PHASE`] requests are
/// admitted (a shed submission is retried after [`RETRY`]) and returns
/// completions per second. A closed loop of [`HIGH_WATER`] outstanding
/// requests reads low: the dispatcher drains them all as one batch, and
/// the next batch is only submitted after that one ends.
fn capacity(fe: &AdmissionFrontend, tenants: &[TenantId], requests: &[(usize, Vec<u8>)]) -> f64 {
    let (tx, rx) = mpsc::channel::<Ticket>();
    let start = Instant::now();
    let collector = thread::spawn(move || {
        for ticket in rx {
            ticket.wait().expect("mixed request serves");
        }
        start.elapsed()
    });
    for k in 0..PHASE {
        let ticket = loop {
            match submit(fe, tenants, requests, k) {
                Some(ticket) => break ticket,
                None => thread::sleep(RETRY),
            }
        };
        tx.send(ticket).expect("collector alive");
    }
    drop(tx);
    PHASE as f64 / collector.join().expect("collector thread").as_secs_f64()
}

/// Sends [`PHASE`] Poisson arrivals at `rate` per second. A collector
/// thread waits on each admitted ticket in turn.
fn open_loop(
    fe: &AdmissionFrontend,
    tenants: &[TenantId],
    requests: &[(usize, Vec<u8>)],
    rate: f64,
    seed: u64,
) -> Phase {
    let mut drbg = HmacDrbg::new(&seed.to_le_bytes());
    let (tx, rx) = mpsc::channel::<(Ticket, Instant)>();
    let start = Instant::now();
    let collector = thread::spawn(move || {
        let latencies = rx
            .into_iter()
            .map(|(ticket, scheduled)| {
                ticket.wait().expect("mixed request serves");
                scheduled.elapsed()
            })
            .collect::<Vec<Duration>>();
        (latencies, start.elapsed())
    });
    let mut scheduled = start;
    let mut shed = 0;
    for k in 0..PHASE {
        scheduled += Duration::from_secs_f64(-(1.0 - drbg.next_f64()).ln() / rate);
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        match submit(fe, tenants, requests, k) {
            Some(ticket) => tx.send((ticket, scheduled)).expect("collector alive"),
            None => shed += 1,
        }
    }
    drop(tx);
    let (mut latencies, elapsed) = collector.join().expect("collector thread");
    latencies.sort_unstable();
    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100].as_secs_f64() * 1e3;
    Phase {
        served: latencies.len(),
        served_per_s: latencies.len() as f64 / elapsed.as_secs_f64(),
        shed,
        p50_ms: pct(50),
        p99_ms: pct(99),
    }
}

fn main() -> ExitCode {
    let mut metrics_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("--metrics-out", Some(path)) => metrics_out = Some(path),
            _ => return usage(),
        }
    }

    let cores = std::thread::available_parallelism().ok().map(|n| n.get() as u64);
    println!(
        "=== loadgen: real serving, 1 worker on {} cores, high_water {HIGH_WATER}, \
         batch_max {BATCH_MAX} ===",
        cores.unwrap_or(0)
    );
    let mut r = rig(1);
    // Verify every tenant once, so the phases replay resident instances.
    admission_round(&mut r);
    let config = AdmissionConfig {
        queue_capacity: HIGH_WATER,
        high_water: HIGH_WATER,
        batch_max: BATCH_MAX,
    };
    let (fe, tenants) = frontend(&r, config);
    let (pool, requests) = (&mut r.pool, &r.requests);
    let [half, over] = thread::scope(|s| {
        let dispatcher = s.spawn(|| fe.run_dispatcher(pool, FUEL));
        let phases =
            [("half load", 0.5, SEED), ("overload", 2.0, SEED + 1)].map(|(label, load, seed)| {
                let cap = capacity(&fe, &tenants, requests);
                let offered = cap * load;
                let p = open_loop(&fe, &tenants, requests, offered, seed);
                println!(
                    "  {label:<9} capacity {cap:>7.1} /s (saturated, queue at high water \
                     {HIGH_WATER}), offered {offered:>7.1} /s, served {:>7.1} /s: {} served, \
                     {} shed ({:.1}%), p50 {:.2} ms, p99 {:.2} ms",
                    p.served_per_s,
                    p.served,
                    p.shed,
                    p.shed as f64 / PHASE as f64 * 100.0,
                    p.p50_ms,
                    p.p99_ms
                );
                p
            });
        fe.close();
        dispatcher.join().expect("dispatcher thread");
        phases
    });

    if let Some(path) = metrics_out {
        let snapshot = Collector::snapshot();
        if let Err(e) = std::fs::write(&path, snapshot.to_json_stamped(cores)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }

    let ratio = over.p99_ms / half.p99_ms;
    if over.shed == 0 || ratio > TAIL_BOUND {
        eprintln!(
            "FAIL: overload shed {} and its p99 {:.2} ms is {ratio:.1}x half-load p99 {:.2} ms \
             (need shed > 0 and <= {TAIL_BOUND}x)",
            over.shed, over.p99_ms, half.p99_ms
        );
        return ExitCode::from(1);
    }
    println!(
        "PASS: overload shed {} and its p99 {:.2} ms is {ratio:.1}x half-load p99 {:.2} ms \
         (<= {TAIL_BOUND}x)",
        over.shed, over.p99_ms, half.p99_ms
    );
    ExitCode::SUCCESS
}
