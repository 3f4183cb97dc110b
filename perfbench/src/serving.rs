//! The serving workloads (`mix_open`, `https_open`): tenants produced and
//! verified, then requests driven through the real `AdmissionFrontend` →
//! `EnclavePool` → `BootstrapEnclave` path — open-loop Poisson arrivals
//! for latency, then a closed-loop saturation phase for capacity.

use crate::inputs::{poisson_schedule, Class, Traffic};
use crate::oracle::{check_serving, Sent, Tally, Verdict};
use crate::report::{metric, peak_rss_mb, print_whole_run_rate, Metric};
use crate::stats::{best_window_rate, mean, median, percentile};
use crate::{POOL_WORKERS, ROUNDS};
use deflection_core::admission::{AdmissionConfig, AdmissionFrontend, DispatcherReport, Ticket};
use deflection_core::policy::Manifest;
use deflection_core::pool::EnclavePool;
use deflection_core::producer::produce;
use deflection_core::tenant::{TenantConfig, TenantId, TenantRegistry};
use deflection_crypto::sha256::sha256;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_telemetry::flightrec::{chrome_trace, FlightRecorder};
use deflection_telemetry::{Collector, METRICS};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Fuel per run (the workloads' serving default).
const FUEL: u64 = 2_000_000_000;
/// The data owner's session key.
pub const OWNER_KEY: [u8; 32] = [0x0B; 32];

/// One serving workload.
pub struct Spec {
    pub traffic: fn(u64) -> Traffic,
    /// Open-loop arrivals per second: about a quarter of the lowest
    /// measured 1-worker capacity on a 2-vCPU host, fixed so that a faster
    /// system shows as lower latency rather than as more offered load.
    pub rate: f64,
    /// Warm-up requests per setup (a count, not a duration).
    pub warmup: usize,
}

/// Outstanding requests in the closed-loop phases: twice the admission
/// frontend's default `batch_max`, so saturated batches come out full and
/// the next one is already queued while one is served.
const WINDOW: usize = 128;

/// Completions per capacity window: four full batches of the admission
/// frontend's default `batch_max`.
const RATE_SPAN: usize = 256;

/// Share of `--seconds` spent in the open-loop phase; the rest saturates.
const OPEN_SHARE: f64 = 0.6;

/// One set-up system: the frontend with its dispatcher thread, which owns
/// the pool until the frontend closes.
struct Live {
    frontend: Arc<AdmissionFrontend>,
    dispatcher: Option<thread::JoinHandle<(EnclavePool, DispatcherReport)>>,
    ids: Vec<TenantId>,
    binaries: Vec<Vec<u8>>,
    traffic: Traffic,
    sent: Vec<Sent>,
    produce_ms: Vec<f64>,
    install_ms: Vec<f64>,
}

/// Produces and verifies every tenant, starts the dispatcher and runs the
/// warm-up. Returns the live system and the set-up time in seconds.
fn setup(spec: &Spec, seed: u64) -> (Live, f64) {
    let t0 = Instant::now();
    let traffic = (spec.traffic)(seed);
    // The CCaaS manifest enforces plain P1–P6.
    let m = Manifest::ccaas();
    let mut produce_ms = Vec::new();
    let binaries: Vec<Vec<u8>> = traffic
        .tenants
        .iter()
        .map(|t| {
            let t1 = Instant::now();
            let bin = produce(&t.source, &m.policy).expect("tenant program produces").serialize();
            produce_ms.push(ms(t1.elapsed()));
            bin
        })
        .collect();
    let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &m, POOL_WORKERS);
    pool.set_owner_session(OWNER_KEY);
    let install_ms: Vec<f64> = binaries
        .iter()
        .map(|b| {
            let t1 = Instant::now();
            pool.install_all(b).expect("tenant binary verifies");
            ms(t1.elapsed())
        })
        .collect();
    let config = AdmissionConfig::default();
    let max_in_flight = config.queue_capacity;
    let frontend = Arc::new(AdmissionFrontend::new(config, TenantRegistry::new(&m)));
    let ids = binaries
        .iter()
        .enumerate()
        .map(|(i, b)| {
            frontend
                .register(TenantConfig {
                    name: format!("tenant{i}"),
                    binary: b.clone(),
                    manifest: m.clone(),
                    max_in_flight,
                    lifetime_output_budget: None,
                })
                .expect("tenant fits the pool manifest")
        })
        .collect();
    let fe = Arc::clone(&frontend);
    let dispatcher = thread::spawn(move || {
        let report = fe.run_dispatcher(&mut pool, FUEL);
        (pool, report)
    });
    let mut live = Live {
        frontend,
        dispatcher: Some(dispatcher),
        ids,
        binaries,
        traffic,
        sent: Vec::new(),
        produce_ms,
        install_ms,
    };
    closed_loop(&mut live, Stop::Count(spec.warmup), false);
    (live, t0.elapsed().as_secs_f64())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submits the stream's next request; `None` when it was shed.
fn submit(live: &mut Live, timed: bool) -> Option<(usize, Ticket)> {
    let req = live.traffic.next_request();
    let outcome = live.frontend.submit(live.ids[req.tenant], req.payload.clone());
    let ticket = outcome.ok();
    live.sent.push(Sent {
        gid: ticket.as_ref().map(|t| t.global_id),
        tenant: req.tenant,
        payload: req.payload,
        timed,
        verdict: None,
    });
    ticket.map(|t| (live.sent.len() - 1, t))
}

enum Stop {
    Count(usize),
    After(Duration),
}

/// Keeps `WINDOW` requests outstanding until `stop`, then drains.
/// Returns each completion's instant.
fn closed_loop(live: &mut Live, stop: Stop, timed: bool) -> Vec<Instant> {
    let start = Instant::now();
    let mut window: VecDeque<(usize, Ticket)> = VecDeque::new();
    let mut done = Vec::new();
    let mut issued = 0;
    loop {
        while window.len() < WINDOW {
            let more = match stop {
                Stop::Count(n) => issued < n,
                Stop::After(d) => start.elapsed() < d,
            };
            if !more {
                break;
            }
            issued += 1;
            if let Some(w) = submit(live, timed) {
                window.push_back(w);
            }
        }
        let Some((idx, ticket)) = window.pop_front() else { break };
        let class = live.traffic.tenants[live.sent[idx].tenant].class;
        live.sent[idx].verdict = Some(ticket.wait().map(|r| Verdict::keep(r, class)));
        done.push(Instant::now());
    }
    done
}

/// What an open-loop phase observed.
struct Open {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    wall: Duration,
    /// Index range of this phase's requests in `Live::sent`.
    sent: std::ops::Range<usize>,
}

/// Submits at the scheduled offsets; a collector thread blocks on each
/// ticket in turn and stamps the verdict's arrival. Latency runs from the
/// scheduled send time, so generator lateness counts against the system
/// rather than hiding queueing.
fn open_loop(live: &mut Live, times: &[f64]) -> Open {
    let (tx, rx) = mpsc::channel::<(usize, Ticket, Instant, Class)>();
    let collector = thread::spawn(move || {
        rx.into_iter()
            .map(|(idx, ticket, scheduled, class)| {
                let verdict = ticket.wait();
                let latency = scheduled.elapsed();
                (idx, verdict.map(|r| Verdict::keep(r, class)), latency)
            })
            .collect::<Vec<_>>()
    });
    let first = live.sent.len();
    let start = Instant::now() + Duration::from_millis(2);
    let mut late_ms = Vec::with_capacity(times.len());
    for &at in times {
        let scheduled = start + Duration::from_secs_f64(at);
        // Prepare the request before sleeping so only the submit itself
        // happens at the scheduled instant.
        let req = live.traffic.next_request();
        let payload = req.payload.clone();
        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        late_ms.push(ms(scheduled.elapsed()));
        let ticket = live.frontend.submit(live.ids[req.tenant], payload).ok();
        live.sent.push(Sent {
            gid: ticket.as_ref().map(|t| t.global_id),
            tenant: req.tenant,
            payload: req.payload,
            timed: true,
            verdict: None,
        });
        if let Some(t) = ticket {
            let class = live.traffic.tenants[req.tenant].class;
            tx.send((live.sent.len() - 1, t, scheduled, class)).expect("collector alive");
        }
    }
    drop(tx);
    let results = collector.join().expect("collector thread");
    let wall = start.elapsed();
    let mut latency_ms = Vec::with_capacity(results.len());
    for (idx, verdict, latency) in results {
        live.sent[idx].verdict = Some(verdict);
        latency_ms.push(ms(latency));
    }
    Open { latency_ms, late_ms, wall, sent: first..live.sent.len() }
}

/// Closes the frontend, joins the dispatcher and checks every verdict
/// the system delivered since set-up.
fn finish(
    live: &mut Live,
    tally: &mut Tally,
) -> (EnclavePool, DispatcherReport, HashMap<u64, u64>) {
    live.frontend.close();
    let dispatcher = live.dispatcher.take().expect("dispatcher still running");
    let (pool, report) = dispatcher.join().expect("dispatcher thread");
    let batches: Vec<Vec<u64>> = report.batches.iter().map(|b| b.global_ids.clone()).collect();
    // Set-up verified the tenants in order, so the last one is active.
    let active = live.binaries.len() - 1;
    let instructions =
        check_serving(&live.traffic.tenants, active, &OWNER_KEY, &live.sent, &batches, tally);
    (pool, report, instructions)
}

/// The untraced run: every end-to-end metric. Each of the `ROUNDS`
/// rounds sets up a fresh system, runs an open-loop phase and then a
/// saturation phase on it. Latency percentiles are taken over every
/// open-loop request of the run. Capacity comes from the best stretch of
/// `RATE_SPAN` saturated completions, and the rate over the whole run is
/// printed beside it; `setup_s` is the median set-up.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    let round_s = seconds / ROUNDS as f64;
    let open_s = round_s * OPEN_SHARE;
    let schedule = poisson_schedule(seed, spec.rate, open_s * ROUNDS as f64);
    let (mut setup_s, mut latency_ms, mut rounds_done) = (Vec::new(), Vec::new(), Vec::new());
    let mut completions = 0;
    for r in 0..ROUNDS {
        let (mut live, secs) = setup(spec, seed);
        setup_s.push(secs);
        let from = r as f64 * open_s;
        let times: Vec<f64> = schedule
            .iter()
            .filter(|&&t| (from..from + open_s).contains(&t))
            .map(|t| t - from)
            .collect();
        latency_ms.extend(open_loop(&mut live, &times).latency_ms);
        let done =
            closed_loop(&mut live, Stop::After(Duration::from_secs_f64(round_s - open_s)), true);
        completions += done.len();
        rounds_done.push(done);
        finish(&mut live, &mut tally);
    }

    print_whole_run_rate(&rounds_done);
    let n = latency_ms.len();
    let ok_frac = tally.ok() as f64 / tally.attempted() as f64;
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s", setup_s.len()),
        metric("latency_p50_ms", percentile(&latency_ms, 0.5).expect("requests"), "ms", n),
        metric("latency_p90_ms", percentile(&latency_ms, 0.9).expect("requests"), "ms", n),
        metric("capacity_per_s", best_window_rate(&rounds_done, RATE_SPAN), "1/s", completions),
        metric("ok_frac", ok_frac, "fraction", tally.attempted() as usize),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    (metrics, tally)
}

/// The traced run: every per-layer metric. Set-up runs with the collector
/// on; then come an untraced and a traced open-loop phase of equal
/// length; finally the traced phase's batches are replayed through the
/// pool one tenant group at a time, timing each call.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64, trace_out: &Path) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    Collector::reset();
    Collector::enable();
    let (mut live, _) = setup(spec, seed);
    Collector::disable();
    let m = &METRICS;
    let verify = (m.verify_ns.mean() / 1e6, m.verify_ns.count() as usize);
    let analysis = (m.analysis_run_ns.mean() / 1e6, m.analysis_run_ns.count() as usize);
    let setup_counts = (
        m.pool_install_cache_hits.get(),
        m.pool_install_cache_misses.get(),
        m.pool_prepared_evictions.get(),
    );
    Collector::reset();
    let times = poisson_schedule(seed, spec.rate, seconds / 2.0);
    let plain = open_loop(&mut live, &times);
    FlightRecorder::reset();
    FlightRecorder::enable();
    Collector::enable();
    let traced = open_loop(&mut live, &times);
    Collector::disable();
    FlightRecorder::disable();
    crate::write_trace(trace_out, &chrome_trace(&FlightRecorder::drain()));
    let hits = setup_counts.0 + m.pool_install_cache_hits.get();
    let installs = hits + setup_counts.1 + m.pool_install_cache_misses.get();
    let evictions = setup_counts.2 + m.pool_prepared_evictions.get();
    let wait = (m.admission_wait_ns.mean() / 1e6, m.admission_wait_ns.count() as usize);
    let batch = (m.admission_batch_size.mean(), m.admission_batch_size.count() as usize);
    let serve_batch = &m.pool_serve_batch_ns;
    let busy_frac = serve_batch.sum() as f64 / 1e9 / traced.wall.as_secs_f64();
    let sealed_kb = (m.run_sent_bytes.mean() / 1024.0, m.run_sent_bytes.count() as usize);

    let (mut pool, report, executed) = finish(&mut live, &mut tally);
    let phase = &live.sent[traced.sent.clone()];
    let instructions: Vec<f64> =
        phase.iter().filter_map(|s| executed.get(&s.gid?)).map(|&i| i as f64).collect();
    let gids: HashSet<u64> = phase.iter().filter_map(|s| s.gid).collect();
    let by_gid: HashMap<u64, &Sent> = phase.iter().filter_map(|s| Some((s.gid?, s))).collect();
    let mut groups_per_batch = Vec::new();
    let mut install_ms = live.install_ms.clone();
    let mut replay_install_ms = 0.0;
    let (mut run_ms, mut replayed) = (0.0, 0usize);
    for batch in report.batches.iter().filter(|b| b.global_ids.iter().any(|g| gids.contains(g))) {
        let mut groups: Vec<(usize, Vec<&[u8]>)> = Vec::new();
        for g in &batch.global_ids {
            let s = by_gid[g];
            match groups.iter_mut().find(|(t, _)| *t == s.tenant) {
                Some((_, p)) => p.push(&s.payload),
                None => groups.push((s.tenant, vec![&s.payload])),
            }
        }
        groups_per_batch.push(groups.len() as f64);
        for (tenant, payloads) in groups {
            let binary = &live.binaries[tenant];
            if pool.active_code_hash() != Some(sha256(binary)) {
                let t = Instant::now();
                pool.install_all(binary).expect("replayed install");
                let d = ms(t.elapsed());
                install_ms.push(d);
                replay_install_ms += d;
            }
            let t = Instant::now();
            pool.serve_parallel(&payloads, FUEL).expect("replayed serve");
            run_ms += ms(t.elapsed());
            replayed += payloads.len();
        }
    }
    let per_request = |total: f64| total / replayed.max(1) as f64;
    let e2e = mean(&traced.latency_ms);
    let attributed = wait.0 + per_request(replay_install_ms) + per_request(run_ms);
    let mut late = plain.late_ms.clone();
    late.extend(&traced.late_ms);
    let p50 = |o: &Open| percentile(&o.latency_ms, 0.5).expect("open-loop samples");
    let metrics = vec![
        metric("producer.produce_ms", mean(&live.produce_ms), "ms", live.produce_ms.len()),
        metric("analysis.run_ms", analysis.0, "ms", analysis.1),
        metric("consumer.verify_ms", verify.0, "ms", verify.1),
        metric("pool.install_ms", mean(&install_ms), "ms", install_ms.len()),
        metric(
            "pool.install_hit_frac",
            hits as f64 / installs as f64,
            "fraction",
            installs as usize,
        ),
        metric("pool.evictions", evictions as f64, "count", installs as usize),
        metric("pool.serve_batch_ms", serve_batch.mean() / 1e6, "ms", serve_batch.count() as usize),
        metric("pool.busy_frac", busy_frac, "fraction", serve_batch.count() as usize),
        metric("admission.wait_ms", wait.0, "ms", wait.1),
        metric("admission.batch_size", batch.0, "count", batch.1),
        metric(
            "admission.groups_per_batch",
            mean(&groups_per_batch),
            "count",
            groups_per_batch.len(),
        ),
        metric("runtime.run_ms", per_request(run_ms), "ms", replayed),
        metric("runtime.sealed_kb", sealed_kb.0, "KiB", sealed_kb.1),
        metric("sgx_sim.instructions", mean(&instructions), "count", instructions.len()),
        metric(
            "generator.late_p90_ms",
            percentile(&late, 0.9).expect("arrivals"),
            "ms",
            late.len(),
        ),
        metric(
            "bench.unattributed_frac",
            1.0 - attributed / e2e,
            "fraction",
            traced.latency_ms.len(),
        ),
        metric(
            "bench.trace_overhead_frac",
            p50(&traced) / p50(&plain) - 1.0,
            "fraction",
            traced.latency_ms.len(),
        ),
    ];
    (metrics, tally)
}
