//! The onboarding workload: one code provider in a closed loop. Each
//! operation produces a never-seen binary with guard elision, installs it
//! with `EnclavePool::install_all` (verification and analysis on a cache
//! miss, then replay) and serves one request. A seeded share of the
//! operations submit attack-corpus binaries instead.

use crate::inputs::{onboard_kernels, onboard_op, tagged, Kernel, Onboard};
use crate::oracle::{check_attack, check_onboard, Check, Tally};
use crate::report::{metric, peak_rss_mb, print_whole_run_rate, Metric};
use crate::stats::{best_window_rate, mean, median, percentile};
use crate::{POOL_WORKERS, ROUNDS};
use deflection_core::attack::{corpus, elision_corpus, Expected};
use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::produce_for_layout;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_telemetry::flightrec::{chrome_trace, FlightRecorder};
use deflection_telemetry::{Collector, METRICS};
use std::path::Path;
use std::time::{Duration, Instant};

const FUEL: u64 = 2_000_000_000;
/// Operations per capacity window.
const RATE_SPAN: usize = 100;
/// Honest warm-up operations per set-up (a count, not a duration); the
/// warm-up also onboards every attack-corpus entry once.
const WARMUP_OPS: u64 = 4;
/// Operation indices at or past this offset belong to the warm-up, so the
/// warm-up never onboards a binary the timed phase will see.
const WARMUP_BASE: u64 = 1 << 40;

/// One set-up onboarding system.
struct Live {
    pool: EnclavePool,
    layout: EnclaveLayout,
    manifest: Manifest,
    kernels: Vec<Kernel>,
    attacks: Vec<(&'static str, Vec<u8>, Expected)>,
}

/// Per-operation timings (ms) and what the operation's binary was.
struct Op {
    /// When the operation finished.
    end: Instant,
    total_ms: f64,
    produce_ms: Option<f64>,
    install_ms: f64,
    serve_ms: Option<f64>,
    instructions: Option<u64>,
    class: &'static str,
    check: Check,
}

fn setup(seed: u64) -> (Live, f64) {
    let t0 = Instant::now();
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full().with_elision();
    let mut pool = EnclavePool::new(&layout, &manifest, POOL_WORKERS);
    pool.set_owner_session([0x0C; 32]);
    let attacks = corpus()
        .into_iter()
        .chain(elision_corpus())
        .map(|a| (a.name, a.binary.serialize(), a.expected))
        .collect();
    let mut live = Live { pool, layout, manifest, kernels: onboard_kernels(), attacks };
    let mut ops: Vec<Op> = (0..live.attacks.len()).map(|a| attack_op(&mut live, a)).collect();
    ops.extend((0..WARMUP_OPS).map(|i| run_op(&mut live, seed, WARMUP_BASE + i)));
    let elapsed = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for op in &ops {
        tally.add_untimed(op.check);
    }
    assert!(tally.correct(), "warm-up onboarding failed its oracle");
    (live, elapsed)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run_op(live: &mut Live, seed: u64, i: u64) -> Op {
    let (kernel, tag) = match onboard_op(seed, i, live.kernels.len(), live.attacks.len()) {
        Onboard::Fresh { kernel, tag } => (kernel, tag),
        Onboard::Attack { attack } => return attack_op(live, attack),
    };
    let t0 = Instant::now();
    let k = &live.kernels[kernel];
    let binary = produce_for_layout(&tagged(&k.source, tag), &live.manifest.policy, &live.layout)
        .expect("kernel produces")
        .serialize();
    let produced = t0.elapsed();
    let installed = live.pool.install_all(&binary);
    let install_done = t0.elapsed();
    let served = installed.and_then(|_| {
        live.pool.serve_parallel(&[k.input.as_slice()], FUEL).map(|mut r| r.remove(0))
    });
    let total = t0.elapsed();
    let check = check_onboard(&served, (k.reference)(&k.input), k.no_input);
    Op {
        end: Instant::now(),
        total_ms: ms(total),
        produce_ms: Some(ms(produced)),
        install_ms: ms(install_done - produced),
        serve_ms: Some(ms(total - install_done)),
        instructions: served.as_ref().ok().map(|r| r.stats.instructions),
        class: k.name,
        check,
    }
}

/// Onboards attack-corpus entry `attack`: install, and run once if it
/// installs.
fn attack_op(live: &mut Live, attack: usize) -> Op {
    let t0 = Instant::now();
    let (name, binary, expected) = &live.attacks[attack];
    let installed = live.pool.install_all(binary);
    let install_done = t0.elapsed();
    let run = installed.is_ok().then(|| live.pool.serve_parallel(&[[0u8; 8]], FUEL));
    let total = t0.elapsed();
    let report = match &run {
        Some(Ok(reports)) => reports.first(),
        _ => None,
    };
    Op {
        end: Instant::now(),
        total_ms: ms(total),
        produce_ms: None,
        install_ms: ms(install_done),
        serve_ms: run.is_some().then(|| ms(total - install_done)),
        instructions: None,
        class: "attack",
        check: check_attack(name, *expected, &installed, report),
    }
}

/// Runs operations back to back for `seconds`; returns them and the gaps
/// between one operation's end and the next one's start.
fn closed_loop(live: &mut Live, seed: u64, first: u64, seconds: f64) -> (Vec<Op>, Vec<f64>, f64) {
    let start = Instant::now();
    let mut ops = Vec::new();
    let mut gaps = Vec::new();
    let mut last_end = start;
    let mut i = first;
    while start.elapsed().as_secs_f64() < seconds {
        gaps.push(ms(last_end.elapsed()));
        ops.push(run_op(live, seed, i));
        last_end = Instant::now();
        i += 1;
    }
    (ops, gaps, start.elapsed().as_secs_f64())
}

fn tally_ops(ops: &[Op], tally: &mut Tally) {
    for op in ops {
        tally.add(op.class, op.check);
    }
}

/// The untraced run: every end-to-end metric. Each of the `ROUNDS` rounds
/// sets up a fresh system and runs the closed loop on it. Latency
/// percentiles are taken over every operation of the run. Capacity comes
/// from the best stretch of `RATE_SPAN` consecutive operations, and the
/// rate over the whole run is printed beside it; `setup_s` is the median
/// set-up.
pub fn run(seed: u64, seconds: f64) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    let (mut setup_s, mut latency_ms, mut rounds_done) = (Vec::new(), Vec::new(), Vec::new());
    let mut n = 0;
    for _ in 0..ROUNDS {
        let (mut live, secs) = setup(seed);
        setup_s.push(secs);
        let (ops, _, _) = closed_loop(&mut live, seed, n as u64, seconds / ROUNDS as f64);
        tally_ops(&ops, &mut tally);
        latency_ms.extend(ops.iter().map(|o| o.total_ms));
        rounds_done.push(ops.iter().map(|o| o.end).collect::<Vec<_>>());
        n += ops.len();
    }

    print_whole_run_rate(&rounds_done);
    let metrics = vec![
        metric("setup_s", median(&setup_s), "s", setup_s.len()),
        metric("latency_p50_ms", percentile(&latency_ms, 0.5).expect("operations"), "ms", n),
        metric("latency_p90_ms", percentile(&latency_ms, 0.9).expect("operations"), "ms", n),
        metric("capacity_per_s", best_window_rate(&rounds_done, RATE_SPAN), "1/s", n),
        metric("ok_frac", tally.ok() as f64 / tally.attempted() as f64, "fraction", n),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ];
    (metrics, tally)
}

/// The traced run: every per-layer metric, from an untraced and a traced
/// half of the closed loop. Onboarding bypasses admission, so the
/// admission metrics read 0.
pub fn run_traced(seed: u64, seconds: f64, trace_out: &Path) -> (Vec<Metric>, Tally) {
    let mut tally = Tally::default();
    let (mut live, _) = setup(seed);
    let (plain, _, _) = closed_loop(&mut live, seed, 0, seconds / 2.0);
    Collector::reset();
    Collector::enable();
    FlightRecorder::reset();
    FlightRecorder::enable();
    let (traced, gaps, wall) = closed_loop(&mut live, seed, plain.len() as u64, seconds / 2.0);
    Collector::disable();
    FlightRecorder::disable();
    crate::write_trace(trace_out, &chrome_trace(&FlightRecorder::drain()));
    tally_ops(&plain, &mut tally);
    tally_ops(&traced, &mut tally);
    let m = &METRICS;
    let hits = m.pool_install_cache_hits.get();
    let installs = hits + m.pool_install_cache_misses.get();
    let pick = |f: fn(&Op) -> Option<f64>| traced.iter().filter_map(f).collect::<Vec<f64>>();
    let produce = pick(|o| o.produce_ms);
    let install = pick(|o| Some(o.install_ms));
    let serve = pick(|o| o.serve_ms);
    let instructions = pick(|o| o.instructions.map(|i| i as f64));
    let total = pick(|o| Some(o.total_ms));
    let n = traced.len();
    let attributed =
        (produce.iter().sum::<f64>() + install.iter().sum::<f64>() + serve.iter().sum::<f64>())
            / total.iter().sum::<f64>();
    let p50 = |ops: &[Op]| median(&ops.iter().map(|o| o.total_ms).collect::<Vec<_>>());
    let sb = &m.pool_serve_batch_ns;
    let metrics = vec![
        metric("producer.produce_ms", mean(&produce), "ms", produce.len()),
        metric(
            "analysis.run_ms",
            m.analysis_run_ns.mean() / 1e6,
            "ms",
            m.analysis_run_ns.count() as usize,
        ),
        metric("consumer.verify_ms", m.verify_ns.mean() / 1e6, "ms", m.verify_ns.count() as usize),
        metric("pool.install_ms", mean(&install), "ms", install.len()),
        metric(
            "pool.install_hit_frac",
            hits as f64 / installs.max(1) as f64,
            "fraction",
            installs as usize,
        ),
        metric(
            "pool.evictions",
            m.pool_prepared_evictions.get() as f64,
            "count",
            installs as usize,
        ),
        metric("pool.serve_batch_ms", sb.mean() / 1e6, "ms", sb.count() as usize),
        metric("pool.busy_frac", sb.sum() as f64 / 1e9 / wall, "fraction", sb.count() as usize),
        metric("admission.wait_ms", 0.0, "ms", 0),
        metric("admission.batch_size", 0.0, "count", 0),
        metric("admission.groups_per_batch", 0.0, "count", 0),
        metric("runtime.run_ms", mean(&serve), "ms", serve.len()),
        metric(
            "runtime.sealed_kb",
            m.run_sent_bytes.mean() / 1024.0,
            "KiB",
            m.run_sent_bytes.count() as usize,
        ),
        metric("sgx_sim.instructions", mean(&instructions), "count", instructions.len()),
        metric(
            "generator.late_p90_ms",
            percentile(&gaps, 0.9).expect("operations"),
            "ms",
            gaps.len(),
        ),
        metric("bench.unattributed_frac", 1.0 - attributed, "fraction", n),
        metric("bench.trace_overhead_frac", p50(&traced) / p50(&plain) - 1.0, "fraction", n),
    ];
    (metrics, tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflection_core::runtime::BootstrapEnclave;

    /// The stale-inbox oracle's premise: a run given no input reads a
    /// zero-filled buffer, so its verdict is the native reference of that
    /// buffer, and no kernel's real verdict coincides with it.
    #[test]
    fn a_run_without_input_matches_the_zero_input_reference() {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::full().with_elision();
        for k in onboard_kernels() {
            let binary = produce_for_layout(&k.source, &manifest.policy, &layout).unwrap();
            let mut enclave = BootstrapEnclave::new(layout.clone(), manifest.clone());
            enclave.install_plain(&binary.serialize()).unwrap();
            let exit = enclave.run(FUEL).unwrap().exit.exit_value();
            assert_eq!(exit, Some(k.no_input), "{}", k.name);
            assert_ne!((k.reference)(&k.input), k.no_input, "{}", k.name);
        }
    }
}
