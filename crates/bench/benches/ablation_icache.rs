//! **Ablation** — superblock trace dispatch vs decode-every-step.
//!
//! Runs every nBench kernel under the full P1–P6 policy through the VM's
//! trace dispatch and through its reference oracle, and asserts that
//! **trace dispatch is at least 3× faster than the reference interpreter
//! on at least one kernel**.
//!
//! Unlike the parallel-verify and pool-resilience ablations, this speedup
//! is single-threaded, so the assertion carries **no core-count gate** —
//! it is enforceable by the trend gate on any host, including 1-core CI
//! containers.
//!
//! Instruction counts must be identical across the two modes (the
//! differential suite in `tests/icache_differential.rs` proves full
//! bit-identity; this bench re-checks the cheap invariant).

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_bench::measure_exec_mode;
use deflection_bench::serving::serving_manifest;
use deflection_core::policy::PolicySet;
use deflection_core::producer::produce;
use deflection_core::runtime::BootstrapEnclave;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_sgx_sim::vm::{ExecMode, RunExit};
use deflection_telemetry::{Collector, METRICS};
use deflection_workloads::{nbench, server};
use std::time::Duration;

const SCALE: u32 = 3;
/// Timed samples per kernel per mode (after one warm-up run each): enough
/// that one disturbed stretch on a shared host cannot hold every sample of
/// the best kernel and pull its ratio under the floor.
const SAMPLES: usize = 15;
/// Minimum traced-vs-reference speedup required on at least one kernel.
const TRACED_FLOOR: f64 = 3.0;

/// Minimum over the samples: wall-clock noise on a shared host is strictly
/// additive, so the minimum is the most stable estimator of the true cost
/// (and the one the speedup assertions are judged on).
fn min_secs(samples: &[Duration]) -> f64 {
    samples.iter().map(Duration::as_secs_f64).fold(f64::INFINITY, f64::min)
}

fn print_table() {
    println!("\n=== Ablation: trace vs decode-every-step (nBench, P1-P6) ===\n");
    println!(
        "{:<18} {:>10} {:>10} {:>8} {:>12}",
        "Program Name", "traced ms", "ref ms", "tr/ref", "instrs"
    );
    println!("{:-<63}", "");
    let config = MemConfig::small();
    let policy = PolicySet::full();
    let mut best = ("", 0.0f64);
    for kernel in nbench::all() {
        let source = (kernel.source)();
        let input = (kernel.input)(SCALE);
        // Telemetry probe: one instrumented traced run per kernel, to show
        // the trace layer is actually engaged (chained dispatches, no
        // demand formations). The collector stays disabled during the
        // timed samples below so they measure the production configuration.
        Collector::reset();
        Collector::enable();
        let probe = measure_exec_mode(&source, &input, &policy, &config, ExecMode::Traced);
        let chained = METRICS.vm_trace_chained.get();
        let formed = METRICS.vm_trace_formed.get();
        Collector::disable();
        Collector::reset();
        assert!(chained > 0, "{}: trace dispatch must chain traces", kernel.name);
        assert_eq!(
            formed, 0,
            "{}: the install-time cover must need no demand formation",
            kernel.name
        );

        // Interleave the modes so drift (thermal, allocator state) hits
        // both equally; discard one warm-up pair first.
        let mut traced = Vec::with_capacity(SAMPLES);
        let mut reference = Vec::with_capacity(SAMPLES);
        let mut instrs = (0u64, 0u64);
        for i in 0..=SAMPLES {
            let t = measure_exec_mode(&source, &input, &policy, &config, ExecMode::Traced);
            let r = measure_exec_mode(&source, &input, &policy, &config, ExecMode::Reference);
            if i == 0 {
                continue;
            }
            traced.push(t.wall);
            reference.push(r.wall);
            instrs = (t.instructions, r.instructions);
        }
        assert_eq!(
            instrs.0, instrs.1,
            "{}: both modes must execute identical instruction counts",
            kernel.name
        );
        assert_eq!(probe.instructions, instrs.0);
        let (mt, mr) = (min_secs(&traced), min_secs(&reference));
        let vs_ref = mr / mt;
        if vs_ref > best.1 {
            best = (kernel.name, vs_ref);
        }
        println!(
            "{:<18} {:>10.3} {:>10.3} {:>7.2}x {:>12}",
            kernel.name,
            mt * 1e3,
            mr * 1e3,
            vs_ref,
            instrs.0,
        );
    }
    println!("{:-<63}", "");
    println!(
        "\nbest traced speedup: {:.2}x on {} — asserted >= {TRACED_FLOOR}x with NO \
         core-count gate:\ntrace dispatch is single-threaded, so this baseline is\n\
         enforceable by the trend gate on every host, 1-core CI included.\n",
        best.1, best.0
    );
    assert!(
        best.1 >= TRACED_FLOOR,
        "trace dispatch must deliver >= {TRACED_FLOOR}x over decode-every-step on at \
         least one nBench kernel (best: {:.2}x on {})",
        best.1,
        best.0
    );
}

fn bench(c: &mut Criterion) {
    print_table();
    // Trend-tracked Criterion series: cheapest and most store-heavy kernel
    // in both modes. Each sample is the kernel's run alone (`Sample::wall`),
    // not the produce, verify and install that precede it.
    let config = MemConfig::small();
    let policy = PolicySet::full();
    let modes = [("traced", ExecMode::Traced), ("reference", ExecMode::Reference)];
    for kernel in nbench::all() {
        if kernel.name != "FP EMULATION" && kernel.name != "NUMERIC SORT" {
            continue;
        }
        let source = (kernel.source)();
        let input = (kernel.input)(1);
        for (label, mode) in modes {
            let id = format!("icache/{}/{label}", kernel.name.to_lowercase().replace(' ', "_"));
            let src = source.clone();
            let inp = input.clone();
            c.bench_function(&id, move |b| {
                b.iter_custom(|iters| {
                    (0..iters)
                        .map(|_| measure_exec_mode(&src, &inp, &policy, &config, mode).wall)
                        .sum()
                })
            });
        }
    }
    // The serving handler's VM cost: one https request on a resident
    // instance, installed once, as the pool serves it; each sample times
    // the request's delivery and its run. The instance is boxed, as the
    // pool's are: on the stack its register file sat at an offset the
    // kernel randomises per process, and the trace loop's time moved with
    // that offset by up to 1.6x (EXPERIMENTS.md).
    let manifest = serving_manifest();
    let binary = produce(&server::source(), &manifest.policy).expect("https compiles").serialize();
    let request = server::request(1, 2048);
    for (label, mode) in modes {
        let mut enclave =
            Box::new(BootstrapEnclave::new(EnclaveLayout::new(config), manifest.clone()));
        enclave.set_owner_session([0xBE; 32]);
        enclave.install_plain(&binary).expect("https verifies");
        enclave.set_exec_mode(mode);
        let request = request.clone();
        c.bench_function(&format!("icache/https_request/{label}"), move |b| {
            b.iter(|| {
                enclave.provide_input(&request).expect("installed");
                let report = enclave.run(u64::MAX / 2).expect("installed");
                assert!(matches!(report.exit, RunExit::Halted { .. }), "{:?}", report.exit);
                report.records.len()
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
