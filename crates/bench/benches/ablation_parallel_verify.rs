//! **Ablation — parallel verification** (sharded verifier + install cache).
//!
//! Two claims are measured on the largest nBench kernel (IDEA):
//!
//! * the sharded verifier (`verify_with_layout_threaded`) reaches ≥2×
//!   wall-clock speedup at 4 threads over the serial TCB path while
//!   returning a bit-identical verdict — asserted here whenever the host
//!   actually has ≥4 cores;
//! * an 8-worker [`EnclavePool`] amortizes verification: `install_all`
//!   runs the pipeline exactly **once** per unique code hash and replays
//!   the captured image into the other workers, versus 8 independent
//!   pipeline runs on standalone enclaves.

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_core::consumer::{load, verify_with_layout_threaded};
use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::produce_for_layout;
use deflection_core::runtime::BootstrapEnclave;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_sgx_sim::mem::Memory;
use deflection_workloads::nbench;
use std::time::{Duration, Instant};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const TRIALS: usize = 12;
const POOL_WORKERS: usize = 8;

/// The relocated verification inputs of one binary: exactly what
/// `install` hands the verifier after the loader runs.
struct VerifyInputs {
    code: Vec<u8>,
    entry: usize,
    ibt: Vec<usize>,
    layout: EnclaveLayout,
}

fn verify_inputs(binary: &[u8]) -> VerifyInputs {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut mem = Memory::new(layout.clone());
    let program = load(binary, &mut mem).expect("bench binary loads");
    let code =
        mem.peek_bytes(layout.code.start, program.code_len).expect("loader wrote the code window");
    let entry = (program.entry_va - layout.code.start) as usize;
    VerifyInputs { code, entry, ibt: program.ibt_offsets, layout }
}

/// Best-of-N wall time of one threaded verification, plus the instance
/// count (used to pin verdict equality across thread counts).
fn time_verify(v: &VerifyInputs, policy: &PolicySet, threads: usize) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut instances = 0;
    for _ in 0..TRIALS {
        let start = Instant::now();
        let verified =
            verify_with_layout_threaded(&v.code, v.entry, &v.ibt, policy, &v.layout, threads)
                .expect("bench binary verifies");
        best = best.min(start.elapsed());
        instances = verified.instances.len();
    }
    (best, instances)
}

fn print_table() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("\n=== Ablation: sharded verification on nBench IDEA ({cores} host cores) ===\n");

    let layout = EnclaveLayout::new(MemConfig::small());
    let policy = PolicySet::full().with_elision();
    let kernel = nbench::all().into_iter().find(|k| k.name == "IDEA").expect("kernel exists");
    let source = (kernel.source)();
    let binary = produce_for_layout(&source, &policy, &layout).expect("compiles").serialize();
    let inputs = verify_inputs(&binary);

    println!("{:<10} {:>14} {:>10} {:>10}", "threads", "verify (best)", "speedup", "instances");
    println!("{:-<48}", "");
    let (serial, serial_instances) = time_verify(&inputs, &policy, 1);
    for threads in THREAD_COUNTS {
        let (t, instances) = time_verify(&inputs, &policy, threads);
        assert_eq!(instances, serial_instances, "verdict must be identical at every thread count");
        println!(
            "{:<10} {:>12.1?} {:>9.2}x {:>10}",
            threads,
            t,
            serial.as_secs_f64() / t.as_secs_f64(),
            instances
        );
        if threads == 4 && cores >= 4 {
            let speedup = serial.as_secs_f64() / t.as_secs_f64();
            assert!(
                speedup >= 2.0,
                "expected >=2x verify speedup at 4 threads on a {cores}-core host, got {speedup:.2}x"
            );
        }
    }
    println!("{:-<48}", "");
    if cores < 4 {
        println!(
            "\nnote: host exposes only {cores} core(s); the >=2x @ 4 threads\n\
             assertion needs >=4 cores and was skipped. Verdict equality was\n\
             still asserted at every thread count.\n"
        );
    }

    // --- install-cache amortization -------------------------------------
    let manifest = {
        let mut m = Manifest::ccaas();
        m.policy = policy;
        m
    };
    // Warm the allocator/page pools so both timed installs start from the
    // same steady state (the first pool construction is dominated by cold
    // memory-map setup, not by verification), then take best-of-3 over
    // fresh pools for each strategy.
    // One full pipeline run per worker on its own enclave: what a pool
    // without the install cache would pay.
    let install_independently = || {
        for _ in 0..POOL_WORKERS {
            let mut enclave = BootstrapEnclave::new(layout.clone(), manifest.clone());
            enclave.install_plain(&binary).expect("verifies");
        }
    };
    install_independently();

    let mut t_cached = Duration::MAX;
    for _ in 0..3 {
        let mut cached = EnclavePool::new(&layout, &manifest, POOL_WORKERS);
        let start = Instant::now();
        cached.install_all(&binary).expect("verifies");
        t_cached = t_cached.min(start.elapsed());
        assert_eq!(
            cached.verification_count(),
            1,
            "install_all must verify exactly once per unique code hash"
        );
        // Reinstall of the same binary: pure replay, still one verification.
        cached.install_all(&binary).expect("replays");
        assert_eq!(cached.verification_count(), 1, "cache hit must not re-verify");
    }

    let mut t_indep = Duration::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        install_independently();
        t_indep = t_indep.min(start.elapsed());
    }

    println!("=== Install-cache amortization ({POOL_WORKERS}-worker pool, IDEA) ===\n");
    println!("{:<22} {:>14} {:>14}", "strategy", "verifications", "install time");
    println!("{:-<52}", "");
    println!("{:<22} {:>14} {:>12.1?}", "install_all (cached)", 1, t_cached);
    println!("{:<22} {:>14} {:>12.1?}", "independent", POOL_WORKERS, t_indep);
    println!("{:-<52}", "");
    println!(
        "\nThe cached path verifies once on worker 0 and replays the captured\n\
         image into the remaining {} workers (measurement-checked, fail-closed);\n\
         see DESIGN.md \"Verifier threading model\" for the soundness argument.\n",
        POOL_WORKERS - 1
    );
}

fn bench(c: &mut Criterion) {
    print_table();

    let layout = EnclaveLayout::new(MemConfig::small());
    let policy = PolicySet::full().with_elision();
    let kernel = nbench::all().into_iter().find(|k| k.name == "IDEA").expect("kernel exists");
    let source = (kernel.source)();
    let binary = produce_for_layout(&source, &policy, &layout).expect("compiles").serialize();
    let inputs = verify_inputs(&binary);

    for threads in [1usize, 4] {
        c.bench_function(&format!("parallel_verify/verify/{threads}-threads"), |b| {
            b.iter(|| {
                verify_with_layout_threaded(
                    &inputs.code,
                    inputs.entry,
                    &inputs.ibt,
                    &policy,
                    &inputs.layout,
                    threads,
                )
                .expect("verifies")
            })
        });
    }

    let manifest = {
        let mut m = Manifest::ccaas();
        m.policy = policy;
        m
    };
    c.bench_function("parallel_verify/pool/install_all_cached", move |b| {
        b.iter(|| {
            let mut pool = EnclavePool::new(&layout, &manifest, POOL_WORKERS);
            pool.install_all(&binary).expect("verifies")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
