//! **Ablation** — content-addressed incremental re-verification vs the
//! full serial verifier on the high-churn patch workload.
//!
//! Builds a star-shaped program (`main` plus 8 loop-heavy store leaves),
//! verifies it once to warm the memo, then times re-verifying a variant
//! with **one** leaf's constant patched — the canonical hot-fix shape —
//! against the full serial verifier on the same patched binary. Asserts:
//!
//! * **the incremental verdict is bit-identical to serial** on both the
//!   base and the patched binary (accept, instruction list, instances);
//! * **exactly one function re-verifies** on the patched install (the
//!   memo's own stats, not wall clock, prove the invalidation set);
//! * **a warm 1-function patch verify is at least 2× faster** than the
//!   full serial verify of the same binary.
//!
//! Both sides of the ratio are single-threaded — the incremental path is
//! serial by design and is compared against the *serial* verifier — so
//! the assertion carries **no core-count gate**: it is enforceable by the
//! trend gate on any host, including 1-core CI containers.

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_core::consumer::incremental::{verify_incremental, IncrementalCache};
use deflection_core::consumer::{load, verify_with_layout};
use deflection_core::policy::PolicySet;
use deflection_core::producer::produce_for_layout;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_sgx_sim::mem::Memory;
use std::time::{Duration, Instant};

/// Leaf functions in the star program (the issue floor is 8).
const LEAVES: usize = 8;
/// Timed samples per configuration (after one warm-up each); the minimum
/// is the estimator, as in the icache ablation.
const SAMPLES: usize = 5;
/// Minimum warm-patch speedup over full serial verification.
const INCREMENTAL_FLOOR: f64 = 2.0;

/// The star program: every leaf loops 16 stores through the shared data
/// window (exercising the per-instruction P1 checks and, under elision,
/// the abstract-interpretation fixpoints) and carries a distinct constant
/// so a single-leaf patch is a one-constant source change.
fn star_src(patched_leaf_const: u64) -> String {
    let mut src = String::from("var data: [int; 64];\n");
    for i in 0..LEAVES {
        let k = if i == 0 { patched_leaf_const } else { i as u64 + 1 };
        src.push_str(&format!(
            "fn f{i}(x: int) -> int {{\n    var j: int = 0;\n    var s: int = 0;\n    \
             while (j < 16) {{\n        var l: int = 0;\n        \
             while (l < 4) {{ data[j + l] = x + l; s = s + data[j + l] + {k}; l = l + 1; }}\n        \
             data[j] = s; j = j + 1;\n    }}\n    return s;\n}}\n"
        ));
    }
    src.push_str("fn main() -> int {\n    var s: int = 0;\n");
    for i in 0..LEAVES {
        src.push_str(&format!("    s = s + f{i}({i});\n"));
    }
    src.push_str("    return s;\n}\n");
    src
}

/// The relocated code window and entry offset, exactly as `install` hands
/// them to the verifier.
fn code_window(binary: &[u8], layout: &EnclaveLayout) -> (Vec<u8>, usize, Vec<usize>) {
    let mut mem = Memory::new(layout.clone());
    let program = load(binary, &mut mem).expect("honest binary loads");
    let code =
        mem.peek_bytes(layout.code.start, program.code_len).expect("loader wrote the code window");
    let entry = (program.entry_va - layout.code.start) as usize;
    (code, entry, program.ibt_offsets)
}

fn min_secs(samples: &[Duration]) -> f64 {
    samples.iter().map(Duration::as_secs_f64).fold(f64::INFINITY, f64::min)
}

fn print_table() {
    println!(
        "\n=== Ablation: incremental vs full serial verify (1-leaf patch, P1-P6+elision) ===\n"
    );
    let layout = EnclaveLayout::new(MemConfig::small());
    let policy = PolicySet::full().with_elision();
    let base = produce_for_layout(&star_src(1), &policy, &layout).expect("compiles").serialize();
    let patched =
        produce_for_layout(&star_src(1_000_003), &policy, &layout).expect("compiles").serialize();
    let (base_code, base_entry, base_ibt) = code_window(&base, &layout);
    let (code, entry, ibt) = code_window(&patched, &layout);

    // Warm the memo on the base binary and pin the incremental verdicts to
    // the serial ones before timing anything.
    let mut warm = IncrementalCache::new();
    let serial_base = verify_with_layout(&base_code, base_entry, &base_ibt, &policy, &layout)
        .expect("base verifies");
    let incr_base =
        verify_incremental(&base_code, base_entry, &base_ibt, &policy, &layout, &mut warm)
            .expect("base verifies incrementally");
    assert_eq!(serial_base.insts, incr_base.insts, "base: instruction lists diverged");
    assert_eq!(serial_base.instances, incr_base.instances, "base: instances diverged");
    let functions = warm.last_stats().misses;
    assert!(functions as usize > LEAVES, "main + {LEAVES} leaves are distinct functions");

    let serial_patched =
        verify_with_layout(&code, entry, &ibt, &policy, &layout).expect("patch verifies");
    {
        let mut probe = warm.clone();
        let v = verify_incremental(&code, entry, &ibt, &policy, &layout, &mut probe)
            .expect("patch verifies incrementally");
        assert_eq!(serial_patched.insts, v.insts, "patch: instruction lists diverged");
        assert_eq!(serial_patched.instances, v.instances, "patch: instances diverged");
        let s = probe.last_stats();
        assert_eq!(s.misses + s.invalidated, 1, "exactly the patched leaf re-verifies ({s:?})");
        assert_eq!(s.hits, functions - 1, "every other function replays ({s:?})");
    }

    // Interleave the two sides so drift hits both equally; each timed
    // incremental sample clones the warm memo, so every sample pays the
    // same 1-function re-verify (never a 0-function replay).
    let mut serial = Vec::with_capacity(SAMPLES);
    let mut incremental = Vec::with_capacity(SAMPLES);
    for i in 0..=SAMPLES {
        let t0 = Instant::now();
        let s = verify_with_layout(&code, entry, &ibt, &policy, &layout);
        let ds = t0.elapsed();
        let mut memo = warm.clone();
        let t1 = Instant::now();
        let v = verify_incremental(&code, entry, &ibt, &policy, &layout, &mut memo);
        let dv = t1.elapsed();
        assert!(s.is_ok() && v.is_ok());
        if i == 0 {
            continue;
        }
        serial.push(ds);
        incremental.push(dv);
    }
    let (ms, mi) = (min_secs(&serial), min_secs(&incremental));
    let speedup = ms / mi;
    println!("{:<28} {:>12} {:>12} {:>9}", "workload", "serial us", "incr us", "speedup");
    println!("{:-<64}", "");
    println!(
        "{:<28} {:>12.1} {:>12.1} {:>8.2}x",
        format!("1-leaf patch ({} fns)", functions),
        ms * 1e6,
        mi * 1e6,
        speedup
    );
    println!("{:-<64}", "");
    println!(
        "\nwarm 1-function patch verify: {speedup:.2}x over full serial — asserted >= \
         {INCREMENTAL_FLOOR}x with NO core-count gate:\nboth sides are single-threaded, so this \
         baseline is enforceable by the trend gate\non every host, 1-core CI included.\n"
    );
    assert!(
        speedup >= INCREMENTAL_FLOOR,
        "incremental re-verify of a 1-leaf patch must be >= {INCREMENTAL_FLOOR}x faster than \
         full serial verify (serial {:.1}us vs incremental {:.1}us)",
        ms * 1e6,
        mi * 1e6
    );
}

fn bench(c: &mut Criterion) {
    print_table();
    // Trend-tracked Criterion series: the full serial verify and the warm
    // incremental re-verify of the same 1-leaf patch.
    let layout = EnclaveLayout::new(MemConfig::small());
    let policy = PolicySet::full().with_elision();
    let base = produce_for_layout(&star_src(1), &policy, &layout).expect("compiles").serialize();
    let patched =
        produce_for_layout(&star_src(1_000_003), &policy, &layout).expect("compiles").serialize();
    let (base_code, base_entry, base_ibt) = code_window(&base, &layout);
    let (code, entry, ibt) = code_window(&patched, &layout);
    let mut warm = IncrementalCache::new();
    verify_incremental(&base_code, base_entry, &base_ibt, &policy, &layout, &mut warm)
        .expect("base verifies");
    {
        let (code, ibt, layout) = (code.clone(), ibt.clone(), layout.clone());
        c.bench_function("incremental/patch_serial", move |b| {
            b.iter(|| verify_with_layout(&code, entry, &ibt, &policy, &layout))
        });
    }
    c.bench_function("incremental/patch_warm", move |b| {
        b.iter(|| {
            let mut memo = warm.clone();
            verify_incremental(&code, entry, &ibt, &policy, &layout, &mut memo)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench
}
criterion_main!(benches);
