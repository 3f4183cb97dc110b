//! **Table I** — TCB comparison with other shielding runtimes.
//!
//! The paper's Table I compares the kLoC and binary size of each runtime's
//! core components. Our in-enclave TCB is the consumer (loader + verifier +
//! rewriter), the annotation template table and the P0 runtime; we count the
//! real lines of this repository and print them against the paper's
//! published numbers for Ryoan, SCONE, Graphene-SGX and Occlum.

use criterion::{criterion_group, criterion_main, Criterion};
use deflection_bench::tcb::{code_lines, total_lines, TCB_SOURCES};
use std::time::Duration;

fn print_table() {
    println!("\n=== Table I: TCB comparison (paper Section VI-A) ===\n");
    println!("{:<18} {:<34} {:>8}", "Runtime", "Core components", "kLoC");
    println!("{:-<64}", "");
    // Paper-reported numbers for the other shielding runtimes.
    for (runtime, component, kloc) in [
        ("Ryoan", "Eglibc", 892.0),
        ("", "NaCl sandbox", 216.0),
        ("", "Naclports", 460.0),
        ("SCONE", "OS shield and shim libc", 187.0),
        ("Graphene-SGX", "Glibc", 1200.0),
        ("", "LibPAL", 22.0),
        ("", "Graphene LibOS", 34.0),
        ("Occlum", "shim libc", 93.0),
        ("", "LibOS and PAL", 24.5),
    ] {
        println!("{runtime:<18} {component:<34} {kloc:>8.1}");
    }
    println!("{:-<64}", "");
    let mut total = 0usize;
    for (name, src) in TCB_SOURCES {
        let lines = code_lines(src);
        total += lines;
        println!(
            "{:<18} {:<34} {:>8.2}",
            if name == &TCB_SOURCES[0].0 { "DEFLECTION" } else { "" },
            name,
            lines as f64 / 1000.0
        );
    }
    println!("{:-<64}", "");
    println!(
        "{:<18} {:<34} {:>8.2}",
        "DEFLECTION total",
        "(measured from this repository)",
        total as f64 / 1000.0
    );
    println!(
        "\npaper: loader <600 LoC + verifier <700 LoC + 9.1 kLoC clipped Capstone;\n\
         ours: {total} LoC total (incl. the elision abstract interpreter the\n\
         verifier runs in-enclave) — same order, an order of magnitude below the\n\
         LibOSes.\n"
    );
    assert!(total < 5_000, "in-enclave TCB must stay small, got {total} LoC");
}

fn bench(c: &mut Criterion) {
    print_table();
    c.bench_function("tcb/line_count", |b| b.iter(total_lines));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(300));
    targets = bench
}
criterion_main!(benches);
