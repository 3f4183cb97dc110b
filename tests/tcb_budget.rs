//! The counted in-enclave TCB stays under the bound the `table1_tcb` bench
//! asserts, checked from the same source list on every test run.

use deflection_bench::tcb::{code_lines, total_lines, TCB_SOURCES};

#[test]
fn counted_tcb_stays_under_budget() {
    let total = total_lines();
    let per_file: Vec<String> =
        TCB_SOURCES.iter().map(|(name, src)| format!("{name}: {}", code_lines(src))).collect();
    assert!(total < 5_000, "in-enclave TCB must stay small, got {total} LoC: {per_file:?}");
}
