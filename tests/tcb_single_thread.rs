//! The counted in-enclave TCB runs on one thread: no counted line spawns
//! threads or takes a lock. The consumer verifies each binary once, on the
//! enclave thread that installs it, so thread and lock code in the TCB
//! would be lines to trust (and lock poisoning one more way to panic)
//! that no install needs.

use deflection_bench::tcb::{counted_lines, TCB_SOURCES};

#[test]
fn counted_tcb_names_no_thread_or_sync_module() {
    let offending: Vec<String> = TCB_SOURCES
        .iter()
        .flat_map(|(name, src)| {
            counted_lines(src)
                .filter(|l| l.contains("std::thread") || l.contains("std::sync"))
                .map(move |l| format!("{name}: {l}"))
        })
        .collect();
    assert!(offending.is_empty(), "counted TCB lines name std::thread/std::sync: {offending:?}");
}

/// The producer-side crate (the DCL compiler and its machine IR) never
/// runs in the enclave, so no counted line may name it: the annotation
/// templates are plain data, and only the uncounted producer turns them
/// into machine IR.
#[test]
fn counted_tcb_names_no_producer_crate() {
    let offending: Vec<String> = TCB_SOURCES
        .iter()
        .flat_map(|(name, src)| {
            counted_lines(src)
                .filter(|l| l.contains("deflection_lang"))
                .map(move |l| format!("{name}: {l}"))
        })
        .collect();
    assert!(offending.is_empty(), "counted TCB lines name deflection_lang: {offending:?}");
}
