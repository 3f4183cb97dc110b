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
