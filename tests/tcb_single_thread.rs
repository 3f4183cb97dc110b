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

/// Crates the counted lines may name besides their own. Everything else a
/// counted line links would run in the enclave uncounted: the producer's
/// compiler (`deflection_lang`), the host's telemetry
/// (`deflection_telemetry`), the attestation and workload crates.
const ALLOWED_CRATES: &[&str] = &[
    // Counted, or type definitions the counted files share.
    "deflection_isa",
    "deflection_obj",
    "deflection_analysis",
    // The hardware model: memory, CPU and VM stand in for SGX silicon.
    "deflection_sgx_sim",
    // The SGX SDK analogue (AEAD, hashing, key derivation).
    "deflection_crypto",
];

/// Every `deflection_*` crate path named on a counted line.
fn named_crates(line: &str) -> impl Iterator<Item = &str> {
    line.match_indices("deflection_").map(move |(at, _)| {
        let end = line[at..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map_or(line.len(), |n| at + n);
        &line[at..end]
    })
}

/// No counted line names a crate off [`ALLOWED_CRATES`]: the producer-side
/// compiler never runs in the enclave (the annotation templates are plain
/// data), and the host records telemetry at its own side of each ECall.
#[test]
fn counted_tcb_names_only_allowed_crates() {
    let offending: Vec<String> = TCB_SOURCES
        .iter()
        .flat_map(|(name, src)| {
            counted_lines(src)
                .filter(|l| named_crates(l).any(|c| !ALLOWED_CRATES.contains(&c)))
                .map(move |l| format!("{name}: {l}"))
        })
        .collect();
    assert!(
        offending.is_empty(),
        "counted TCB lines name crates off the allow-list: {offending:?}"
    );
}

#[test]
fn crate_scan_catches_the_producer_and_telemetry_crates() {
    let named: Vec<&str> =
        named_crates("use deflection_lang::mir; deflection_telemetry::METRICS.x()").collect();
    assert_eq!(named, ["deflection_lang", "deflection_telemetry"]);
    assert_eq!(named_crates("use deflection_isa::Inst;").collect::<Vec<_>>(), ["deflection_isa"]);
}
