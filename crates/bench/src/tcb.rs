//! The counted in-enclave TCB: which sources run inside the bootstrap
//! enclave and how their lines are counted.
//!
//! The `table1_tcb` bench prints this count against the paper's Table I,
//! `tests/tcb_budget.rs` holds it under the same bound in the test suite,
//! and `tests/tcb_panic_sites.rs` ratchets the panic sites in the same
//! lines, so all three read the one list below.

/// In-enclave TCB sources, embedded so the count reflects this build.
pub const TCB_SOURCES: &[(&str, &str)] = &[
    ("consumer/loader", include_str!("../../core/src/consumer/loader.rs")),
    ("consumer/verifier", include_str!("../../core/src/consumer/verifier.rs")),
    ("consumer/rewriter", include_str!("../../core/src/consumer/rewriter.rs")),
    ("consumer/mod", include_str!("../../core/src/consumer/mod.rs")),
    ("annotations (matchers)", include_str!("../../core/src/annotations.rs")),
    ("runtime (P0 wrappers)", include_str!("../../core/src/runtime.rs")),
    // The sealed install cache runs in-enclave: it derives the sealing
    // key, verifies the MAC and rebuilds the image before anything runs.
    ("sealed install cache", include_str!("../../core/src/sealed.rs")),
    // The audit ring also lives in-enclave: it records policy-relevant
    // events and serializes the fixed-size export the runtime seals.
    ("audit log (ring)", include_str!("../../core/src/audit.rs")),
    ("policy/manifest", include_str!("../../core/src/policy.rs")),
    ("disassembler engine", include_str!("../../isa/src/disasm.rs")),
    ("instruction decoder", include_str!("../../isa/src/decode.rs")),
    ("object parser", include_str!("../../obj/src/format.rs")),
    // Elision support (`elide_guards`): the verifier re-derives every
    // guard-elision proof with its own in-enclave abstract interpreter, so
    // the whole analysis crate joins the TCB.
    ("analysis (absint)", include_str!("../../analysis/src/absint.rs")),
    ("analysis (cfg/dom)", include_str!("../../analysis/src/cfg.rs")),
    ("analysis (interval)", include_str!("../../analysis/src/interval.rs")),
    ("analysis (api)", include_str!("../../analysis/src/lib.rs")),
];

/// The non-blank, non-comment lines, trimmed, that are actually compiled
/// into the enclave: each file keeps its `#[cfg(test)]` module last, so
/// everything from that marker on is test harness and never part of the
/// TCB.
pub fn counted_lines(src: &str) -> impl Iterator<Item = &str> {
    src.lines()
        .map(str::trim)
        .take_while(|l| *l != "#[cfg(test)]")
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
}

/// Number of [`counted_lines`] in `src`.
#[must_use]
pub fn code_lines(src: &str) -> usize {
    counted_lines(src).count()
}

/// Counted lines over every entry of [`TCB_SOURCES`].
#[must_use]
pub fn total_lines() -> usize {
    TCB_SOURCES.iter().map(|(_, src)| code_lines(src)).sum()
}
