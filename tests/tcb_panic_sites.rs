//! Panic sites in the counted in-enclave TCB only ever go down. The
//! consumer parses and verifies attacker-chosen binaries inside the
//! enclave, where a panic is a denial of service and, in the pool, a
//! quarantine; each site removed is one fewer way for input to crash it.

use deflection_bench::tcb::{counted_lines, TCB_SOURCES};

/// Panic sites in the counted TCB lines ([`TCB_SOURCES`], cut at
/// `#[cfg(test)]`, comment lines skipped). A change that lowers the count
/// must pin the lower count here in the same change, so the ratchet never
/// loosens; the test fails in both directions to enforce that.
const PINNED_PANIC_SITES: usize = 47;

/// `.unwrap()`, `.expect(`, `panic!`, `unreachable!`, `assert!`,
/// `assert_eq!` and `assert_ne!` on one line. The `debug_assert*` forms
/// are not counted: they compile out of the release enclave.
fn panic_sites(line: &str) -> usize {
    let calls: usize = [".unwrap()", ".expect(", "panic!", "unreachable!"]
        .iter()
        .map(|p| line.matches(p).count())
        .sum();
    let asserts: usize = ["assert!", "assert_eq!", "assert_ne!"]
        .iter()
        .flat_map(|p| line.match_indices(p))
        .filter(|(at, _)| !line[..*at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
        .count();
    calls + asserts
}

#[test]
fn counted_tcb_panic_sites_never_grow() {
    let per_file: Vec<(&str, usize)> = TCB_SOURCES
        .iter()
        .map(|(name, src)| (*name, counted_lines(src).map(panic_sites).sum()))
        .filter(|(_, n)| *n > 0)
        .collect();
    let total: usize = per_file.iter().map(|(_, n)| n).sum();
    assert!(
        total <= PINNED_PANIC_SITES,
        "counted TCB grew to {total} panic sites (pinned {PINNED_PANIC_SITES}): {per_file:?}"
    );
    assert!(
        total == PINNED_PANIC_SITES,
        "counted TCB is down to {total} panic sites: pin {total} in PINNED_PANIC_SITES"
    );
}

#[test]
fn panic_site_scan_counts_release_sites_only() {
    assert_eq!(panic_sites("let x = a.unwrap() + b.expect(\"y\");"), 2);
    assert_eq!(panic_sites("assert!(ok); assert_eq!(a, b); assert_ne!(a, c);"), 3);
    assert_eq!(panic_sites("debug_assert!(ok); debug_assert_eq!(a, b);"), 0);
    assert_eq!(panic_sites("_ => unreachable!(), None => panic!(\"no\"),"), 2);
    assert_eq!(panic_sites("let v = a.unwrap_or(0);"), 0);
}
