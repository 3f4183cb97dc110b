//! Property-based soundness of the verifier: *whatever bytes the verifier
//! accepts must not leak*. We mutate honestly instrumented binaries at
//! random positions; the consumer must (a) never panic, and (b) whenever it
//! still accepts the mutant, the mutant must run without a single
//! unmediated write outside the enclave.
//!
//! This is the load-bearing property of the whole DEFLECTION design: the
//! verifier, not the producer, is in the TCB.

use deflection::core::annotations::TemplateKind;
use deflection::core::consumer::{install, InstallError, VerifyError};
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::producer::{produce, produce_stripped};
use deflection::core::runtime::BootstrapEnclave;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::Memory;
use proptest::prelude::*;
use std::collections::HashSet;

const VICTIM: &str = "
var data: [int; 32];
fn helper(x: int) -> int { return x * 3 + 1; }
fn main() -> int {
    var n: int = input_len();
    var f: fn(int) -> int = &helper;
    var i: int = 0;
    while (i < 32) {
        data[i] = f(i + n);
        i = i + 1;
    }
    output_byte(0, data[31] & 0xFF);
    send(1);
    return data[31];
}
";

fn instrumented_binary() -> Vec<u8> {
    produce(VICTIM, &PolicySet::full()).expect("compiles").serialize()
}

/// The strict consumer, and the eliding one that may accept an unguarded
/// site only on its own in-enclave analysis proof.
fn manifests() -> [Manifest; 2] {
    let mut elide = Manifest::ccaas();
    elide.policy = PolicySet::full().with_elision();
    [Manifest::ccaas(), elide]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accepted_mutants_never_leak(
        positions in proptest::collection::vec((0usize..20_000, any::<u8>()), 1..6)
    ) {
        let mut binary = instrumented_binary();
        for (pos, xor) in positions {
            let idx = pos % binary.len();
            binary[idx] ^= xor;
        }
        for manifest in manifests() {
            let elide = manifest.policy.elide_guards;
            let mut enclave = BootstrapEnclave::new(
                EnclaveLayout::new(MemConfig::small()),
                manifest,
            );
            // (a) The consumer never panics on mutated input.
            match enclave.install_plain(&binary) {
                Err(_) => { /* rejected — always sound */ }
                Ok(_) => {
                    enclave.set_owner_session([1u8; 32]);
                    let _ = enclave.provide_input(b"probe");
                    // (b) If accepted, the run may halt/abort/fault/stall —
                    // but it must never write untrusted memory.
                    let report = enclave.run(3_000_000).expect("installed");
                    prop_assert_eq!(
                        report.untrusted_writes,
                        0,
                        "verifier (elide_guards = {}) accepted a leaking mutant (exit {:?})",
                        elide,
                        report.exit
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_binaries_never_panic(cut in 1usize..5_000) {
        let binary = instrumented_binary();
        // Skip (rather than wrap) out-of-range cuts so every exercised case
        // is a genuine strict prefix of the binary.
        prop_assume!(cut < binary.len());
        let manifest = Manifest::ccaas();
        let mut enclave = BootstrapEnclave::new(
            EnclaveLayout::new(MemConfig::small()),
            manifest,
        );
        // Truncation must always be rejected cleanly.
        prop_assert!(enclave.install_plain(&binary[..cut]).is_err());
    }
}

/// Counts the P1/P2 guard instances the verifier finds in the honest
/// fully instrumented VICTIM binary.
fn guard_instance_counts() -> (usize, usize) {
    let manifest = Manifest::ccaas();
    let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
    let installed =
        install(&instrumented_binary(), &manifest, &mut mem).expect("honest binary verifies");
    let stores =
        installed.verified.instances.iter().filter(|i| i.kind == TemplateKind::StoreGuard).count();
    let rsps =
        installed.verified.instances.iter().filter(|i| i.kind == TemplateKind::RspGuard).count();
    (stores, rsps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Structured mutation: remove exactly one randomly chosen store
    /// guard. The strict verifier must pinpoint it as an unguarded store —
    /// never accept, never misclassify, never panic.
    #[test]
    fn any_stripped_store_guard_is_detected(seed in any::<usize>()) {
        let (stores, _) = guard_instance_counts();
        assert!(stores > 0, "VICTIM must have store-guard sites");
        let ordinal = seed % stores;
        let stripped = produce_stripped(
            VICTIM,
            &PolicySet::full(),
            &HashSet::from([ordinal]),
            &HashSet::new(),
        )
        .expect("compiles");
        let manifest = Manifest::ccaas();
        let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
        let err = install(&stripped.serialize(), &manifest, &mut mem)
            .expect_err("stripped store guard must be rejected");
        prop_assert!(
            matches!(err, InstallError::Verify(VerifyError::UnguardedStore { .. })),
            "ordinal {ordinal}: {err:?}"
        );
    }

    /// Same property for P2: removing any single rsp guard must surface as
    /// an unguarded rsp write under the strict policy.
    #[test]
    fn any_stripped_rsp_guard_is_detected(seed in any::<usize>()) {
        let (_, rsps) = guard_instance_counts();
        assert!(rsps > 0, "VICTIM must have rsp-guard sites");
        let ordinal = seed % rsps;
        let stripped = produce_stripped(
            VICTIM,
            &PolicySet::full(),
            &HashSet::new(),
            &HashSet::from([ordinal]),
        )
        .expect("compiles");
        let manifest = Manifest::ccaas();
        let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
        let err = install(&stripped.serialize(), &manifest, &mut mem)
            .expect_err("stripped rsp guard must be rejected");
        prop_assert!(
            matches!(err, InstallError::Verify(VerifyError::UnguardedRspWrite { .. })),
            "ordinal {ordinal}: {err:?}"
        );
    }
}

#[test]
fn unmutated_binary_accepted_and_leak_free() {
    // VICTIM calls through a function pointer in a loop, so the eliding
    // consumer must also accept its indirect-branch table.
    for manifest in manifests() {
        let mut enclave = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
        enclave.set_owner_session([1u8; 32]);
        enclave.install_plain(&instrumented_binary()).expect("honest binary accepted");
        enclave.provide_input(b"probe").expect("input");
        let report = enclave.run(10_000_000).expect("runs");
        assert!(matches!(report.exit, deflection::sgx::vm::RunExit::Halted { .. }));
        assert_eq!(report.untrusted_writes, 0);
    }
}
