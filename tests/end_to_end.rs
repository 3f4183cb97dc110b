//! Full-system integration: attestation → sealed delivery → verification →
//! execution → sealed results, across all policy levels.

use deflection::attest::{establish_sessions, AttestationService, HandshakeParty, Role};
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::producer::produce;
use deflection::core::runtime::{delivery_nonce, open_record, BootstrapEnclave};
use deflection::crypto::aead::ChaCha20Poly1305;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::measure::Platform;
use deflection::sgx::vm::RunExit;

const SERVICE: &str = "
fn main() -> int {
    var n: int = input_len();
    var sum: int = 0;
    var i: int = 0;
    while (i < n) {
        sum = sum + input_byte(i);
        output_byte(i, input_byte(i) ^ 0x5A);
        i = i + 1;
    }
    send(n);
    return sum;
}
";

fn attested_enclave(policy: PolicySet) -> (BootstrapEnclave, [u8; 32], [u8; 32]) {
    let platform = Platform::new(7, &[1u8; 32]);
    let mut service = AttestationService::new();
    service.register_platform(&platform);
    let mut manifest = Manifest::ccaas();
    manifest.policy = policy;
    let enclave = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
    let measurement = enclave.measurement();
    let mut owner = HandshakeParty::new(Role::DataOwner, b"owner");
    let mut provider = HandshakeParty::new(Role::CodeProvider, b"provider");
    let (owner_key, provider_key, ..) =
        establish_sessions(&platform, &service, measurement, &mut owner, &mut provider)
            .expect("attestation succeeds");
    (enclave, owner_key, provider_key)
}

#[test]
fn attested_sealed_flow_at_every_policy_level() {
    for (name, policy) in PolicySet::levels() {
        let (mut enclave, owner_key, provider_key) = attested_enclave(policy);
        enclave.set_owner_session(owner_key);
        enclave.set_provider_session(provider_key);

        let binary = produce(SERVICE, &policy).expect("compiles").serialize();
        let sealed_bin = ChaCha20Poly1305::new(&provider_key).seal(
            &delivery_nonce(b"BIN\0", 0),
            b"deflection-binary",
            &binary,
        );
        enclave.ecall_receive_binary(&sealed_bin).expect("install succeeds");

        let data = b"integration-data";
        let sealed_data = ChaCha20Poly1305::new(&owner_key).seal(
            &delivery_nonce(b"DAT\0", 1),
            b"deflection-userdata",
            data,
        );
        enclave.ecall_receive_userdata(&sealed_data).expect("data accepted");

        let report = enclave.run(50_000_000).expect("runs");
        let expected_sum: u64 = data.iter().map(|&b| b as u64).sum();
        assert_eq!(report.exit, RunExit::Halted { exit: expected_sum }, "level {name}");
        assert_eq!(report.untrusted_writes, 0, "level {name} must not leak");

        let out = open_record(&owner_key, 0, 0, &report.records[0]).expect("owner can open");
        let expected: Vec<u8> = data.iter().map(|&b| b ^ 0x5A).collect();
        assert_eq!(out, expected, "level {name}");
    }
}

#[test]
fn instrumented_binary_costs_more_instructions() {
    let mut counts = Vec::new();
    for (_, policy) in PolicySet::levels() {
        let (mut enclave, owner_key, _) = attested_enclave(policy);
        enclave.set_owner_session(owner_key);
        let binary = produce(SERVICE, &policy).expect("compiles").serialize();
        enclave.install_plain(&binary).expect("installs");
        enclave.provide_input(b"cost-probe-data").expect("input");
        let report = enclave.run(50_000_000).expect("runs");
        counts.push(report.stats.instructions);
    }
    // P1 < P1+P2 < P1-P5 < P1-P6 in executed instructions.
    assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
}

#[test]
fn policy_mismatch_is_rejected_before_data_arrives() {
    let (mut enclave, _owner_key, provider_key) = attested_enclave(PolicySet::full());
    enclave.set_provider_session(provider_key);
    // Provider tries to slip in a binary with weaker instrumentation.
    let weak = produce(SERVICE, &PolicySet::p1()).expect("compiles").serialize();
    let sealed = ChaCha20Poly1305::new(&provider_key).seal(
        &delivery_nonce(b"BIN\0", 0),
        b"deflection-binary",
        &weak,
    );
    assert!(enclave.ecall_receive_binary(&sealed).is_err());
}

#[test]
fn code_hash_reported_to_owner_matches_delivery() {
    let (mut enclave, _, provider_key) = attested_enclave(PolicySet::p1());
    enclave.set_provider_session(provider_key);
    let binary = produce(SERVICE, &PolicySet::p1()).expect("compiles").serialize();
    let sealed = ChaCha20Poly1305::new(&provider_key).seal(
        &delivery_nonce(b"BIN\0", 0),
        b"deflection-binary",
        &binary,
    );
    let reported = enclave.ecall_receive_binary(&sealed).expect("installs");
    // The owner can independently verify the service hash it was promised
    // (paper Section III-A: the enclave extracts and reports the hash).
    assert_eq!(reported, deflection::crypto::sha256::sha256(&binary));
}

#[test]
fn multiple_runs_reuse_installed_binary() {
    let (mut enclave, owner_key, _) = attested_enclave(PolicySet::full());
    enclave.set_owner_session(owner_key);
    let binary = produce(SERVICE, &PolicySet::full()).expect("compiles").serialize();
    enclave.install_plain(&binary).expect("installs");
    enclave.provide_input(b"abc").expect("input");
    let first = enclave.run(50_000_000).expect("runs");
    let second = enclave.run(50_000_000).expect("runs");
    assert_eq!(first.exit, second.exit);
}

/// A message that fails authentication consumes no delivery counter: the
/// genuine message for that counter still arrives after a forgery, and a
/// message already accepted stays refused.
#[test]
fn forged_delivery_does_not_advance_the_receive_counter() {
    let policy = PolicySet::full();
    let (mut enclave, owner_key, provider_key) = attested_enclave(policy);
    enclave.set_owner_session(owner_key);
    enclave.set_provider_session(provider_key);
    let binary = produce(SERVICE, &policy).expect("compiles").serialize();
    let bin = |counter| {
        ChaCha20Poly1305::new(&provider_key).seal(
            &delivery_nonce(b"BIN\0", counter),
            b"deflection-binary",
            &binary,
        )
    };
    let dat = |counter, data: &[u8]| {
        ChaCha20Poly1305::new(&owner_key).seal(
            &delivery_nonce(b"DAT\0", counter),
            b"deflection-userdata",
            data,
        )
    };

    let mut forged_bin = bin(0);
    forged_bin[3] ^= 1;
    assert!(enclave.ecall_receive_binary(&forged_bin).is_err(), "forged binary accepted");
    let genuine_bin = bin(0);
    enclave.ecall_receive_binary(&genuine_bin).expect("genuine counter-0 binary installs");
    assert!(enclave.ecall_receive_binary(&genuine_bin).is_err(), "replayed binary accepted");

    let mut forged_dat = dat(1, b"forged");
    forged_dat[0] ^= 1;
    assert!(enclave.ecall_receive_userdata(&forged_dat).is_err(), "forged data accepted");
    let genuine_dat = dat(1, b"genuine");
    enclave.ecall_receive_userdata(&genuine_dat).expect("genuine counter-1 data accepted");
    assert!(enclave.ecall_receive_userdata(&genuine_dat).is_err(), "replayed data accepted");

    let report = enclave.run(50_000_000).expect("runs");
    let expected_sum: u64 = b"genuine".iter().map(|&b| u64::from(b)).sum();
    assert_eq!(report.exit, RunExit::Halted { exit: expected_sum });
}
