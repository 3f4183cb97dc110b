//! Attested audit log, end to end: the ring records policy-relevant events
//! across installs and runs, wraps while keeping the newest events behind a
//! monotonic gap marker, and leaves the enclave only as a fixed-size record
//! sealed on the worker's nonce channel — so every tampered, truncated,
//! replayed or over-budget export fails closed.

use deflection_core::audit::{
    open_audit_export, AuditKind, AuditOpenError, AUDIT_CAPACITY, AUDIT_EXPORT_LEN,
};
use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::producer::produce;
use deflection_core::runtime::{BootstrapEnclave, EcallError};
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};

const FUEL: u64 = 10_000_000;
const OWNER_KEY: [u8; 32] = [0xA7; 32];

const SENDER: &str = "
    fn main() -> int {
        var n: int = input_len();
        var s: int = 0;
        var i: int = 0;
        while (i < n) { s = s + input_byte(i); i = i + 1; }
        output_byte(0, s & 0xFF);
        send(1);
        return s;
    }
";

fn manifest() -> Manifest {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    manifest
}

fn enclave_with(manifest: Manifest) -> (BootstrapEnclave, Vec<u8>) {
    let binary = produce(SENDER, &manifest.policy).unwrap().serialize();
    let mut enclave = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
    enclave.set_owner_session(OWNER_KEY);
    (enclave, binary)
}

#[test]
fn honest_run_export_roundtrips_with_install_first() {
    let (mut enclave, binary) = enclave_with(manifest());
    enclave.install_plain(&binary).unwrap();
    enclave.provide_input(&[1, 2, 3]).unwrap();
    let report = enclave.run(FUEL).unwrap();
    let sealed = enclave.ecall_export_audit().unwrap();
    // The export rides the same nonce channel as the run's sealed records:
    // channel 0, counter = number of records already sent.
    let log = open_audit_export(&OWNER_KEY, 0, report.records.len() as u64, &sealed).unwrap();
    assert_eq!(log.dropped(), 0);
    assert_eq!(log.events[0].kind, AuditKind::Install);
    assert_eq!(log.events[0].seq, 0);
    assert_eq!(log.next_seq, log.events.len() as u64);
}

#[test]
fn wraparound_keeps_newest_events_behind_a_gap_marker() {
    let (mut enclave, binary) = enclave_with(manifest());
    // Every adopt records one Install event; replayed installs skip the
    // consumer pipeline, so overflowing the ring is cheap.
    let prepared = enclave.install_capture(&binary).unwrap();
    let total = AUDIT_CAPACITY as u64 + 7;
    for _ in 1..total {
        enclave.install_replayed(&prepared).unwrap();
    }
    let sealed = enclave.ecall_export_audit().unwrap();
    let log = open_audit_export(&OWNER_KEY, 0, 0, &sealed).unwrap();
    assert_eq!(log.next_seq, total);
    assert_eq!(log.events.len(), AUDIT_CAPACITY);
    assert_eq!(log.dropped(), total - AUDIT_CAPACITY as u64, "gap marker counts the overwritten");
    // The survivors are exactly the newest events, contiguous up to next_seq.
    assert_eq!(log.events.first().unwrap().seq, log.dropped());
    assert_eq!(log.events.last().unwrap().seq, total - 1);
    assert!(log.events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
}

#[test]
fn every_bitflip_and_truncation_of_the_sealed_export_is_rejected() {
    let (mut enclave, binary) = enclave_with(manifest());
    enclave.install_plain(&binary).unwrap();
    let sealed = enclave.ecall_export_audit().unwrap();
    assert!(open_audit_export(&OWNER_KEY, 0, 0, &sealed).is_ok());
    // A flipped bit anywhere — header, ciphertext or MAC — must fail the
    // authenticated open; nothing about the log may be recoverable.
    for pos in 0..sealed.len() {
        let mut bad = sealed.clone();
        bad[pos] ^= 1;
        let err = open_audit_export(&OWNER_KEY, 0, 0, &bad).unwrap_err();
        assert!(matches!(err, AuditOpenError::Sealed(_)), "byte {pos}: unexpected {err:?}");
    }
    for cut in [0, 1, sealed.len() / 2, sealed.len() - 1] {
        let err = open_audit_export(&OWNER_KEY, 0, 0, &sealed[..cut]).unwrap_err();
        assert!(matches!(err, AuditOpenError::Sealed(_)), "cut {cut}: unexpected {err:?}");
    }
}

#[test]
fn cross_channel_and_cross_counter_replay_is_rejected() {
    let (mut enclave, binary) = enclave_with(manifest());
    // A pool slot exports on its own channel; replaying the blob into any
    // other (channel, counter) slot — or under another key — must fail.
    enclave.set_channel(3);
    enclave.install_plain(&binary).unwrap();
    let sealed = enclave.ecall_export_audit().unwrap();
    assert!(open_audit_export(&OWNER_KEY, 3, 0, &sealed).is_ok());
    for wrong_channel in [0, 2, 4] {
        assert!(matches!(
            open_audit_export(&OWNER_KEY, wrong_channel, 0, &sealed),
            Err(AuditOpenError::Sealed(_))
        ));
    }
    assert!(matches!(open_audit_export(&OWNER_KEY, 3, 1, &sealed), Err(AuditOpenError::Sealed(_))));
    assert!(matches!(
        open_audit_export(&[0xFF; 32], 3, 0, &sealed),
        Err(AuditOpenError::Sealed(_))
    ));
}

#[test]
fn export_fails_closed_when_the_run_budget_cannot_absorb_it() {
    let mut manifest = manifest();
    manifest.output_budget = AUDIT_EXPORT_LEN - 1;
    let (mut enclave, binary) = enclave_with(manifest);
    enclave.install_plain(&binary).unwrap();
    assert!(matches!(enclave.ecall_export_audit(), Err(EcallError::AuditBudget)));
}

#[test]
fn export_fails_closed_when_the_lifetime_budget_is_exhausted() {
    let mut manifest = manifest();
    manifest.lifetime_output_budget = Some(AUDIT_EXPORT_LEN as u64 + 1);
    let (mut enclave, binary) = enclave_with(manifest);
    enclave.install_plain(&binary).unwrap();
    // The first export fits the lifetime ledger; the second would cross it
    // and must be refused without sealing anything.
    let first = enclave.ecall_export_audit().unwrap();
    assert!(open_audit_export(&OWNER_KEY, 0, 0, &first).is_ok());
    let seq_before_refusal = enclave.audit_next_seq();
    assert!(matches!(enclave.ecall_export_audit(), Err(EcallError::AuditBudget)));
    assert_eq!(enclave.lifetime_sent_bytes(), AUDIT_EXPORT_LEN as u64, "refusal sealed nothing");
    // The refusal itself is a policy-relevant event: it lands in the ring
    // even though this ring can no longer be exported from this instance.
    assert_eq!(enclave.audit_next_seq(), seq_before_refusal + 1);
}

#[test]
fn budget_refusals_are_recorded_as_audit_events() {
    use deflection_sgx_sim::vm::RunExit;
    let mut manifest = manifest();
    manifest.output_budget = 0; // every send is refused
    let (mut enclave, binary) = enclave_with(manifest);
    enclave.install_plain(&binary).unwrap();
    enclave.provide_input(&[5]).unwrap();
    let report = enclave.run(FUEL).unwrap();
    // The refused send faults the run; the ring now holds the install, the
    // budget exhaustion and the guard trip from the faulted run.
    assert!(matches!(report.exit, RunExit::Fault(_)));
    assert!(enclave.audit_next_seq() >= 3);
}
