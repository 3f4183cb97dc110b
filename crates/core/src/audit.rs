//! The attested in-enclave audit log: a fixed-capacity ring recording
//! policy-relevant events (installs, guard trips, AEX injections, budget
//! exhaustions) with monotonic sequence numbers.
//!
//! # Covert-channel argument (DESIGN.md §5e)
//!
//! The log is an *output* of the enclave, so it is treated exactly like a
//! P0 record: it leaves the enclave only through
//! [`crate::runtime::BootstrapEnclave::ecall_export_audit`], which seals
//! the ring with [`crate::runtime::seal_record`] on the worker's own nonce
//! channel and charges the export against the per-run and lifetime output
//! budgets. The export is always [`AUDIT_EXPORT_LEN`] bytes regardless of
//! how many events fired (fixed-size records), the event vocabulary is the
//! closed [`AuditKind`] enum, and the per-event argument is a value the
//! runtime itself computes (a code-hash prefix, an instruction count, a
//! refused length) — never attacker-controlled payload bytes. A malicious
//! program therefore cannot use the audit path to move more information
//! than the budget already permits.

use crate::runtime::open_record;
use deflection_crypto::CryptoError;

/// Ring capacity: the newest [`AUDIT_CAPACITY`] events are retained.
pub const AUDIT_CAPACITY: usize = 64;

/// Serialized bytes per event: `seq (u64 LE) ‖ kind (u8) ‖ arg (u64 LE)`.
pub const AUDIT_ENTRY_LEN: usize = 17;

/// Export framing magic.
pub const AUDIT_MAGIC: &[u8; 8] = b"DFLAUDT1";

/// Fixed plaintext length of every audit export: magic, `first_seq`,
/// `next_seq`, `count`, then [`AUDIT_CAPACITY`] entry slots (zero-padded).
pub const AUDIT_EXPORT_LEN: usize = 8 + 8 + 8 + 8 + AUDIT_CAPACITY * AUDIT_ENTRY_LEN;

/// The closed vocabulary of auditable events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AuditKind {
    /// A binary passed the consumer pipeline and was adopted; `arg` is the
    /// first 8 bytes of its code hash (little-endian).
    Install = 1,
    /// A run ended in a policy fault (guard trip, denied OCall, …); `arg`
    /// names the policy: the annotation's abort code
    /// (`policy::abort_codes`), or 0 for a hardware fault.
    GuardTrip = 2,
    /// A run experienced injected asynchronous exits; `arg` is the count.
    AexInjected = 3,
    /// A `send` was refused by the per-run output budget; `arg` is the
    /// refused length.
    RunBudgetExhausted = 4,
    /// A `send` or audit export was refused by the lifetime output ledger;
    /// `arg` is the refused length.
    LifetimeBudgetExhausted = 5,
}

impl AuditKind {
    /// Decodes a serialized kind byte.
    #[must_use]
    pub fn from_u8(v: u8) -> Option<AuditKind> {
        match v {
            1 => Some(AuditKind::Install),
            2 => Some(AuditKind::GuardTrip),
            3 => Some(AuditKind::AexInjected),
            4 => Some(AuditKind::RunBudgetExhausted),
            5 => Some(AuditKind::LifetimeBudgetExhausted),
            _ => None,
        }
    }
}

/// One audit event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditEvent {
    /// Monotonic sequence number, assigned at record time and never reused
    /// by this slot (pools carry it across respawns like the send nonce).
    pub seq: u64,
    /// What happened.
    pub kind: AuditKind,
    /// Runtime-computed argument (see [`AuditKind`]).
    pub arg: u64,
}

/// The in-enclave ring. Fixed capacity: when full, the oldest event is
/// overwritten and the export's `first_seq` field becomes the gap marker
/// (every event below it was dropped).
#[derive(Debug, Clone)]
pub struct AuditRing {
    events: Vec<AuditEvent>,
    next_seq: u64,
}

impl AuditRing {
    /// An empty ring with sequence numbers starting at 0.
    #[must_use]
    pub fn new() -> AuditRing {
        AuditRing { events: Vec::with_capacity(AUDIT_CAPACITY), next_seq: 0 }
    }

    /// Records one event, assigning the next sequence number; drops the
    /// oldest retained event when the ring is full.
    ///
    /// Deliberately *not* instrumented: a host-visible counter bumped here
    /// would leak the count and timing of in-run policy events outside the
    /// sealed, budget-charged export path. Telemetry counts audit events
    /// only when the owner decodes an authenticated export
    /// ([`open_audit_export`]), after the information has already left the
    /// enclave through the charged channel.
    pub fn record(&mut self, kind: AuditKind, arg: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.events.len() == AUDIT_CAPACITY {
            self.events.remove(0);
        }
        self.events.push(AuditEvent { seq, kind, arg });
        seq
    }

    /// Retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> &[AuditEvent] {
        &self.events
    }

    /// The sequence number the next recorded event will get (equals the
    /// total number of events ever recorded).
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Serializes the ring into its fixed [`AUDIT_EXPORT_LEN`]-byte export
    /// form. Length is independent of how many events fired.
    #[must_use]
    pub fn export_bytes(&self) -> Vec<u8> {
        let first_seq = self.events.first().map_or(self.next_seq, |e| e.seq);
        let mut out = Vec::with_capacity(AUDIT_EXPORT_LEN);
        out.extend_from_slice(AUDIT_MAGIC);
        out.extend_from_slice(&first_seq.to_le_bytes());
        out.extend_from_slice(&self.next_seq.to_le_bytes());
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        for e in &self.events {
            out.extend_from_slice(&e.seq.to_le_bytes());
            out.push(e.kind as u8);
            out.extend_from_slice(&e.arg.to_le_bytes());
        }
        out.resize(AUDIT_EXPORT_LEN, 0);
        out
    }
}

impl Default for AuditRing {
    fn default() -> Self {
        AuditRing::new()
    }
}

/// A parsed audit export (the owner's view).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditExport {
    /// Sequence number of the oldest retained event; when greater than 0
    /// the ring wrapped and exactly `first_seq` older events were dropped.
    pub first_seq: u64,
    /// Sequence number the next event would get.
    pub next_seq: u64,
    /// Retained events, oldest first.
    pub events: Vec<AuditEvent>,
}

impl AuditExport {
    /// How many events were overwritten before this export (the gap
    /// marker): 0 means the log is complete since the slot started.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.first_seq
    }
}

/// Why an audit export failed to open or parse on the owner's side.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AuditOpenError {
    /// AEAD authentication failed (tamper, truncation, wrong channel or
    /// counter).
    Sealed(CryptoError),
    /// Authenticated plaintext is not a well-formed audit export.
    Malformed(&'static str),
}

impl std::fmt::Display for AuditOpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditOpenError::Sealed(e) => write!(f, "audit export rejected: {e}"),
            AuditOpenError::Malformed(why) => write!(f, "audit export malformed: {why}"),
        }
    }
}

impl std::error::Error for AuditOpenError {}

/// Parses the fixed-format plaintext of an audit export.
///
/// # Errors
///
/// Rejects wrong length, bad magic, an inconsistent event count, and
/// non-monotonic or unknown-kind entries.
pub fn parse_audit_export(plain: &[u8]) -> Result<AuditExport, AuditOpenError> {
    if plain.len() != AUDIT_EXPORT_LEN {
        return Err(AuditOpenError::Malformed("wrong export length"));
    }
    if &plain[..8] != AUDIT_MAGIC {
        return Err(AuditOpenError::Malformed("bad magic"));
    }
    let word = |i: usize| u64::from_le_bytes(plain[i..i + 8].try_into().expect("sliced"));
    let (first_seq, next_seq, count) = (word(8), word(16), word(24));
    if count > AUDIT_CAPACITY as u64 {
        return Err(AuditOpenError::Malformed("count exceeds capacity"));
    }
    let mut events = Vec::with_capacity(count as usize);
    for k in 0..count as usize {
        let base = 32 + k * AUDIT_ENTRY_LEN;
        let seq = word(base);
        let kind = AuditKind::from_u8(plain[base + 8])
            .ok_or(AuditOpenError::Malformed("unknown event kind"))?;
        let arg = word(base + 9);
        if events.last().is_some_and(|p: &AuditEvent| seq != p.seq + 1)
            || (k == 0 && seq != first_seq)
        {
            return Err(AuditOpenError::Malformed("non-monotonic sequence"));
        }
        events.push(AuditEvent { seq, kind, arg });
    }
    if events.last().map_or(first_seq, |e| e.seq + 1) != next_seq {
        return Err(AuditOpenError::Malformed("sequence header mismatch"));
    }
    Ok(AuditExport { first_seq, next_seq, events })
}

/// Opens a sealed audit export (owner side): authenticates the record on
/// the worker's `(channel, counter)` nonce lane, then parses the fixed
/// format.
///
/// # Errors
///
/// Fails on AEAD rejection (tamper, truncation, replay on the wrong
/// channel/counter) or a malformed plaintext.
pub fn open_audit_export(
    key: &[u8; 32],
    channel: u32,
    counter: u64,
    sealed: &[u8],
) -> Result<AuditExport, AuditOpenError> {
    let plain = open_record(key, channel, counter, sealed).map_err(AuditOpenError::Sealed)?;
    let export = parse_audit_export(&plain)?;
    // Owner-side, post-release accounting: by the time an export opens the
    // event count has already left the enclave sealed and budget-charged,
    // so the counter reveals nothing the owner did not just learn.
    deflection_telemetry::METRICS.audit_events.add(export.events.len() as u64);
    Ok(export)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_assigns_monotonic_seqs_and_exports_roundtrip() {
        let mut ring = AuditRing::new();
        assert_eq!(ring.record(AuditKind::Install, 7), 0);
        assert_eq!(ring.record(AuditKind::GuardTrip, 99), 1);
        let export = parse_audit_export(&ring.export_bytes()).unwrap();
        assert_eq!(export.dropped(), 0);
        assert_eq!(export.next_seq, 2);
        assert_eq!(
            export.events,
            vec![
                AuditEvent { seq: 0, kind: AuditKind::Install, arg: 7 },
                AuditEvent { seq: 1, kind: AuditKind::GuardTrip, arg: 99 },
            ]
        );
    }

    #[test]
    fn wraparound_keeps_newest_and_marks_the_gap() {
        let mut ring = AuditRing::new();
        for i in 0..(AUDIT_CAPACITY as u64 + 10) {
            ring.record(AuditKind::AexInjected, i);
        }
        let export = parse_audit_export(&ring.export_bytes()).unwrap();
        assert_eq!(export.events.len(), AUDIT_CAPACITY);
        assert_eq!(export.dropped(), 10, "10 oldest events were overwritten");
        assert_eq!(export.first_seq, 10);
        assert_eq!(export.events.first().unwrap().arg, 10);
        assert_eq!(export.events.last().unwrap().seq, AUDIT_CAPACITY as u64 + 9);
    }

    #[test]
    fn export_length_is_fixed() {
        let mut ring = AuditRing::new();
        assert_eq!(ring.export_bytes().len(), AUDIT_EXPORT_LEN);
        ring.record(AuditKind::Install, 1);
        assert_eq!(ring.export_bytes().len(), AUDIT_EXPORT_LEN);
        for _ in 0..200 {
            ring.record(AuditKind::GuardTrip, 2);
        }
        assert_eq!(ring.export_bytes().len(), AUDIT_EXPORT_LEN);
    }

    #[test]
    fn parser_rejects_malformed_exports() {
        let mut ring = AuditRing::new();
        ring.record(AuditKind::Install, 1);
        ring.record(AuditKind::GuardTrip, 2);
        let good = ring.export_bytes();
        // Wrong length.
        assert!(parse_audit_export(&good[..good.len() - 1]).is_err());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 1;
        assert!(parse_audit_export(&bad).is_err());
        // Count beyond capacity.
        let mut bad = good.clone();
        bad[24] = 0xFF;
        assert!(parse_audit_export(&bad).is_err());
        // Unknown kind byte.
        let mut bad = good.clone();
        bad[32 + 8] = 0x77;
        assert!(parse_audit_export(&bad).is_err());
        // Non-monotonic second entry.
        let mut bad = good.clone();
        bad[32 + AUDIT_ENTRY_LEN] = 5;
        assert!(parse_audit_export(&bad).is_err());
    }
}
