//! Sealing of captured install images across enclave restarts.
//!
//! SGX enclaves persist state across teardown with *sealing*: `EGETKEY`
//! derives a key bound to the enclave's identity (here
//! `KEYPOLICY.MRENCLAVE`), data MACed/encrypted under it can be stored on
//! untrusted media, and only an enclave with the same measurement can
//! re-derive the key to accept it. This module applies that to
//! [`PreparedInstall`]: a pool that verified a binary once can export the
//! image, survive a full restart, and re-import it with **zero**
//! re-verifications.
//!
//! # What is sealed, and why rebuilding is sound
//!
//! The blob does not carry the multi-megabyte post-rewrite memory image; it
//! carries the original *binary* plus the identity triple that the full
//! verifying pipeline accepted: the capturing enclave's measurement, the
//! manifest digest, and the loader's code hash — all under an HMAC keyed by
//! [`sealing_key`]. Because the consumer pipeline is a deterministic
//! function of `(consumer image, layout, manifest, binary)` (the replay
//! argument documented on [`PreparedInstall`]), an importer with the *same*
//! measurement and manifest can re-derive the byte-identical image by
//! re-running only the discovery half of the pipeline
//! ([`install_trusted`]) — the MAC attests that the checking half already
//! accepted exactly these inputs. Every identity mismatch fails closed
//! before any rebuild happens.
//!
//! # Blob format (all integers little-endian)
//!
//! ```text
//! "DFLSEAL1" | measurement[32] | manifest_digest[32] | code_hash[32]
//!            | binary_len u64  | binary[binary_len]  | mac[32]
//! ```
//!
//! where `mac = HMAC-SHA256(sealing_key(measurement), all prior bytes)`
//! and [`sealing_key`] mixes the platform's fuse secret into the
//! derivation — the key is *not* computable from the blob's (public)
//! contents, so the untrusted-storage adversary can corrupt blobs but not
//! forge them.

use crate::consumer::{install_trusted, InstallError};
use crate::policy::Manifest;
use crate::runtime::{manifest_digest, place_io, PreparedInstall, CONSUMER_IMAGE};
use deflection_crypto::hmac::hmac_sha256;
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_sgx_sim::measure::{measure_enclave, sealing_key};
use deflection_sgx_sim::mem::Memory;
use std::error::Error as StdError;
use std::fmt;

/// Magic prefix of a sealed install blob (format version 1).
const MAGIC: &[u8; 8] = b"DFLSEAL1";
/// Fixed-size prefix: magic + measurement + manifest digest + code hash +
/// binary length.
const HEADER_LEN: usize = 8 + 32 + 32 + 32 + 8;
/// Trailing MAC length.
const MAC_LEN: usize = 32;

/// Rejection reasons when importing a sealed install blob. Every variant
/// fails closed: no partial state is constructed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UnsealError {
    /// The blob is truncated, has a wrong magic, or an inconsistent length.
    Malformed,
    /// The blob was sealed by an enclave with a different measurement than
    /// the importer — the `EGETKEY` analogue would derive a different key.
    WrongMeasurement,
    /// The MAC does not verify under the importer's sealing key: the blob
    /// was tampered with (or sealed under a different key).
    BadMac,
    /// The importer's manifest differs from the one the image was verified
    /// under.
    WrongManifest,
    /// The deterministic rebuild rejected the sealed binary — the blob's
    /// payload cannot be the one the verifier accepted.
    Rebuild(InstallError),
    /// The I/O buffers no longer fit the heap (layout drift).
    IoPlacement,
    /// The rebuilt image's code hash differs from the sealed one.
    CodeHashMismatch,
}

impl fmt::Display for UnsealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnsealError::Malformed => write!(f, "malformed sealed blob"),
            UnsealError::WrongMeasurement => {
                write!(f, "sealed under a different enclave measurement")
            }
            UnsealError::BadMac => write!(f, "sealing MAC verification failed"),
            UnsealError::WrongManifest => write!(f, "sealed under a different manifest"),
            UnsealError::Rebuild(e) => write!(f, "sealed binary failed rebuild: {e}"),
            UnsealError::IoPlacement => write!(f, "rebuilt image cannot host the I/O buffers"),
            UnsealError::CodeHashMismatch => write!(f, "rebuilt code hash mismatch"),
        }
    }
}

impl StdError for UnsealError {}

/// Constant-time-shaped MAC comparison (no early exit on first mismatch).
fn mac_eq(a: &[u8; 32], b: &[u8]) -> bool {
    if b.len() != 32 {
        return false;
    }
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

impl PreparedInstall {
    /// Exports this image as a sealed blob: the original binary plus the
    /// identity triple the verifier accepted, MACed under the capturing
    /// enclave's sealing key. Safe to store on untrusted media — any
    /// tampering is caught by [`PreparedInstall::unseal`].
    #[must_use]
    pub fn seal(&self) -> Vec<u8> {
        let mut blob = Vec::with_capacity(HEADER_LEN + self.binary.len() + MAC_LEN);
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&self.measurement);
        blob.extend_from_slice(&self.manifest_digest);
        blob.extend_from_slice(&self.code_hash);
        blob.extend_from_slice(&(self.binary.len() as u64).to_le_bytes());
        blob.extend_from_slice(&self.binary);
        let mac = hmac_sha256(&sealing_key(&self.measurement), &blob);
        blob.extend_from_slice(&mac);
        blob
    }

    /// Imports a sealed blob into a [`PreparedInstall`] for a pool whose
    /// enclaves have `layout` and `manifest`, re-running **no** policy
    /// checks. Identity is checked in fail-closed order: framing, then the
    /// importer's measurement against the sealed one, then the MAC under
    /// the importer-derived key, then the manifest digest; only then is the
    /// image deterministically rebuilt and its code hash cross-checked.
    ///
    /// # Errors
    ///
    /// Returns [`UnsealError`] on any framing, identity, MAC or rebuild
    /// failure; no partial image is ever returned.
    pub fn unseal(
        blob: &[u8],
        layout: &EnclaveLayout,
        manifest: &Manifest,
    ) -> Result<PreparedInstall, UnsealError> {
        if blob.len() < HEADER_LEN + MAC_LEN || &blob[..8] != MAGIC {
            return Err(UnsealError::Malformed);
        }
        let mut measurement = [0u8; 32];
        measurement.copy_from_slice(&blob[8..40]);
        let mut sealed_manifest = [0u8; 32];
        sealed_manifest.copy_from_slice(&blob[40..72]);
        let mut code_hash = [0u8; 32];
        code_hash.copy_from_slice(&blob[72..104]);
        // `binary_len` is attacker-controlled: reject lengths that do not
        // fit a usize or whose framing sum would overflow instead of
        // panicking on a crafted blob in overflow-checked builds.
        let binary_len = u64::from_le_bytes(blob[104..112].try_into().expect("8 bytes"));
        let expected_len = usize::try_from(binary_len)
            .ok()
            .and_then(|n| n.checked_add(HEADER_LEN + MAC_LEN))
            .ok_or(UnsealError::Malformed)?;
        if blob.len() != expected_len {
            return Err(UnsealError::Malformed);
        }
        let binary_len = binary_len as usize;
        let (signed, mac) = blob.split_at(HEADER_LEN + binary_len);

        // Identity before integrity: an importer with a different
        // measurement derives an unrelated key, so its MAC check would
        // fail anyway — but reporting the measurement mismatch first
        // distinguishes "wrong enclave" from "tampered blob".
        let own = measure_enclave(CONSUMER_IMAGE, layout);
        if measurement != own {
            return Err(UnsealError::WrongMeasurement);
        }
        let expect = hmac_sha256(&sealing_key(&own), signed);
        if !mac_eq(&expect, mac) {
            return Err(UnsealError::BadMac);
        }
        if sealed_manifest != manifest_digest(manifest) {
            return Err(UnsealError::WrongManifest);
        }

        // Deterministic rebuild: discovery-only pipeline, zero checks.
        let binary = &signed[HEADER_LEN..];
        let mut mem = Memory::new(layout.clone());
        let installed =
            install_trusted(binary, manifest, &mut mem).map_err(UnsealError::Rebuild)?;
        let io = place_io(&mut mem, &installed, layout, manifest)
            .map_err(|_| UnsealError::IoPlacement)?;
        if installed.program.code_hash != code_hash {
            return Err(UnsealError::CodeHashMismatch);
        }
        Ok(PreparedInstall {
            measurement,
            code_hash,
            mem: mem.image(),
            installed,
            io,
            binary: binary.to_vec(),
            manifest_digest: sealed_manifest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Manifest;
    use crate::producer::produce;
    use crate::runtime::BootstrapEnclave;
    use deflection_sgx_sim::layout::MemConfig;

    const SRC: &str = "fn main() -> int { return 40 + 2; }";

    fn captured() -> (PreparedInstall, EnclaveLayout, Manifest) {
        let layout = EnclaveLayout::new(MemConfig::small());
        let manifest = Manifest::ccaas();
        let binary = produce(SRC, &manifest.policy).unwrap().serialize();
        let mut enclave = BootstrapEnclave::new(layout.clone(), manifest.clone());
        let prepared = enclave.install_capture(&binary).unwrap();
        (prepared, layout, manifest)
    }

    #[test]
    fn seal_roundtrip_preserves_image() {
        let (prepared, layout, manifest) = captured();
        let blob = prepared.seal();
        let back = PreparedInstall::unseal(&blob, &layout, &manifest).unwrap();
        assert_eq!(back.code_hash(), prepared.code_hash());
        assert_eq!(back.measurement(), prepared.measurement());
        // The rebuilt image is runnable and produces the program's output.
        let mut enclave = BootstrapEnclave::new(layout, manifest);
        enclave.install_replayed(&back).unwrap();
        let report = enclave.run(1_000_000).unwrap();
        assert_eq!(report.exit.exit_value(), Some(42));
    }

    #[test]
    fn every_bit_flip_in_the_header_is_rejected() {
        let (prepared, layout, manifest) = captured();
        let blob = prepared.seal();
        for byte in 0..HEADER_LEN {
            let mut bad = blob.clone();
            bad[byte] ^= 0x40;
            assert!(
                PreparedInstall::unseal(&bad, &layout, &manifest).is_err(),
                "header byte {byte} flip accepted"
            );
        }
    }

    #[test]
    fn payload_and_mac_tampering_fail_the_mac() {
        let (prepared, layout, manifest) = captured();
        let blob = prepared.seal();
        let mut bad = blob.clone();
        bad[HEADER_LEN + 3] ^= 1; // binary payload
        assert_eq!(
            PreparedInstall::unseal(&bad, &layout, &manifest).unwrap_err(),
            UnsealError::BadMac
        );
        let mut bad = blob;
        let last = bad.len() - 1; // MAC itself
        bad[last] ^= 1;
        assert_eq!(
            PreparedInstall::unseal(&bad, &layout, &manifest).unwrap_err(),
            UnsealError::BadMac
        );
    }

    #[test]
    fn wrong_measurement_is_rejected_before_the_mac() {
        let (prepared, _, manifest) = captured();
        let blob = prepared.seal();
        // An importer with a different layout has a different measurement.
        let other = EnclaveLayout::new(MemConfig::paper());
        assert_eq!(
            PreparedInstall::unseal(&blob, &other, &manifest).unwrap_err(),
            UnsealError::WrongMeasurement
        );
    }

    #[test]
    fn wrong_manifest_is_rejected() {
        let (prepared, layout, manifest) = captured();
        let blob = prepared.seal();
        let mut other = manifest;
        other.output_budget += 1;
        assert_eq!(
            PreparedInstall::unseal(&blob, &layout, &other).unwrap_err(),
            UnsealError::WrongManifest
        );
    }

    #[test]
    fn forged_blob_under_public_derivation_is_rejected() {
        // The untrusted-storage adversary knows the blob format, the
        // consumer image, the layout and the manifest — everything public.
        // It must still be unable to seal a binary of its choosing: the
        // old measurement-only key derivation made this forgery succeed.
        let (prepared, layout, manifest) = captured();
        let evil_binary =
            produce("fn main() -> int { return 666; }", &manifest.policy).unwrap().serialize();
        let mut forged = Vec::new();
        forged.extend_from_slice(MAGIC);
        forged.extend_from_slice(&prepared.measurement);
        forged.extend_from_slice(&prepared.manifest_digest);
        forged.extend_from_slice(&deflection_crypto::sha256::sha256(&evil_binary));
        forged.extend_from_slice(&(evil_binary.len() as u64).to_le_bytes());
        forged.extend_from_slice(&evil_binary);
        // Best public guess at the key: HMAC(measurement, label) — the
        // pre-fix derivation.
        let guessed_key = hmac_sha256(&prepared.measurement, b"deflection-sealing-key-v1");
        let mac = hmac_sha256(&guessed_key, &forged);
        forged.extend_from_slice(&mac);
        assert_eq!(
            PreparedInstall::unseal(&forged, &layout, &manifest).unwrap_err(),
            UnsealError::BadMac
        );
    }

    #[test]
    fn huge_claimed_binary_len_is_malformed_not_a_panic() {
        // A crafted `binary_len` near u64::MAX must be rejected as
        // Malformed, not overflow the framing arithmetic.
        let (prepared, layout, manifest) = captured();
        let mut bad = prepared.seal();
        bad[104..112].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            PreparedInstall::unseal(&bad, &layout, &manifest).unwrap_err(),
            UnsealError::Malformed
        );
        bad[104..112].copy_from_slice(&(u64::MAX - (HEADER_LEN + MAC_LEN) as u64).to_le_bytes());
        assert_eq!(
            PreparedInstall::unseal(&bad, &layout, &manifest).unwrap_err(),
            UnsealError::Malformed
        );
    }

    #[test]
    fn truncated_and_garbage_blobs_are_malformed() {
        let (prepared, layout, manifest) = captured();
        let blob = prepared.seal();
        assert_eq!(
            PreparedInstall::unseal(&blob[..blob.len() - 1], &layout, &manifest).unwrap_err(),
            UnsealError::Malformed
        );
        assert_eq!(
            PreparedInstall::unseal(b"not a seal", &layout, &manifest).unwrap_err(),
            UnsealError::Malformed
        );
        assert_eq!(
            PreparedInstall::unseal(&blob[..HEADER_LEN], &layout, &manifest).unwrap_err(),
            UnsealError::Malformed
        );
    }
}
