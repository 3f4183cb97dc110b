//! Decoder totality: the in-enclave verifier decodes attacker-chosen
//! bytes, so the decoder must answer every input with `Ok` or `Err` and
//! never panic. Every 2-byte prefix is decoded with four fixed tails, at
//! buffer lengths 2 (everything past the prefix truncated) and 15 (the
//! longest encoding plus slack). An accepted decode must be canonical — it
//! re-encodes to exactly the bytes it consumed.

use deflection_isa::{decode, encode};

/// Bytes that follow the 2-byte prefix: all zeros, all ones, a counting
/// run and an alternating pattern, so operand fields see both extremes
/// and mixed values.
const TAILS: [[u8; 13]; 4] = [
    [0x00; 13],
    [0xFF; 13],
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
    [0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5, 0x5A, 0xA5],
];

#[test]
fn every_two_byte_prefix_decodes_totally_and_canonically() {
    let mut accepted = 0usize;
    let mut buf = [0u8; 15];
    for prefix in 0..=u16::MAX {
        buf[..2].copy_from_slice(&prefix.to_le_bytes());
        for tail in &TAILS {
            buf[2..].copy_from_slice(tail);
            for len in [2, 15] {
                let bytes = &buf[..len];
                if let Ok((inst, n)) = decode(bytes, 0) {
                    let mut out = Vec::new();
                    encode(&inst, &mut out);
                    assert_eq!(out, bytes[..n], "{bytes:02x?}: {inst:?} is not canonical");
                    accepted += 1;
                }
            }
        }
    }
    // Most opcodes take operands, so the sweep exercises both verdicts.
    assert!(accepted > 0 && accepted < 65536 * 8, "accepted {accepted}");
}
