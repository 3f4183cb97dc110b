//! CPU flags and condition codes.

use std::fmt;

/// The arithmetic flags set by `cmp`, `test`, ALU operations and `fcmp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// Zero flag — result was zero / operands compared equal.
    pub zf: bool,
    /// Sign flag — result was negative (signed view).
    pub sf: bool,
    /// Carry flag — unsigned overflow / borrow / `fcmp` "below".
    pub cf: bool,
    /// Overflow flag — signed overflow.
    pub of: bool,
}

impl Flags {
    /// Flags after comparing two signed/unsigned 64-bit values, with x86
    /// `cmp` semantics (`lhs - rhs`).
    #[must_use]
    #[inline]
    pub fn from_cmp(lhs: u64, rhs: u64) -> Flags {
        let (res, borrow) = lhs.overflowing_sub(rhs);
        let signed_overflow = ((lhs ^ rhs) & (lhs ^ res)) >> 63 == 1;
        Flags { zf: res == 0, sf: (res >> 63) == 1, cf: borrow, of: signed_overflow }
    }

    /// Flags after comparing two `f64` values (x86 `ucomisd`-like mapping:
    /// `zf` = equal, `cf` = below; NaN compares as neither).
    #[must_use]
    pub fn from_fcmp(lhs: f64, rhs: f64) -> Flags {
        if lhs.is_nan() || rhs.is_nan() {
            // x86 sets ZF=CF=PF=1 on unordered; we approximate with both set
            // so neither strict ordering condition holds but E does not hold
            // either (we clear ZF to make NaN != NaN observable).
            return Flags { zf: false, sf: false, cf: true, of: false };
        }
        Flags { zf: lhs == rhs, sf: false, cf: lhs < rhs, of: false }
    }

    /// Flags after a logical operation producing `result` (CF/OF cleared).
    #[must_use]
    #[inline]
    pub fn from_logic(result: u64) -> Flags {
        Flags { zf: result == 0, sf: (result >> 63) == 1, cf: false, of: false }
    }
}

/// Condition codes for conditional jumps, following x86 mnemonics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CondCode {
    /// Equal (`zf`).
    E = 0,
    /// Not equal (`!zf`).
    Ne = 1,
    /// Signed less-than (`sf != of`).
    L = 2,
    /// Signed less-or-equal (`zf || sf != of`).
    Le = 3,
    /// Signed greater-than (`!zf && sf == of`).
    G = 4,
    /// Signed greater-or-equal (`sf == of`).
    Ge = 5,
    /// Unsigned below (`cf`).
    B = 6,
    /// Unsigned below-or-equal (`cf || zf`).
    Be = 7,
    /// Unsigned above (`!cf && !zf`).
    A = 8,
    /// Unsigned above-or-equal (`!cf`).
    Ae = 9,
}

impl CondCode {
    /// All condition codes in encoding order.
    pub const ALL: [CondCode; 10] = [
        CondCode::E,
        CondCode::Ne,
        CondCode::L,
        CondCode::Le,
        CondCode::G,
        CondCode::Ge,
        CondCode::B,
        CondCode::Be,
        CondCode::A,
        CondCode::Ae,
    ];

    /// Decodes a condition code from its encoding.
    #[must_use]
    pub const fn from_index(idx: u8) -> Option<CondCode> {
        if (idx as usize) < Self::ALL.len() {
            Some(Self::ALL[idx as usize])
        } else {
            None
        }
    }

    /// Returns the encoding of this condition code.
    #[must_use]
    pub const fn index(self) -> u8 {
        self as u8
    }

    /// Evaluates the condition against `flags`.
    #[must_use]
    #[inline]
    pub fn eval(self, flags: Flags) -> bool {
        match self {
            CondCode::E => flags.zf,
            CondCode::Ne => !flags.zf,
            CondCode::L => flags.sf != flags.of,
            CondCode::Le => flags.zf || flags.sf != flags.of,
            CondCode::G => !flags.zf && flags.sf == flags.of,
            CondCode::Ge => flags.sf == flags.of,
            CondCode::B => flags.cf,
            CondCode::Be => flags.cf || flags.zf,
            CondCode::A => !flags.cf && !flags.zf,
            CondCode::Ae => !flags.cf,
        }
    }

    /// Returns the negation of this condition.
    #[must_use]
    pub fn negate(self) -> CondCode {
        match self {
            CondCode::E => CondCode::Ne,
            CondCode::Ne => CondCode::E,
            CondCode::L => CondCode::Ge,
            CondCode::Le => CondCode::G,
            CondCode::G => CondCode::Le,
            CondCode::Ge => CondCode::L,
            CondCode::B => CondCode::Ae,
            CondCode::Be => CondCode::A,
            CondCode::A => CondCode::Be,
            CondCode::Ae => CondCode::B,
        }
    }
}

impl fmt::Display for CondCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CondCode::E => "e",
            CondCode::Ne => "ne",
            CondCode::L => "l",
            CondCode::Le => "le",
            CondCode::G => "g",
            CondCode::Ge => "ge",
            CondCode::B => "b",
            CondCode::Be => "be",
            CondCode::A => "a",
            CondCode::Ae => "ae",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_signed_ordering() {
        let f = Flags::from_cmp(-5i64 as u64, 3u64);
        assert!(CondCode::L.eval(f));
        assert!(!CondCode::G.eval(f));
        assert!(CondCode::Ne.eval(f));
        // Unsigned view: -5 as u64 is huge.
        assert!(CondCode::A.eval(f));
    }

    #[test]
    fn cmp_equal() {
        let f = Flags::from_cmp(42, 42);
        assert!(CondCode::E.eval(f));
        assert!(CondCode::Le.eval(f));
        assert!(CondCode::Ge.eval(f));
        assert!(CondCode::Be.eval(f));
        assert!(CondCode::Ae.eval(f));
        assert!(!CondCode::L.eval(f));
        assert!(!CondCode::A.eval(f));
    }

    #[test]
    fn cmp_unsigned_ordering() {
        let f = Flags::from_cmp(1, 2);
        assert!(CondCode::B.eval(f));
        assert!(!CondCode::Ae.eval(f));
    }

    #[test]
    fn signed_overflow_case() {
        // i64::MIN - 1 overflows; signed comparison must still be correct:
        // MIN < 1 so L must hold.
        let f = Flags::from_cmp(i64::MIN as u64, 1);
        assert!(CondCode::L.eval(f));
    }

    #[test]
    fn negation_is_involutive_and_opposite() {
        for cc in CondCode::ALL {
            assert_eq!(cc.negate().negate(), cc);
        }
        for (l, r) in [(0u64, 0u64), (1, 2), (2, 1), (u64::MAX, 0), (5, u64::MAX)] {
            let f = Flags::from_cmp(l, r);
            for cc in CondCode::ALL {
                assert_ne!(cc.eval(f), cc.negate().eval(f), "{cc} on cmp({l},{r})");
            }
        }
    }

    #[test]
    fn fcmp_ordering() {
        let f = Flags::from_fcmp(1.5, 2.5);
        assert!(CondCode::B.eval(f));
        let f = Flags::from_fcmp(2.5, 2.5);
        assert!(CondCode::E.eval(f));
        let f = Flags::from_fcmp(3.5, 2.5);
        assert!(CondCode::A.eval(f));
    }

    #[test]
    fn fcmp_nan_is_unordered() {
        let f = Flags::from_fcmp(f64::NAN, 1.0);
        assert!(!CondCode::E.eval(f));
        assert!(!CondCode::A.eval(f));
    }

    #[test]
    fn cond_code_index_roundtrip() {
        for cc in CondCode::ALL {
            assert_eq!(CondCode::from_index(cc.index()), Some(cc));
        }
        assert_eq!(CondCode::from_index(10), None);
    }
}
