//! General-purpose registers.

use std::fmt;

/// One of the sixteen 64-bit general-purpose registers.
///
/// Registers follow x86-64 naming; [`Reg::RSP`] is the stack pointer the
/// `push`/`pop`/`call`/`ret` instructions operate on, and the register whose
/// integrity policy **P2** protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)]
pub enum Reg {
    RAX = 0,
    RCX = 1,
    RDX = 2,
    RBX = 3,
    RSP = 4,
    RBP = 5,
    RSI = 6,
    RDI = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Reg {
    /// All registers in encoding order.
    pub const ALL: [Reg; 16] = [
        Reg::RAX,
        Reg::RCX,
        Reg::RDX,
        Reg::RBX,
        Reg::RSP,
        Reg::RBP,
        Reg::RSI,
        Reg::RDI,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Returns the 4-bit encoding of this register.
    #[must_use]
    #[inline]
    pub const fn index(self) -> u8 {
        self as u8
    }

    /// Decodes a register from its 4-bit encoding.
    ///
    /// Returns `None` if `idx > 15`.
    #[must_use]
    pub const fn from_index(idx: u8) -> Option<Reg> {
        if idx < 16 {
            Some(Self::ALL[idx as usize])
        } else {
            None
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Reg::RAX => "rax",
            Reg::RCX => "rcx",
            Reg::RDX => "rdx",
            Reg::RBX => "rbx",
            Reg::RSP => "rsp",
            Reg::RBP => "rbp",
            Reg::RSI => "rsi",
            Reg::RDI => "rdi",
            Reg::R8 => "r8",
            Reg::R9 => "r9",
            Reg::R10 => "r10",
            Reg::R11 => "r11",
            Reg::R12 => "r12",
            Reg::R13 => "r13",
            Reg::R14 => "r14",
            Reg::R15 => "r15",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_index(r.index()), Some(r));
        }
    }

    #[test]
    fn out_of_range_index_rejected() {
        assert_eq!(Reg::from_index(16), None);
        assert_eq!(Reg::from_index(255), None);
    }

    #[test]
    fn display_names() {
        assert_eq!(Reg::RSP.to_string(), "rsp");
        assert_eq!(Reg::R15.to_string(), "r15");
    }
}
