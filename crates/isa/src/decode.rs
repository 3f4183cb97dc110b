//! Binary decoding of instructions.
//!
//! The decoder is strict: any unknown opcode, truncated operand, reserved
//! nibble or non-canonical memory encoding is an error. The in-enclave
//! verifier treats every decode error as grounds to reject the target binary
//! (the paper's "just-enough disassembling" must never guess).

use crate::encode::op;
use crate::{AluOp, CondCode, FpuOp, Inst, MemOperand, Reg};
use std::error::Error as StdError;
use std::fmt;

/// A decoding failure at a particular code offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset the failing instruction started at.
    pub offset: usize,
    /// What went wrong.
    pub kind: DecodeErrorKind,
}

/// The varieties of decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeErrorKind {
    /// The opcode byte does not denote any instruction.
    UnknownOpcode(u8),
    /// The instruction ran past the end of the code buffer.
    Truncated,
    /// A memory operand carried reserved or non-canonical bits.
    BadMemOperand,
    /// A register field used a reserved value.
    BadRegister,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            DecodeErrorKind::UnknownOpcode(op) => {
                write!(f, "unknown opcode {op:#04x} at offset {:#x}", self.offset)
            }
            DecodeErrorKind::Truncated => {
                write!(f, "truncated instruction at offset {:#x}", self.offset)
            }
            DecodeErrorKind::BadMemOperand => {
                write!(f, "malformed memory operand at offset {:#x}", self.offset)
            }
            DecodeErrorKind::BadRegister => {
                write!(f, "reserved register encoding at offset {:#x}", self.offset)
            }
        }
    }
}

impl StdError for DecodeError {}

struct Cursor<'a> {
    bytes: &'a [u8],
    start: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, kind: DecodeErrorKind) -> DecodeError {
        DecodeError { offset: self.start, kind }
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or(DecodeError { offset: self.start, kind: DecodeErrorKind::Truncated })?;
        self.pos += 1;
        Ok(b)
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        let mut b = [0u8; 4];
        for x in &mut b {
            *x = self.u8()?;
        }
        Ok(i32::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        let mut b = [0u8; 8];
        for x in &mut b {
            *x = self.u8()?;
        }
        Ok(i64::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(self.i64()? as u64)
    }

    fn reg(&mut self) -> Result<Reg, DecodeError> {
        let b = self.u8()?;
        Reg::from_index(b).ok_or_else(|| self.err(DecodeErrorKind::BadRegister))
    }

    fn reg_pair(&mut self) -> Result<(Reg, Reg), DecodeError> {
        let b = self.u8()?;
        let hi = Reg::from_index(b >> 4).expect("nibble < 16");
        let lo = Reg::from_index(b & 0xF).expect("nibble < 16");
        Ok((hi, lo))
    }

    fn mem(&mut self) -> Result<MemOperand, DecodeError> {
        let flags = self.u8()?;
        if flags > 3 {
            return Err(self.err(DecodeErrorKind::BadMemOperand));
        }
        let regs = self.u8()?;
        let scale_log2 = self.u8()?;
        if scale_log2 > 3 {
            return Err(self.err(DecodeErrorKind::BadMemOperand));
        }
        let disp = self.i32()?;
        let has_base = flags & 1 != 0;
        let has_index = flags & 2 != 0;
        // Canonical encoding: absent fields must be zero.
        if !has_base && (regs >> 4) != 0 {
            return Err(self.err(DecodeErrorKind::BadMemOperand));
        }
        if !has_index && ((regs & 0xF) != 0 || scale_log2 != 0) {
            return Err(self.err(DecodeErrorKind::BadMemOperand));
        }
        let base = has_base.then(|| Reg::from_index(regs >> 4).expect("nibble < 16"));
        let index = has_index
            .then(|| (Reg::from_index(regs & 0xF).expect("nibble < 16"), 1u8 << scale_log2));
        Ok(MemOperand { base, index, disp })
    }
}

/// Decodes a single instruction starting at `offset` in `bytes`.
///
/// Returns the instruction and its encoded length.
///
/// # Errors
///
/// Returns a [`DecodeError`] for unknown opcodes, truncated instructions and
/// non-canonical operand encodings.
pub fn decode(bytes: &[u8], offset: usize) -> Result<(Inst, usize), DecodeError> {
    let mut c = Cursor { bytes, start: offset, pos: offset };
    let opcode = c.u8()?;
    let inst = match opcode {
        op::NOP => Inst::Nop,
        op::HALT => Inst::Halt,
        op::ABORT => Inst::Abort { code: c.u8()? },
        op::OCALL => Inst::Ocall { code: c.u8()? },
        op::AEXPROBE => Inst::AexProbe,
        op::MOV_RR => {
            let (dst, src) = c.reg_pair()?;
            Inst::MovRR { dst, src }
        }
        op::MOV_RI => {
            let dst = c.reg()?;
            Inst::MovRI { dst, imm: c.u64()? }
        }
        op::LEA => {
            let dst = c.reg()?;
            Inst::Lea { dst, mem: c.mem()? }
        }
        op::LOAD => {
            let dst = c.reg()?;
            Inst::Load { dst, mem: c.mem()? }
        }
        op::LOAD8 => {
            let dst = c.reg()?;
            Inst::Load8 { dst, mem: c.mem()? }
        }
        op::STORE => {
            let src = c.reg()?;
            Inst::Store { mem: c.mem()?, src }
        }
        op::STORE8 => {
            let src = c.reg()?;
            Inst::Store8 { mem: c.mem()?, src }
        }
        op::STORE_IMM => {
            let mem = c.mem()?;
            Inst::StoreImm { mem, imm: c.i32()? }
        }
        op::CMP_MEM => {
            let reg = c.reg()?;
            Inst::CmpMem { reg, mem: c.mem()? }
        }
        o if (op::ALU_RR_BASE..op::ALU_RR_BASE + 13).contains(&o) => {
            let alu = AluOp::from_index(o - op::ALU_RR_BASE).expect("range checked");
            let (dst, src) = c.reg_pair()?;
            Inst::AluRR { op: alu, dst, src }
        }
        o if (op::ALU_RI_BASE..op::ALU_RI_BASE + 13).contains(&o) => {
            let alu = AluOp::from_index(o - op::ALU_RI_BASE).expect("range checked");
            let dst = c.reg()?;
            Inst::AluRI { op: alu, dst, imm: c.i64()? }
        }
        op::NEG => Inst::Neg { reg: c.reg()? },
        op::NOT => Inst::Not { reg: c.reg()? },
        op::CMP_RR => {
            let (lhs, rhs) = c.reg_pair()?;
            Inst::CmpRR { lhs, rhs }
        }
        op::CMP_RI => {
            let lhs = c.reg()?;
            Inst::CmpRI { lhs, imm: c.i64()? }
        }
        op::TEST_RR => {
            let (lhs, rhs) = c.reg_pair()?;
            Inst::TestRR { lhs, rhs }
        }
        op::SETCC => {
            let b = c.u8()?;
            let cc =
                CondCode::from_index(b >> 4).ok_or_else(|| c.err(DecodeErrorKind::BadRegister))?;
            let dst = Reg::from_index(b & 0xF).expect("nibble < 16");
            Inst::SetCc { cc, dst }
        }
        op::JMP => Inst::Jmp { rel: c.i32()? },
        o if (op::JCC_BASE..op::JCC_BASE + 10).contains(&o) => {
            let cc = CondCode::from_index(o - op::JCC_BASE).expect("range checked");
            Inst::Jcc { cc, rel: c.i32()? }
        }
        op::JMP_IND => Inst::JmpInd { reg: c.reg()? },
        op::CALL => Inst::Call { rel: c.i32()? },
        op::CALL_IND => Inst::CallInd { reg: c.reg()? },
        op::RET => Inst::Ret,
        op::PUSH => Inst::Push { reg: c.reg()? },
        op::POP => Inst::Pop { reg: c.reg()? },
        o if (op::FPU_BASE..op::FPU_BASE + 4).contains(&o) => {
            let fop = FpuOp::from_index(o - op::FPU_BASE).expect("range checked");
            let (dst, src) = c.reg_pair()?;
            Inst::FpuRR { op: fop, dst, src }
        }
        op::FCMP => {
            let (lhs, rhs) = c.reg_pair()?;
            Inst::FCmp { lhs, rhs }
        }
        op::CVT_IF => {
            let (dst, src) = c.reg_pair()?;
            Inst::CvtIF { dst, src }
        }
        op::CVT_FI => {
            let (dst, src) = c.reg_pair()?;
            Inst::CvtFI { dst, src }
        }
        op::FSQRT => {
            let (dst, src) = c.reg_pair()?;
            Inst::FSqrt { dst, src }
        }
        op::FNEG => {
            let (dst, src) = c.reg_pair()?;
            Inst::FNeg { dst, src }
        }
        other => return Err(DecodeError { offset, kind: DecodeErrorKind::UnknownOpcode(other) }),
    };
    Ok((inst, c.pos - offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::{encode, encoded_len};

    fn roundtrip(inst: Inst) {
        let mut bytes = vec![0xEE, 0xEE]; // leading garbage to exercise offsets
        encode(&inst, &mut bytes);
        let (decoded, len) = decode(&bytes, 2).unwrap();
        assert_eq!(decoded, inst);
        assert_eq!(len, encoded_len(&inst));
    }

    #[test]
    fn roundtrip_all_simple_forms() {
        use crate::{AluOp, CondCode, FpuOp};
        let m = MemOperand::base_index(Reg::R8, Reg::R15, 8, -1024);
        let cases = vec![
            Inst::Nop,
            Inst::Halt,
            Inst::Abort { code: 3 },
            Inst::Ocall { code: 1 },
            Inst::AexProbe,
            Inst::MovRR { dst: Reg::RSP, src: Reg::RBP },
            Inst::MovRI { dst: Reg::R13, imm: u64::MAX },
            Inst::Lea { dst: Reg::RAX, mem: m },
            Inst::Load { dst: Reg::RAX, mem: MemOperand::abs(4096) },
            Inst::Load8 { dst: Reg::RCX, mem: MemOperand::base_disp(Reg::RSI, 1) },
            Inst::Store { mem: m, src: Reg::RDX },
            Inst::Store8 { mem: m, src: Reg::RDX },
            Inst::StoreImm { mem: m, imm: -7 },
            Inst::CmpMem { reg: Reg::RBX, mem: MemOperand::base_disp(Reg::RSP, 16) },
            Inst::AluRR { op: AluOp::SDiv, dst: Reg::RAX, src: Reg::RCX },
            Inst::AluRI { op: AluOp::Shl, dst: Reg::RAX, imm: 3 },
            Inst::Neg { reg: Reg::R9 },
            Inst::Not { reg: Reg::R10 },
            Inst::CmpRR { lhs: Reg::RAX, rhs: Reg::RBX },
            Inst::CmpRI { lhs: Reg::RAX, imm: i64::MIN },
            Inst::TestRR { lhs: Reg::RAX, rhs: Reg::RAX },
            Inst::Jmp { rel: i32::MAX },
            Inst::Jcc { cc: CondCode::Be, rel: -1 },
            Inst::JmpInd { reg: Reg::R11 },
            Inst::Call { rel: 1234 },
            Inst::CallInd { reg: Reg::RAX },
            Inst::Ret,
            Inst::Push { reg: Reg::RBP },
            Inst::Pop { reg: Reg::RBP },
            Inst::FpuRR { op: FpuOp::FDiv, dst: Reg::RAX, src: Reg::RBX },
            Inst::FCmp { lhs: Reg::RAX, rhs: Reg::RBX },
            Inst::CvtIF { dst: Reg::RAX, src: Reg::RBX },
            Inst::CvtFI { dst: Reg::RAX, src: Reg::RBX },
            Inst::FSqrt { dst: Reg::RAX, src: Reg::RBX },
            Inst::FNeg { dst: Reg::RAX, src: Reg::RBX },
        ];
        for inst in cases {
            roundtrip(inst);
        }
    }

    #[test]
    fn roundtrip_all_alu_and_cc_variants() {
        for op in crate::AluOp::ALL {
            roundtrip(Inst::AluRR { op, dst: Reg::R14, src: Reg::R15 });
            roundtrip(Inst::AluRI { op, dst: Reg::R14, imm: -42 });
        }
        for cc in crate::CondCode::ALL {
            roundtrip(Inst::Jcc { cc, rel: 77 });
        }
        for op in crate::FpuOp::ALL {
            roundtrip(Inst::FpuRR { op, dst: Reg::RAX, src: Reg::RDX });
        }
    }

    #[test]
    fn unknown_opcode_rejected() {
        let err = decode(&[0xFF], 0).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::UnknownOpcode(0xFF));
        let err = decode(&[0x2D], 0).unwrap_err(); // one past ALU_RR range
        assert_eq!(err.kind, DecodeErrorKind::UnknownOpcode(0x2D));
    }

    #[test]
    fn truncated_rejected() {
        let inst = Inst::MovRI { dst: Reg::RAX, imm: 0x1122334455667788 };
        let mut bytes = Vec::new();
        encode(&inst, &mut bytes);
        for cut in 1..bytes.len() {
            let err = decode(&bytes[..cut], 0).unwrap_err();
            assert_eq!(err.kind, DecodeErrorKind::Truncated, "cut at {cut}");
        }
        assert_eq!(decode(&[], 0).unwrap_err().kind, DecodeErrorKind::Truncated);
    }

    #[test]
    fn bad_register_rejected() {
        // push with register index 16.
        let err = decode(&[0x5F, 16], 0).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadRegister);
    }

    #[test]
    fn noncanonical_mem_rejected() {
        // store rax, [mem] with flags=0 (no base/index) but nonzero regs byte.
        let bytes = [0x15, 0x00, 0x00, 0x10, 0x00, 0, 0, 0, 0];
        let err = decode(&bytes, 0).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMemOperand);
        // flags with reserved bits set.
        let bytes = [0x15, 0x00, 0x04, 0x00, 0x00, 0, 0, 0, 0];
        let err = decode(&bytes, 0).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMemOperand);
        // scale_log2 out of range.
        let bytes = [0x15, 0x00, 0x03, 0x00, 0x04, 0, 0, 0, 0];
        let err = decode(&bytes, 0).unwrap_err();
        assert_eq!(err.kind, DecodeErrorKind::BadMemOperand);
    }

    #[test]
    fn error_display_mentions_offset() {
        let err = decode(&[0x00, 0xFF], 1).unwrap_err();
        assert!(err.to_string().contains("0x1"));
    }
}
