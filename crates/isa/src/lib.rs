//! # deflection-isa
//!
//! An executable, formally specified instruction-set model shaped after
//! x86-64, standing in for the real x64 ISA that DEFLECTION (DSN 2021)
//! instruments with LLVM and disassembles with a clipped Capstone.
//!
//! The model deliberately keeps every property the paper's techniques depend
//! on:
//!
//! * **variable-length encoding** ([`encode`]/[`decode`]) — instructions are
//!   1 to 10 bytes, so "jump into the middle of an annotation" is a real
//!   attack the verifier must rule out, and disassembly requires following
//!   control flow rather than fixed strides;
//! * **a stack pointer that is just a register** ([`Reg::RSP`]) — RSP can be
//!   corrupted by ordinary moves and arithmetic, motivating policy **P2**;
//! * **indirect control flow through registers** ([`Inst::CallInd`],
//!   [`Inst::JmpInd`]) — motivating the CFI policy **P5**;
//! * **stores with computed effective addresses** (SIB-style
//!   [`MemOperand`]) — motivating the store-bounds policy **P1**;
//! * **recursive-descent disassembly** ([`disassemble`]) — the exact algorithm
//!   the paper's "clipped disassembler" uses (Section V-B), including the use
//!   of the indirect-branch target list to continue across indirect flows.
//!
//! The semantics of each instruction are implemented by the CPU interpreter
//! in `deflection-sgx-sim`; this crate defines the syntax, the encoding, the
//! flags/condition model and the disassembler.
//!
//! # Example
//!
//! ```
//! use deflection_isa::{Inst, Reg, encode, decode};
//!
//! let program = [
//!     Inst::MovRI { dst: Reg::RAX, imm: 41 },
//!     Inst::AluRI { op: deflection_isa::AluOp::Add, dst: Reg::RAX, imm: 1 },
//!     Inst::Halt,
//! ];
//! let mut bytes = Vec::new();
//! for inst in &program {
//!     encode(inst, &mut bytes);
//! }
//! let (first, len) = decode(&bytes, 0)?;
//! assert_eq!(first, program[0]);
//! assert!(len > 1); // variable length: MovRI carries a 64-bit immediate
//! # Ok::<(), deflection_isa::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod decode;
mod disasm;
mod encode;
mod flags;
mod inst;
mod mem;
mod reg;

pub use decode::{decode, DecodeError, DecodeErrorKind};
pub use disasm::{disassemble, DisasmError, Disassembly};
pub use encode::{encode, encode_program, encoded_len};
pub use flags::{CondCode, Flags};
pub use inst::{AluOp, FpuOp, Inst, OcallCode};
pub use mem::MemOperand;
pub use reg::Reg;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_debug() {
        // C-DEBUG: spot-check that the core public types implement Debug.
        let _ = format!(
            "{:?} {:?} {:?} {:?} {:?}",
            Reg::RAX,
            MemOperand::base_disp(Reg::RSP, 8),
            Inst::Ret,
            CondCode::E,
            Flags::default()
        );
    }
}
