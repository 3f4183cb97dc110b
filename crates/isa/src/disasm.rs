//! Recursive-descent disassembly — the paper's "clipped disassembler".
//!
//! DEFLECTION's code consumer inspects the target binary with *just-enough
//! disassembling* (Section IV-D): start at the program entry, follow direct
//! control flow, and when an indirect branch is reached, continue from the
//! addresses on the indirect-branch target list the code producer shipped as
//! the proof. The engine here implements exactly that algorithm and, like the
//! verifier requires, fails closed: decode errors, out-of-range targets and
//! instruction overlap (a branch into the *middle* of an instruction —
//! the classic way to skip an annotation) are all hard errors.
//!
//! One frontier walk does all of it: it decodes each reachable instruction
//! exactly once with [`crate::decode`], keeps the full [`Inst`], performs
//! every fail-closed check, and records the function entries (the program
//! entry, the indirect-branch targets, and every direct call target).

use crate::{decode, DecodeError, Inst};
use std::collections::VecDeque;
use std::error::Error as StdError;
use std::fmt;

/// A disassembly failure; the verifier converts these into rejections.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DisasmError {
    /// An instruction failed to decode.
    Decode(DecodeError),
    /// A branch or provided target pointed outside the code region.
    TargetOutOfRange {
        /// The offending target offset.
        target: i64,
    },
    /// Control flow reached a byte inside an already-decoded instruction.
    InstructionOverlap {
        /// The offset control flow arrived at.
        target: usize,
        /// The start of the instruction it falls inside.
        within: usize,
    },
    /// The entry point is outside the code region.
    EntryOutOfRange {
        /// The offending entry offset.
        entry: usize,
    },
}

impl fmt::Display for DisasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisasmError::Decode(e) => write!(f, "decode failure: {e}"),
            DisasmError::TargetOutOfRange { target } => {
                write!(f, "control-flow target {target:#x} outside code region")
            }
            DisasmError::InstructionOverlap { target, within } => {
                write!(f, "target {target:#x} lands inside instruction at {within:#x}")
            }
            DisasmError::EntryOutOfRange { entry } => {
                write!(f, "entry point {entry:#x} outside code region")
            }
        }
    }
}

impl StdError for DisasmError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            DisasmError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for DisasmError {
    fn from(e: DecodeError) -> Self {
        DisasmError::Decode(e)
    }
}

/// The result of recursive-descent disassembly over a code region.
///
/// Instructions are stored as a single address-sorted vector plus a dense
/// offset→index map, so per-instruction queries are O(1) and whole-program
/// scans are cache-friendly — both matter to the in-enclave verifier, which
/// walks the instruction list many times.
#[derive(Debug, Clone)]
pub struct Disassembly {
    /// `(offset, instruction, encoded length)` in address order.
    insts: Vec<(usize, Inst, usize)>,
    /// Dense map: code offset → index into `insts` (`u32::MAX` = not an
    /// instruction start).
    index: Vec<u32>,
    /// Function entries (program entry ∪ indirect-branch targets ∪ direct
    /// call targets), sorted and deduplicated.
    function_entries: Vec<usize>,
    /// The entry offset disassembly started from.
    pub entry: usize,
    /// The indirect-branch targets provided as the proof.
    pub indirect_targets: Vec<usize>,
}

impl Disassembly {
    /// Every reached instruction as `(offset, instruction, length)`, in
    /// address order.
    #[must_use]
    pub fn insts(&self) -> &[(usize, Inst, usize)] {
        &self.insts
    }

    /// Number of decoded instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether no instruction was decoded (never true for a successful
    /// disassembly — the entry instruction always decodes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Index into [`Disassembly::insts`] of the instruction starting at
    /// `offset`.
    #[must_use]
    pub fn index_of(&self, offset: usize) -> Option<usize> {
        match self.index.get(offset) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    /// Function entry offsets — the program entry, every indirect-branch
    /// target and every direct call target — sorted ascending.
    ///
    /// These split the program into the functions the elision analysis
    /// solves one at a time; the verifier's checks scan the whole
    /// instruction list without them. Every instruction belongs to the
    /// function of the closest entry at or below its offset (instructions
    /// below the first entry join the first function).
    #[must_use]
    pub fn function_entries(&self) -> &[usize] {
        &self.function_entries
    }
}

/// Byte states for the dense frontier map.
const FREE: u8 = 0;
const START: u8 = 1;
const INTERIOR: u8 = 2;

/// Disassembles `code` by recursive descent from `entry`, additionally
/// seeding the worklist with `indirect_targets` (the proof's legitimate
/// indirect-branch targets).
///
/// # Errors
///
/// Fails closed on any decode error, any control-flow target outside
/// `code`, and any target that lands inside an already-decoded instruction.
pub fn disassemble(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
) -> Result<Disassembly, DisasmError> {
    if entry >= code.len() {
        return Err(DisasmError::EntryOutOfRange { entry });
    }
    let mut state = vec![FREE; code.len()];
    let mut insts: Vec<(usize, Inst, usize)> = Vec::new();
    let mut function_entries: Vec<usize> = vec![entry];
    let mut work: VecDeque<usize> = VecDeque::new();

    work.push_back(entry);
    for &t in indirect_targets {
        if t >= code.len() {
            return Err(DisasmError::TargetOutOfRange { target: t as i64 });
        }
        function_entries.push(t);
        work.push_back(t);
    }

    while let Some(start) = work.pop_front() {
        let mut off = start;
        loop {
            // (a decoded instruction never extends past the buffer, so an
            // out-of-range offset can never be an overlap as well)
            if off >= code.len() {
                return Err(DisasmError::TargetOutOfRange { target: off as i64 });
            }
            match state[off] {
                START => break, // already disassembled from here
                INTERIOR => {
                    let within = (0..off)
                        .rev()
                        .find(|&p| state[p] == START)
                        .expect("interior bytes follow their instruction start");
                    return Err(DisasmError::InstructionOverlap { target: off, within });
                }
                _ => {}
            }
            let (inst, len) = decode(code, off)?;
            // The new instruction must not swallow the start of a following,
            // already-decoded instruction.
            if let Some(b) = (off + 1..off + len).find(|&b| state[b] == START) {
                return Err(DisasmError::InstructionOverlap { target: b, within: off });
            }
            state[off] = START;
            for b in &mut state[off + 1..off + len] {
                *b = INTERIOR;
            }
            insts.push((off, inst, len));
            let next = off + len;
            if let Some(rel) = inst.direct_rel() {
                let target = next as i64 + i64::from(rel);
                if target < 0 || target as usize >= code.len() {
                    return Err(DisasmError::TargetOutOfRange { target });
                }
                work.push_back(target as usize);
                if let Inst::Call { .. } = inst {
                    function_entries.push(target as usize);
                }
            }
            if inst.is_terminator() {
                break;
            }
            off = next;
        }
    }

    insts.sort_unstable_by_key(|t| t.0);
    function_entries.sort_unstable();
    function_entries.dedup();
    let mut index = vec![u32::MAX; code.len()];
    for (i, t) in insts.iter().enumerate() {
        index[t.0] = u32::try_from(i).expect("code region fits in u32");
    }
    Ok(Disassembly {
        insts,
        index,
        function_entries,
        entry,
        indirect_targets: indirect_targets.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_program, AluOp, CondCode, Reg};

    #[test]
    fn straight_line_program() {
        let prog = [
            Inst::MovRI { dst: Reg::RAX, imm: 1 },
            Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 2 },
            Inst::Halt,
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[]).unwrap();
        assert_eq!(d.len(), 3);
        for off in offsets {
            assert!(d.index_of(off).is_some());
        }
    }

    #[test]
    fn follows_both_branch_arms() {
        // 0: cmp rax, 0
        // 10: je +1 (to halt at 16)
        // 15: nop  (fallthrough arm)
        // 16: halt
        let prog = [
            Inst::CmpRI { lhs: Reg::RAX, imm: 0 },
            Inst::Jcc { cc: CondCode::E, rel: 1 },
            Inst::Nop,
            Inst::Halt,
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[]).unwrap();
        assert_eq!(d.len(), 4);
        assert!(d.index_of(offsets[2]).is_some()); // fallthrough arm
        assert!(d.index_of(offsets[3]).is_some()); // branch target
    }

    #[test]
    fn code_after_unconditional_jmp_not_reached() {
        let prog = [
            Inst::Jmp { rel: 1 }, // skip the nop
            Inst::Nop,            // dead unless targeted
            Inst::Halt,
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[]).unwrap();
        assert!(d.index_of(offsets[1]).is_none());
        assert!(d.index_of(offsets[2]).is_some());
    }

    #[test]
    fn indirect_targets_continue_disassembly() {
        // jmp rax; unreachable without the provided list.
        let prog =
            [Inst::JmpInd { reg: Reg::RAX }, Inst::MovRI { dst: Reg::RAX, imm: 9 }, Inst::Halt];
        let (code, offsets) = encode_program(&prog);
        // Without the list the tail is invisible.
        let d = disassemble(&code, 0, &[]).unwrap();
        assert_eq!(d.len(), 1);
        // With the list, disassembly continues (the paper's algorithm).
        let d = disassemble(&code, 0, &[offsets[1]]).unwrap();
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn follows_call_and_fallthrough() {
        let prog = [
            Inst::Call { rel: 2 }, // callee = ret at offset 7 (next inst is at 5)
            Inst::Nop,             // fallthrough after return
            Inst::Halt,
            Inst::Ret, // callee
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[]).unwrap();
        assert_eq!(d.len(), 4);
        assert!(d.index_of(offsets[3]).is_some());
    }

    #[test]
    fn jump_into_instruction_middle_is_rejected() {
        // jmp +(-4) targets inside the jmp's own rel32 bytes.
        let prog = [Inst::Jmp { rel: -4 }];
        let (code, _) = encode_program(&prog);
        let err = disassemble(&code, 0, &[]).unwrap_err();
        assert!(matches!(err, DisasmError::InstructionOverlap { .. }));
    }

    #[test]
    fn branch_outside_code_rejected() {
        let prog = [Inst::Jmp { rel: 1000 }];
        let (code, _) = encode_program(&prog);
        let err = disassemble(&code, 0, &[]).unwrap_err();
        assert!(matches!(err, DisasmError::TargetOutOfRange { .. }));
    }

    #[test]
    fn negative_branch_target_rejected() {
        let prog = [Inst::Jmp { rel: -100 }];
        let (code, _) = encode_program(&prog);
        let err = disassemble(&code, 0, &[]).unwrap_err();
        assert!(matches!(err, DisasmError::TargetOutOfRange { target } if target < 0));
    }

    #[test]
    fn decode_error_propagates() {
        let code = [0xFFu8];
        let err = disassemble(&code, 0, &[]).unwrap_err();
        assert!(matches!(err, DisasmError::Decode(_)));
    }

    #[test]
    fn falling_off_the_end_rejected() {
        let prog = [Inst::Nop]; // no terminator
        let (code, _) = encode_program(&prog);
        let err = disassemble(&code, 0, &[]).unwrap_err();
        assert!(matches!(err, DisasmError::TargetOutOfRange { .. }));
    }

    #[test]
    fn entry_out_of_range_rejected() {
        assert!(matches!(
            disassemble(&[], 0, &[]).unwrap_err(),
            DisasmError::EntryOutOfRange { .. }
        ));
        let (code, _) = encode_program(&[Inst::Halt]);
        assert!(matches!(
            disassemble(&code, 5, &[]).unwrap_err(),
            DisasmError::EntryOutOfRange { .. }
        ));
    }

    #[test]
    fn indirect_target_out_of_range_rejected() {
        let (code, _) = encode_program(&[Inst::Halt]);
        let err = disassemble(&code, 0, &[100]).unwrap_err();
        assert!(matches!(err, DisasmError::TargetOutOfRange { .. }));
    }

    #[test]
    fn index_and_iteration_agree() {
        let prog = [
            Inst::Call { rel: 2 },
            Inst::Nop,
            Inst::Halt,
            Inst::Ret,
            Inst::Nop, // dead
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[]).unwrap();
        for (i, &(off, _, len)) in d.insts().iter().enumerate() {
            assert_eq!(d.index_of(off), Some(i));
            // The instruction and its recorded length are the encoded ones:
            // the length ends exactly where the next instruction starts.
            let k = offsets.iter().position(|&o| o == off).unwrap();
            assert_eq!(d.insts()[i].1, prog[k]);
            assert_eq!(offsets.get(k + 1).copied().unwrap_or(code.len()), off + len);
        }
        // Interior and unreached bytes are not instruction starts.
        assert_eq!(d.index_of(1), None);
    }

    #[test]
    fn function_entries_cover_entry_calls_and_indirect_targets() {
        let prog = [
            Inst::Call { rel: 3 },          // 0..5: callee at 8
            Inst::JmpInd { reg: Reg::RAX }, // 5..7
            Inst::Nop,                      // 7 (dead)
            Inst::Ret,                      // 8: direct callee
            Inst::Halt,                     // 9: indirect target
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[offsets[4]]).unwrap();
        assert_eq!(d.function_entries(), &[0, offsets[3], offsets[4]]);
        // The dead nop is not decoded.
        assert_eq!(d.len(), 4);
    }
}
