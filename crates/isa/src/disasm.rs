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
//! The work is split into two phases so that the expensive half can use
//! multiple cores without changing the verdict:
//!
//! 1. a **serial frontier walk** over [`crate::decode_step`] discovers every
//!    reachable instruction boundary, validates each encoding and records
//!    function entries (the program entry, the indirect-branch targets, and
//!    every direct call target) — this phase is order-sensitive and performs
//!    *all* fail-closed checks;
//! 2. **materialisation** re-decodes each validated boundary into a full
//!    [`Inst`]; the boundaries are independent, so
//!    [`disassemble_threaded`] shards them across worker threads. The result
//!    is assembled into pre-assigned slots, so it is byte-identical to the
//!    serial order for any thread count.

use crate::{decode, decode_step, DecodeError, Inst, StepKind};
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

/// A basic block recovered by the disassembler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Offset of the first instruction.
    pub start: usize,
    /// Offset one past the last byte of the block.
    pub end: usize,
    /// Offsets of the instructions in the block, in order.
    pub inst_offsets: Vec<usize>,
    /// Offsets of statically known successor blocks.
    pub successors: Vec<usize>,
    /// Whether the block ends in an indirect branch (successors are then the
    /// whole indirect-branch target list).
    pub ends_in_indirect: bool,
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
    /// Offsets that start a basic block, sorted.
    leaders: Vec<usize>,
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

    /// The instruction decoded at `offset`, if control flow reached it.
    #[must_use]
    pub fn inst_at(&self, offset: usize) -> Option<&Inst> {
        self.index_of(offset).map(|i| &self.insts[i].1)
    }

    /// Offsets that start a basic block, sorted ascending.
    #[must_use]
    pub fn leaders(&self) -> &[usize] {
        &self.leaders
    }

    /// Whether `offset` starts a basic block.
    #[must_use]
    pub fn is_leader(&self, offset: usize) -> bool {
        self.leaders.binary_search(&offset).is_ok()
    }

    /// Function entry offsets — the program entry, every indirect-branch
    /// target and every direct call target — sorted ascending.
    ///
    /// These are the shard boundaries for parallel verification: every
    /// instruction belongs to the function of the closest entry at or below
    /// its offset (instructions below the first entry join the first
    /// function).
    #[must_use]
    pub fn function_entries(&self) -> &[usize] {
        &self.function_entries
    }

    /// Index into [`Disassembly::function_entries`] of the function whose
    /// address range contains `offset`.
    #[must_use]
    pub fn function_of_offset(&self, offset: usize) -> usize {
        self.function_entries.partition_point(|&e| e <= offset).saturating_sub(1)
    }

    /// Per-function instruction ranges: for each entry in
    /// [`Disassembly::function_entries`], the half-open range of indices
    /// into [`Disassembly::insts`] its address range covers.
    #[must_use]
    pub fn function_ranges(&self) -> Vec<(usize, usize)> {
        let n = self.function_entries.len();
        let mut ranges = Vec::with_capacity(n);
        let mut start = 0usize;
        for k in 1..=n {
            let end = if k == n {
                self.insts.len()
            } else {
                let boundary = self.function_entries[k];
                self.insts.partition_point(|t| t.0 < boundary)
            };
            ranges.push((start, end));
            start = end;
        }
        ranges
    }

    /// Reconstructs the basic blocks and their static successor edges.
    #[must_use]
    pub fn blocks(&self) -> Vec<BasicBlock> {
        let mut blocks = Vec::new();
        let mut current: Option<BasicBlock> = None;
        for &(off, inst, len) in &self.insts {
            let starts_block = self.is_leader(off);
            if starts_block {
                if let Some(b) = current.take() {
                    blocks.push(b);
                }
                current = Some(BasicBlock {
                    start: off,
                    end: off,
                    inst_offsets: Vec::new(),
                    successors: Vec::new(),
                    ends_in_indirect: false,
                });
            }
            let Some(block) = current.as_mut() else {
                // Instruction not reachable from any leader should not occur:
                // every decoded instruction is on a path from a leader.
                continue;
            };
            // A gap (unreached bytes) between instructions ends the block.
            if !block.inst_offsets.is_empty() && block.end != off {
                let done = current.take().expect("checked above");
                blocks.push(done);
                current = Some(BasicBlock {
                    start: off,
                    end: off,
                    inst_offsets: Vec::new(),
                    successors: Vec::new(),
                    ends_in_indirect: false,
                });
            }
            let block = current.as_mut().expect("just ensured");
            block.inst_offsets.push(off);
            block.end = off + len;
            let next = off + len;
            let mut terminate = false;
            match inst {
                Inst::Jmp { rel } => {
                    block.successors.push(add_rel(next, rel));
                    terminate = true;
                }
                Inst::Jcc { rel, .. } => {
                    block.successors.push(add_rel(next, rel));
                    block.successors.push(next);
                    terminate = true;
                }
                Inst::JmpInd { .. } => {
                    block.successors.extend(self.indirect_targets.iter().copied());
                    block.ends_in_indirect = true;
                    terminate = true;
                }
                Inst::Ret | Inst::Halt | Inst::Abort { .. } => {
                    terminate = true;
                }
                _ => {
                    // Calls fall through within the block for CFG purposes;
                    // the callee is reached separately via the worklist.
                    if self.is_leader(next) {
                        block.successors.push(next);
                        terminate = true;
                    }
                }
            }
            if terminate {
                blocks.push(current.take().expect("block present"));
            }
        }
        if let Some(b) = current.take() {
            blocks.push(b);
        }
        blocks
    }
}

fn add_rel(next: usize, rel: i32) -> usize {
    (next as i64 + rel as i64) as usize
}

/// Validated instruction boundaries found by the frontier walk.
struct Frontier {
    /// `(offset, length)` in address order.
    starts: Vec<(usize, usize)>,
    /// Basic-block leaders, sorted, deduplicated.
    leaders: Vec<usize>,
    /// Function entries, sorted, deduplicated.
    function_entries: Vec<usize>,
}

/// Byte states for the dense frontier map.
const FREE: u8 = 0;
const START: u8 = 1;
const INTERIOR: u8 = 2;

/// Phase 1: the serial recursive-descent walk. Performs every fail-closed
/// check (decode validity, range, overlap) using [`decode_step`], which is
/// validation-identical to [`decode`], so the walk fails exactly where a
/// full serial disassembly would.
fn frontier(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
) -> Result<Frontier, DisasmError> {
    if entry >= code.len() {
        return Err(DisasmError::EntryOutOfRange { entry });
    }
    let mut state = vec![FREE; code.len()];
    let mut starts: Vec<(usize, usize)> = Vec::new();
    let mut leaders: Vec<usize> = vec![entry];
    let mut function_entries: Vec<usize> = vec![entry];
    let mut work: VecDeque<usize> = VecDeque::new();

    work.push_back(entry);
    for &t in indirect_targets {
        if t >= code.len() {
            return Err(DisasmError::TargetOutOfRange { target: t as i64 });
        }
        leaders.push(t);
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
            let (step, len) = decode_step(code, off)?;
            // The new instruction must not swallow the start of a following,
            // already-decoded instruction.
            if let Some(b) = (off + 1..off + len).find(|&b| state[b] == START) {
                return Err(DisasmError::InstructionOverlap { target: b, within: off });
            }
            state[off] = START;
            for b in &mut state[off + 1..off + len] {
                *b = INTERIOR;
            }
            starts.push((off, len));
            let next = off + len;
            let mut enqueue = |target: i64| -> Result<usize, DisasmError> {
                if target < 0 || target as usize >= code.len() {
                    return Err(DisasmError::TargetOutOfRange { target });
                }
                let t = target as usize;
                leaders.push(t);
                work.push_back(t);
                Ok(t)
            };
            match step {
                StepKind::Jmp { rel } => {
                    enqueue(next as i64 + rel as i64)?;
                    break;
                }
                StepKind::Jcc { rel } => {
                    enqueue(next as i64 + rel as i64)?;
                    leaders.push(next);
                    off = next;
                }
                StepKind::Call { rel } => {
                    let callee = enqueue(next as i64 + rel as i64)?;
                    function_entries.push(callee);
                    off = next;
                }
                StepKind::Stop => break,
                StepKind::Fall => off = next,
            }
        }
    }

    starts.sort_unstable();
    leaders.sort_unstable();
    leaders.dedup();
    function_entries.sort_unstable();
    function_entries.dedup();
    Ok(Frontier { starts, leaders, function_entries })
}

/// Below this instruction count the thread-spawn overhead outweighs the
/// parallel decode win; materialise serially.
const PARALLEL_MIN_INSTS: usize = 256;

/// Phase 2: re-decode each validated boundary into a full [`Inst`]. Every
/// slot is pre-assigned, so sharding across threads cannot reorder or race:
/// the output is identical for any thread count.
fn materialize(
    code: &[u8],
    starts: &[(usize, usize)],
    threads: usize,
) -> Vec<(usize, Inst, usize)> {
    let full = |&(off, len): &(usize, usize)| -> (usize, Inst, usize) {
        let (inst, dlen) = decode(code, off).expect("frontier-validated instruction re-decodes");
        debug_assert_eq!(dlen, len);
        (off, inst, len)
    };
    if threads <= 1 || starts.len() < PARALLEL_MIN_INSTS {
        return starts.iter().map(full).collect();
    }
    let mut out: Vec<(usize, Inst, usize)> = vec![(0, Inst::Nop, 0); starts.len()];
    let chunk = starts.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (src, dst) in starts.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(move || {
                for (slot, t) in dst.iter_mut().zip(src) {
                    *slot = full(t);
                }
            });
        }
    });
    out
}

/// Disassembles `code` by recursive descent from `entry`, additionally
/// seeding the worklist with `indirect_targets` (the proof's legitimate
/// indirect-branch targets).
///
/// Equivalent to [`disassemble_threaded`] with one thread; this is the
/// TCB-counted default.
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
    disassemble_threaded(code, entry, indirect_targets, 1)
}

/// [`disassemble`], with instruction materialisation sharded across up to
/// `threads` worker threads.
///
/// All fail-closed validation happens in the serial frontier walk before any
/// thread is spawned, so the verdict — success or the exact error — and the
/// resulting [`Disassembly`] are identical to the serial path for every
/// thread count.
///
/// # Errors
///
/// Exactly the errors [`disassemble`] returns, on exactly the same inputs.
pub fn disassemble_threaded(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
    threads: usize,
) -> Result<Disassembly, DisasmError> {
    let Frontier { starts, leaders, function_entries } = frontier(code, entry, indirect_targets)?;
    let insts = materialize(code, &starts, threads);
    let mut index = vec![u32::MAX; code.len()];
    for (i, t) in insts.iter().enumerate() {
        index[t.0] = u32::try_from(i).expect("code region fits in u32");
    }
    Ok(Disassembly {
        insts,
        index,
        leaders,
        function_entries,
        entry,
        indirect_targets: indirect_targets.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{encode_program, AluOp, CondCode, MemOperand, Reg};

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
        assert!(d.is_leader(offsets[2])); // fallthrough leader
        assert!(d.is_leader(offsets[3])); // branch target leader
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
        assert!(d.is_leader(offsets[3]));
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
    fn basic_blocks_and_successors() {
        // block A: cmp; je T --> successors [T, fall]
        // block B (fall): store; jmp T
        // block T: halt
        let prog = [
            Inst::CmpRI { lhs: Reg::RAX, imm: 5 },  // 0..10
            Inst::Jcc { cc: CondCode::E, rel: 14 }, // 10..15
            Inst::Store { mem: MemOperand::abs(64), src: Reg::RAX }, // 15..24
            Inst::Jmp { rel: 0 },                   // 24..29
            Inst::Halt,                             // 29
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[]).unwrap();
        let blocks = d.blocks();
        assert_eq!(blocks.len(), 3);
        let a = &blocks[0];
        assert_eq!(a.start, 0);
        assert_eq!(a.successors, vec![offsets[4], offsets[2]]);
        let b = &blocks[1];
        assert_eq!(b.start, offsets[2]);
        assert_eq!(b.successors, vec![offsets[4]]);
        let t = &blocks[2];
        assert_eq!(t.start, offsets[4]);
        assert!(t.successors.is_empty());
    }

    #[test]
    fn indirect_block_successors_are_the_list() {
        let prog = [
            Inst::JmpInd { reg: Reg::RAX }, // block 0
            Inst::Halt,                     // target 1
            Inst::Halt,                     // target 2
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[offsets[1], offsets[2]]).unwrap();
        let blocks = d.blocks();
        let first = blocks.iter().find(|b| b.start == 0).unwrap();
        assert!(first.ends_in_indirect);
        assert_eq!(first.successors, vec![offsets[1], offsets[2]]);
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
        for (i, &(off, inst, len)) in d.insts().iter().enumerate() {
            assert_eq!(d.index_of(off), Some(i));
            assert_eq!(d.inst_at(off), Some(&inst));
            // The recorded length ends exactly where the next encoded
            // instruction starts.
            let k = offsets.iter().position(|&o| o == off).unwrap();
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
        assert_eq!(d.function_of_offset(0), 0);
        assert_eq!(d.function_of_offset(offsets[1]), 0);
        assert_eq!(d.function_of_offset(offsets[3]), 1);
        assert_eq!(d.function_of_offset(offsets[4]), 2);
        // Ranges partition the instruction list (the dead nop is not decoded).
        let ranges = d.function_ranges();
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[0], (0, 2));
        assert_eq!(ranges[1], (2, 3));
        assert_eq!(ranges[2], (3, 4));
        assert_eq!(ranges.last().unwrap().1, d.len());
    }

    #[test]
    fn threaded_disassembly_is_identical_to_serial() {
        // Large enough to clear PARALLEL_MIN_INSTS: a long chain of calls
        // and arithmetic with a branchy tail.
        let mut prog = Vec::new();
        for i in 0..300 {
            prog.push(Inst::MovRI { dst: Reg::RAX, imm: i });
            prog.push(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 1 });
        }
        prog.push(Inst::CmpRI { lhs: Reg::RAX, imm: 0 });
        prog.push(Inst::Jcc { cc: CondCode::E, rel: 1 });
        prog.push(Inst::Nop);
        prog.push(Inst::Halt);
        let (code, _) = encode_program(&prog);
        let serial = disassemble(&code, 0, &[]).unwrap();
        assert!(serial.len() >= PARALLEL_MIN_INSTS);
        for threads in [2, 4, 8] {
            let par = disassemble_threaded(&code, 0, &[], threads).unwrap();
            assert_eq!(par.insts(), serial.insts(), "threads={threads}");
            assert_eq!(par.leaders(), serial.leaders());
            assert_eq!(par.function_entries(), serial.function_entries());
        }
    }
}
