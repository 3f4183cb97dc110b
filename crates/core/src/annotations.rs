//! Security-annotation templates: the exact instruction sequences the code
//! producer implants (paper Section V-A, Fig. 5), each written **once**, as
//! a list of [`Step`]s in [`TEMPLATES`].
//!
//! Every side reads that one table: the producer's emitter
//! ([`crate::producer::emit_template`]) walks the steps to implant a
//! template, the in-enclave verifier matches the same steps after
//! disassembly ([`match_any`]), and the rewriter patches the placeholder
//! immediates of exactly the template's `MovRI` steps. A template's shape
//! therefore cannot diverge between producer and consumer (the round-trip
//! is also property-tested). The emitter builds the compiler's machine IR,
//! so it lives in the producer, outside the counted in-enclave TCB.
//!
//! All templates use `r11` (and where noted `r10`) as scratch — registers
//! the DCL code generator never allocates — plus the save/restore pattern of
//! the paper's Fig. 5 for the store guard. Bounds and table addresses are
//! *placeholder immediates* (`PH_*`): magic 64-bit values the in-enclave
//! rewriter replaces with the real region bounds after verification, exactly
//! like the paper's `0x3FFFFFFFFFFFFFFF`/`0x4FFFFFFFFFFFFFFF` immediates.

use crate::policy::abort_codes;
use deflection_analysis::AnalysisConfig;
use deflection_isa::{AluOp, CondCode, Inst, MemOperand, Reg};
use deflection_sgx_sim::layout::EnclaveLayout;

/// Placeholder for the store window's lower bound (P1/P3/P4).
pub const PH_STORE_LO: u64 = 0x3FFF_FFFF_FFFF_FF01;
/// Placeholder for the store window's upper bound (P1/P3/P4).
pub const PH_STORE_HI: u64 = 0x4FFF_FFFF_FFFF_FF02;
/// Placeholder for the stack window's lower bound (P2).
pub const PH_STACK_LO: u64 = 0x5FFF_FFFF_FFFF_FF03;
/// Placeholder for the stack window's upper bound (P2).
pub const PH_STACK_HI: u64 = 0x5FFF_FFFF_FFFF_FF04;
/// Placeholder for the indirect-branch table base (P5).
pub const PH_BT_BASE: u64 = 0x6FFF_FFFF_FFFF_FF05;
/// Placeholder for the indirect-branch table length (P5).
pub const PH_BT_LEN: u64 = 0x6FFF_FFFF_FFFF_FF06;
/// Placeholder for the shadow-stack top-pointer slot address (P5).
pub const PH_SS_SLOT: u64 = 0x7FFF_FFFF_FFFF_FF07;
/// Placeholder for the SSA marker address (P6).
pub const PH_SSA_MARKER: u64 = 0x8FFF_FFFF_FFFF_FF08;
/// Placeholder for the AEX counter slot address (P6).
pub const PH_AEX_SLOT: u64 = 0x8FFF_FFFF_FFFF_FF09;
/// Placeholder for the AEX abort threshold (P6).
pub const PH_AEX_MAX: u64 = 0x8FFF_FFFF_FFFF_FF0A;

/// Every placeholder immediate the templates carry, in one list.
///
/// The guard-elision analysis must treat these values as opaque (`Top`):
/// the in-enclave rewriter replaces them after verification, so any proof
/// that leaned on a placeholder's numeric value would be unsound for the
/// binary that actually runs.
pub const PLACEHOLDER_IMMS: [u64; 10] = [
    PH_STORE_LO,
    PH_STORE_HI,
    PH_STACK_LO,
    PH_STACK_HI,
    PH_BT_BASE,
    PH_BT_LEN,
    PH_SS_SLOT,
    PH_SSA_MARKER,
    PH_AEX_SLOT,
    PH_AEX_MAX,
];

/// The guard-elision analysis parameters derived from the enclave layout.
///
/// Producer and verifier must agree on these bit-for-bit: the verifier
/// accepts an unguarded operation only when its *own* run of the analysis
/// under this configuration re-derives the safety proof, so any divergence
/// would make the producer elide guards the verifier then rejects (safe,
/// but pointless). Keeping the derivation next to the templates makes the
/// shared contract obvious.
#[must_use]
pub fn elision_analysis_config(layout: &EnclaveLayout) -> AnalysisConfig {
    AnalysisConfig {
        store_lo: layout.store_window().start,
        store_hi: layout.store_window().end,
        stack_hi: layout.initial_rsp(),
        stack_lo: layout.stack_window().start,
        opaque_imms: PLACEHOLDER_IMMS.to_vec(),
        nonstack_imms: NONSTACK_IMMS.to_vec(),
    }
}

/// The placeholders the templates dereference as *pointers*, all of which
/// the rewriter binds to runtime-structure addresses (SSA marker, control
/// page, branch table) that lie strictly below the heap — never inside the
/// stack region. The analysis may therefore keep its abstract frame slots
/// alive across a store through one of these (`AVal::NonStack`): the claim
/// holds for the pre-rewrite binary too, whose magic values sit far above
/// the ELRANGE. Without this fact the per-block P6 AEX probes would clear
/// every loop counter's slot and no in-loop store could ever prove safe.
pub const NONSTACK_IMMS: [u64; 4] = [PH_BT_BASE, PH_SS_SLOT, PH_SSA_MARKER, PH_AEX_SLOT];

/// The marker value P6 annotations plant in the SSA; an AEX overwrites it
/// with the saved `rip`, which can never equal this value because the code
/// window never sits at this address.
pub const SSA_MARKER_VALUE: i32 = 0x5AA5_0FF0;

/// Maximum negative `rbp`-relative displacement exempt from store guards.
///
/// Frame-local scalar stores `mov [rbp - d], r` with `0 < d ≤` this bound
/// need no P1 annotation: the verifier separately enforces that `rbp` is
/// only ever written by the frame idiom (`mov rbp, rsp` / `pop rbp`), so
/// `rbp` always lies inside the stack window, and a displacement bounded by
/// one page can at worst land on the guard page below the stack — which
/// faults. This is the classic SFI guard-page optimization (XFI's scoped
/// stack accesses) and the reason the paper's loader "assigns two
/// non-writable blank guard pages right before and after the target
/// binary's stack".
pub const FRAME_STORE_LIMIT: i64 = 4032;

/// Whether a store to `mem` is a guard-page-contained frame store that
/// needs no P1 annotation.
#[must_use]
pub fn is_exempt_frame_store(mem: &MemOperand) -> bool {
    mem.base == Some(Reg::RBP)
        && mem.index.is_none()
        && mem.disp < 0
        && (mem.disp as i64) >= -FRAME_STORE_LIMIT
}

/// Kinds of annotation template, in [`TEMPLATES`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TemplateKind {
    /// P1/P3/P4 store-bounds guard; subject = the guarded store.
    StoreGuard,
    /// P2 stack-pointer guard (follows an rsp-writing instruction).
    RspGuard,
    /// P5 forward-edge CFI with bounds check; subject = the indirect branch.
    CfiChecked,
    /// Baseline branch-table lowering without the bounds check; subject =
    /// the indirect branch.
    CfiUnchecked,
    /// P6 SSA marker check with AEX counting.
    AexCheck,
    /// P5 shadow-stack pop + compare; subject = the `ret`.
    Epilogue,
    /// P5 shadow-stack push at function entry.
    Prologue,
}

impl TemplateKind {
    /// This kind's entry in [`TEMPLATES`].
    #[must_use]
    pub(crate) fn template(self) -> &'static Template {
        &TEMPLATES[self as usize]
    }
}

/// A matched template instance over the disassembled instruction list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    /// Which template.
    pub kind: TemplateKind,
    /// Index of the first instruction in the instance.
    pub start_idx: usize,
    /// Index of the last instruction (the subject where one exists).
    pub end_idx: usize,
    /// Index of the subject instruction, if this template guards one.
    pub subject_idx: Option<usize>,
}

/// One instruction of a template.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Exactly this instruction.
    Is(Inst),
    /// `jcc cc` landing at the end of step `n - 1`: right past the abort it
    /// skips, or past the whole template when `n` is its length.
    Jcc(CondCode, usize),
    /// `lea rax, M`: binds the operand `M` the store guard checks.
    LeaRax,
    /// The guarded store (`Store`, `Store8` or `StoreImm`) to `M`; `M` must
    /// not use `rsp`, which the guard's pushes shift.
    StoreToM,
    /// `cmp R, r11`: binds the branch-table register `R`.
    CmpR11,
    /// `load R, [r11 + R*8]`: the table fetch (binds `R` if no check did).
    LoadTable,
    /// `call R` or `jmp R`: the lowered indirect branch.
    BranchR,
}

/// One annotation template.
#[derive(Debug)]
pub struct Template {
    /// Which template.
    pub kind: TemplateKind,
    /// Whether the last step is the guarded program instruction.
    pub has_subject: bool,
    /// The instructions, in emission order.
    pub steps: &'static [Step],
}

/// The branch-table entry `[r11 + reg*8]` a lowering fetches its target from.
#[must_use]
pub(crate) const fn table_entry(reg: Reg) -> MemOperand {
    MemOperand { base: Some(Reg::R11), index: Some((reg, 8)), disp: 0 }
}

const fn mov(dst: Reg, imm: u64) -> Step {
    Step::Is(Inst::MovRI { dst, imm })
}

const fn abort(code: u8) -> Step {
    Step::Is(Inst::Abort { code })
}

const fn load(dst: Reg, base: Reg) -> Step {
    Step::Is(Inst::Load { dst, mem: MemOperand::base_disp(base, 0) })
}

const fn store(base: Reg, src: Reg) -> Step {
    Step::Is(Inst::Store { mem: MemOperand::base_disp(base, 0), src })
}

const fn cmp(lhs: Reg, rhs: Reg) -> Step {
    Step::Is(Inst::CmpRR { lhs, rhs })
}

const fn alu(op: AluOp, dst: Reg, imm: i64) -> Step {
    Step::Is(Inst::AluRI { op, dst, imm })
}

/// Every template, in the order [`match_any`] tries them (indexed by
/// [`TemplateKind`]). Prologue and epilogue share their first step, so the
/// longer epilogue is tried first.
pub static TEMPLATES: [Template; 7] = [
    // Paper Fig. 5: save scratch, check M against both store bounds.
    Template {
        kind: TemplateKind::StoreGuard,
        has_subject: true,
        steps: &[
            Step::Is(Inst::Push { reg: Reg::RBX }),
            Step::Is(Inst::Push { reg: Reg::RAX }),
            Step::LeaRax,
            mov(Reg::RBX, PH_STORE_LO),
            cmp(Reg::RAX, Reg::RBX),
            Step::Jcc(CondCode::Ae, 7),
            abort(abort_codes::STORE_BOUNDS),
            mov(Reg::RBX, PH_STORE_HI),
            cmp(Reg::RAX, Reg::RBX),
            Step::Jcc(CondCode::B, 11),
            abort(abort_codes::STORE_BOUNDS),
            Step::Is(Inst::Pop { reg: Reg::RAX }),
            Step::Is(Inst::Pop { reg: Reg::RBX }),
            Step::StoreToM,
        ],
    },
    // Runs entirely in scratch: it must not store through a corrupt rsp.
    Template {
        kind: TemplateKind::RspGuard,
        has_subject: false,
        steps: &[
            mov(Reg::R11, PH_STACK_LO),
            cmp(Reg::RSP, Reg::R11),
            Step::Jcc(CondCode::Ae, 4),
            abort(abort_codes::RSP_BOUNDS),
            mov(Reg::R11, PH_STACK_HI),
            cmp(Reg::RSP, Reg::R11),
            Step::Jcc(CondCode::Be, 8),
            abort(abort_codes::RSP_BOUNDS),
        ],
    },
    // Function-pointer values are table indices, bounds-checked under P5.
    Template {
        kind: TemplateKind::CfiChecked,
        has_subject: true,
        steps: &[
            mov(Reg::R11, PH_BT_LEN),
            Step::CmpR11,
            Step::Jcc(CondCode::B, 4),
            abort(abort_codes::CFI_FORWARD),
            mov(Reg::R11, PH_BT_BASE),
            Step::LoadTable,
            Step::BranchR,
        ],
    },
    Template {
        kind: TemplateKind::CfiUnchecked,
        has_subject: true,
        steps: &[mov(Reg::R11, PH_BT_BASE), Step::LoadTable, Step::BranchR],
    },
    // HyperRace-style (paper Section IV-C): on a clobbered SSA marker run
    // the co-location probe, count the AEX, abort past the threshold and
    // re-arm the marker; the fast path jumps past all of it.
    Template {
        kind: TemplateKind::AexCheck,
        has_subject: false,
        steps: &[
            mov(Reg::R11, PH_SSA_MARKER),
            load(Reg::R10, Reg::R11),
            Step::Is(Inst::CmpRI { lhs: Reg::R10, imm: SSA_MARKER_VALUE as i64 }),
            Step::Jcc(CondCode::E, 20),
            Step::Is(Inst::Push { reg: Reg::RAX }),
            Step::Is(Inst::AexProbe),
            Step::Is(Inst::CmpRI { lhs: Reg::RAX, imm: 0 }),
            Step::Is(Inst::Pop { reg: Reg::RAX }),
            Step::Jcc(CondCode::Ne, 10),
            abort(abort_codes::AEX),
            mov(Reg::R11, PH_AEX_SLOT),
            load(Reg::R10, Reg::R11),
            alu(AluOp::Add, Reg::R10, 1),
            store(Reg::R11, Reg::R10),
            mov(Reg::R11, PH_AEX_MAX),
            cmp(Reg::R10, Reg::R11),
            Step::Jcc(CondCode::B, 18),
            abort(abort_codes::AEX),
            mov(Reg::R11, PH_SSA_MARKER),
            Step::Is(Inst::StoreImm {
                mem: MemOperand::base_disp(Reg::R11, 0),
                imm: SSA_MARKER_VALUE,
            }),
        ],
    },
    // Pop the saved return address off the shadow stack and abort unless
    // it equals the one at [rsp].
    Template {
        kind: TemplateKind::Epilogue,
        has_subject: true,
        steps: &[
            mov(Reg::R11, PH_SS_SLOT),
            load(Reg::RBX, Reg::R11),
            load(Reg::R10, Reg::RBX),
            alu(AluOp::Add, Reg::RBX, 8),
            store(Reg::R11, Reg::RBX),
            Step::Is(Inst::CmpMem { reg: Reg::R10, mem: MemOperand::base_disp(Reg::RSP, 0) }),
            Step::Jcc(CondCode::E, 8),
            abort(abort_codes::CFI_RETURN),
            Step::Is(Inst::Ret),
        ],
    },
    // Push the return address ([rsp]) onto the downward-growing shadow stack.
    Template {
        kind: TemplateKind::Prologue,
        has_subject: false,
        steps: &[
            mov(Reg::R11, PH_SS_SLOT),
            load(Reg::RAX, Reg::R11),
            alu(AluOp::Sub, Reg::RAX, 8),
            load(Reg::RBX, Reg::RSP),
            store(Reg::RAX, Reg::RBX),
            store(Reg::R11, Reg::RAX),
        ],
    },
];

/// Tries to match `t` at index `i` of the disassembled, offset-ordered
/// `(offset, instruction, length)` list: every step in order, each
/// instruction byte-adjacent to the one before.
fn match_template(insts: &[(usize, Inst, usize)], t: &Template, i: usize) -> Option<Instance> {
    let window = insts.get(i..i + t.steps.len())?;
    let end = |k: usize| window.get(k).map(|(off, _, len)| off + len);
    let (mut mem, mut reg) = (None, None);
    let mut at = window.first()?.0;
    for (step, (off, inst, len)) in t.steps.iter().zip(window) {
        if *off != at {
            return None;
        }
        at = off + len;
        let matched = match (*step, inst) {
            (Step::Is(want), _) => *inst == want,
            (Step::Jcc(cc, n), Inst::Jcc { cc: c, rel }) => {
                *c == cc && end(n - 1) == Some(at.wrapping_add_signed(*rel as isize))
            }
            (Step::LeaRax, Inst::Lea { dst: Reg::RAX, mem: m }) => {
                mem = Some(*m);
                true
            }
            (Step::StoreToM, _) => {
                inst.stored_mem().is_some_and(|m| mem == Some(*m) && !m.uses(Reg::RSP))
            }
            (Step::CmpR11, Inst::CmpRR { lhs, rhs: Reg::R11 }) => {
                reg = Some(*lhs);
                true
            }
            (Step::LoadTable, Inst::Load { dst, mem: m }) => {
                *m == table_entry(*dst) && *reg.get_or_insert(*dst) == *dst
            }
            (Step::BranchR, Inst::CallInd { reg: r } | Inst::JmpInd { reg: r }) => reg == Some(*r),
            _ => false,
        };
        if !matched {
            return None;
        }
    }
    let last = i + t.steps.len() - 1;
    Some(Instance {
        kind: t.kind,
        start_idx: i,
        end_idx: last,
        subject_idx: t.has_subject.then_some(last),
    })
}

/// Attempts all templates at index `i`, in [`TEMPLATES`] order.
#[must_use]
pub fn match_any(insts: &[(usize, Inst, usize)], i: usize) -> Option<Instance> {
    TEMPLATES.iter().find_map(|t| match_template(insts, t, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::producer::emit_template;
    use deflection_isa::disassemble;
    use deflection_lang::asm::assemble;
    use deflection_lang::mir::{MFunction, MirProgram};
    use proptest::prelude::*;

    /// Assembles one function and returns the ordered instruction list.
    fn roundtrip(f: MFunction) -> Vec<(usize, Inst, usize)> {
        let p = MirProgram {
            entry: f.name.clone(),
            functions: vec![f],
            data: vec![],
            indirect_targets: vec![],
        };
        let obj = assemble(&p).unwrap();
        disassemble(&obj.text, 0, &[]).unwrap().insts().to_vec()
    }

    /// Emits `kind` (with `subject`), then a `halt`, and matches at 0.
    fn emit_and_match(kind: TemplateKind, subject: Option<Inst>) -> Option<Instance> {
        let mut f = MFunction::new("t");
        emit_template(&mut f, kind, subject);
        f.real(Inst::Halt);
        match_any(&roundtrip(f), 0)
    }

    #[test]
    fn templates_are_indexed_by_kind() {
        for (k, t) in TEMPLATES.iter().enumerate() {
            assert_eq!(t.kind as usize, k);
            assert!(std::ptr::eq(t.kind.template(), t));
            for (at, step) in t.steps.iter().enumerate() {
                if let Step::Jcc(_, n) = step {
                    assert!(*n > at + 1 && *n <= t.steps.len(), "{:?} step {at}", t.kind);
                }
                if let Step::Is(Inst::MovRI { imm, .. }) = step {
                    assert!(PLACEHOLDER_IMMS.contains(imm), "{:?} step {at}", t.kind);
                }
            }
        }
    }

    fn arb_reg() -> impl Strategy<Value = Reg> {
        (0u8..16).prop_map(|i| Reg::from_index(i).unwrap())
    }

    fn arb_scale() -> impl Strategy<Value = u8> {
        prop_oneof![Just(1u8), Just(2), Just(4), Just(8)]
    }

    /// A store of form `form` (0: `Store`, 1: `Store8`, 2: `StoreImm`) to `mem`.
    fn store_to(form: u8, mem: MemOperand) -> Inst {
        match form {
            0 => Inst::Store { mem, src: Reg::RSI },
            1 => Inst::Store8 { mem, src: Reg::RSI },
            _ => Inst::StoreImm { mem, imm: -7 },
        }
    }

    proptest! {
        #[test]
        fn store_guard_roundtrips_for_any_operand(
            base in proptest::option::of(arb_reg()),
            index in proptest::option::of((arb_reg(), arb_scale())),
            disp in any::<i32>(),
            form in 0u8..3,
        ) {
            let mem = MemOperand { base, index, disp };
            prop_assume!(!mem.uses(Reg::RSP));
            let m = emit_and_match(TemplateKind::StoreGuard, Some(store_to(form, mem)));
            let m = m.expect("emitted guard must match");
            prop_assert_eq!(m.kind, TemplateKind::StoreGuard);
            prop_assert_eq!(m.end_idx, 13);
            prop_assert_eq!(m.subject_idx, Some(13));
            // The guard checks `mem` but the store writes elsewhere: the
            // classic evasion must not match.
            let mut f = MFunction::new("t");
            emit_template(&mut f, TemplateKind::StoreGuard, Some(store_to(form, mem)));
            let other = MemOperand { disp: disp.wrapping_add(8), ..mem };
            *f.insts.last_mut().unwrap() = deflection_lang::mir::MInst::Real(store_to(form, other));
            f.real(Inst::Halt);
            prop_assert!(match_any(&roundtrip(f), 0).is_none());
        }

        #[test]
        fn cfi_lowering_roundtrips_for_any_register(
            reg in arb_reg(),
            is_call in any::<bool>(),
            checked in any::<bool>(),
        ) {
            prop_assume!(reg != Reg::R11);
            let branch = if is_call { Inst::CallInd { reg } } else { Inst::JmpInd { reg } };
            let kind = if checked { TemplateKind::CfiChecked } else { TemplateKind::CfiUnchecked };
            let m = emit_and_match(kind, Some(branch)).expect("emitted lowering must match");
            let last = if checked { 6 } else { 2 };
            prop_assert_eq!(m.kind, kind);
            prop_assert_eq!(m.end_idx, last);
            prop_assert_eq!(m.subject_idx, Some(last));
        }
    }

    #[test]
    fn operand_free_templates_roundtrip() {
        for (kind, last) in [(TemplateKind::RspGuard, 7), (TemplateKind::AexCheck, 19)] {
            let m = emit_and_match(kind, None).expect("must match");
            assert_eq!((m.kind, m.end_idx, m.subject_idx), (kind, last, None));
        }
        // Prologue and epilogue share their first step; match_any tells
        // them apart.
        let mut f = MFunction::new("t");
        emit_template(&mut f, TemplateKind::Prologue, None);
        emit_template(&mut f, TemplateKind::Epilogue, None);
        let insts = roundtrip(f);
        let p = match_any(&insts, 0).expect("prologue must match");
        assert_eq!((p.kind, p.end_idx, p.subject_idx), (TemplateKind::Prologue, 5, None));
        let e = match_any(&insts, 6).expect("epilogue must match");
        assert_eq!((e.kind, e.subject_idx), (TemplateKind::Epilogue, Some(14)));
        assert!(matches!(insts[14].1, Inst::Ret));
    }

    #[test]
    #[should_panic(expected = "rsp-relative")]
    fn store_guard_refuses_rsp_operands() {
        let mut f = MFunction::new("t");
        let store = Inst::Store { mem: MemOperand::base_disp(Reg::RSP, 8), src: Reg::RAX };
        emit_template(&mut f, TemplateKind::StoreGuard, Some(store));
    }

    #[test]
    fn tampered_placeholder_rejected() {
        let mut f = MFunction::new("t");
        emit_template(&mut f, TemplateKind::RspGuard, None);
        f.real(Inst::Halt);
        let p = MirProgram {
            entry: "t".into(),
            functions: vec![f],
            data: vec![],
            indirect_targets: vec![],
        };
        let mut obj = assemble(&p).unwrap();
        // Flip one byte of the PH_STACK_LO immediate (starts at offset 2).
        obj.text[4] ^= 1;
        let insts = disassemble(&obj.text, 0, &[]).unwrap().insts().to_vec();
        assert!(match_any(&insts, 0).is_none());
    }
}
