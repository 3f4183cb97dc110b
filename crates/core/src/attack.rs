//! Attack corpus: malicious target binaries that the verifier must reject
//! or the runtime must contain (paper Section VI-A, "Policy analysis").
//!
//! Each constructor returns a linked relocatable binary built the way a
//! malicious code provider would build it — bypassing or subverting the
//! honest producer — together with a short description. Integration tests
//! and the `malicious_provider` example drive the corpus through the
//! consumer pipeline and assert on the exact outcome.

use crate::annotations::{self, TemplateKind};
use crate::policy::PolicySet;
use crate::producer::{emit_template, instrument, produce_from_mir, produce_stripped_mir};
use deflection_isa::{AluOp, CondCode, Inst, MemOperand, Reg};
use deflection_lang::mir::{MFunction, MInst, MirProgram};
use deflection_obj::ObjectFile;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use std::collections::HashSet;

/// A corpus entry: what the attack does and the binary implementing it.
#[derive(Debug, Clone)]
pub struct Attack {
    /// Short name for reports.
    pub name: &'static str,
    /// What the attack attempts.
    pub description: &'static str,
    /// The malicious linked binary.
    pub binary: ObjectFile,
    /// The expected containment: rejected by the verifier, or aborted at
    /// runtime with a specific policy code.
    pub expected: Expected,
}

/// Expected containment of an attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expected {
    /// The verifier must reject the binary outright.
    VerifierReject,
    /// The binary verifies but the annotation aborts at runtime with this
    /// policy code.
    RuntimeAbort(u8),
}

fn mir_program(functions: Vec<MFunction>, indirect_targets: Vec<String>) -> MirProgram {
    MirProgram { entry: functions[0].name.clone(), functions, data: vec![], indirect_targets }
}

fn start_calling(callee: &str) -> MFunction {
    let mut start = MFunction::new("__start");
    start.push(MInst::CallSym(callee.into()));
    start.real(Inst::Halt);
    start
}

/// A raw, unannotated store to untrusted memory (the classic exfiltration
/// write P1 exists to stop). Rejected by any verifier enforcing P1.
#[must_use]
pub fn raw_out_of_enclave_store() -> Attack {
    let mut main = MFunction::new("__start");
    main.real(Inst::MovRI { dst: Reg::RBX, imm: 0x100 });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x5EC2E7 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBX, 0), src: Reg::RAX });
    main.real(Inst::Halt);
    let obj = produce_from_mir(&mir_program(vec![main], vec![]), &PolicySet::none())
        .expect("hand-built attack must assemble");
    Attack {
        name: "raw-out-of-enclave-store",
        description: "unannotated 8-byte store to untrusted address 0x100",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// A store "guarded" by an annotation that checks a *different* address —
/// the guard watches `[rcx]` while the store writes `[rdx]`.
#[must_use]
pub fn wrong_operand_guard() -> Attack {
    let mut main = MFunction::new("__start");
    main.real(Inst::MovRI { dst: Reg::RCX, imm: 0x2000_0000 });
    main.real(Inst::MovRI { dst: Reg::RDX, imm: 0x100 });
    let guarded = Inst::Store { mem: MemOperand::base_disp(Reg::RCX, 0), src: Reg::RAX };
    emit_template(&mut main, TemplateKind::StoreGuard, Some(guarded));
    // Retarget the guarded store; the guard still checks [rcx].
    *main.insts.last_mut().expect("the guard ends in its store") =
        MInst::Real(Inst::Store { mem: MemOperand::base_disp(Reg::RDX, 0), src: Reg::RAX });
    main.real(Inst::Halt);
    let obj =
        produce_from_mir(&mir_program(vec![main], vec![]), &PolicySet::none()).expect("assembles");
    Attack {
        name: "wrong-operand-guard",
        description: "P1 annotation checks [rcx] but the store writes [rdx]",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// A conditional jump that lands *inside* a store guard, on the register
/// restore right before the store — skipping both bounds checks.
#[must_use]
pub fn jump_over_guard() -> Attack {
    let mut f = MFunction::new("__start");
    let mid = f.new_label();
    let mem = MemOperand::base_disp(Reg::RDX, 0);
    f.real(Inst::MovRI { dst: Reg::RDX, imm: 0x100 });
    f.real(Inst::CmpRI { lhs: Reg::RAX, imm: 0 });
    f.push(MInst::Jcc(CondCode::E, mid)); // hostile entry into the template
                                          // Hand-rolled copy of the store guard with a label before the pops.
    let ok1 = f.new_label();
    let ok2 = f.new_label();
    f.real(Inst::Push { reg: Reg::RBX });
    f.real(Inst::Push { reg: Reg::RAX });
    f.real(Inst::Lea { dst: Reg::RAX, mem });
    f.real(Inst::MovRI { dst: Reg::RBX, imm: annotations::PH_STORE_LO });
    f.real(Inst::CmpRR { lhs: Reg::RAX, rhs: Reg::RBX });
    f.push(MInst::Jcc(CondCode::Ae, ok1));
    f.real(Inst::Abort { code: crate::policy::abort_codes::STORE_BOUNDS });
    f.push(MInst::Label(ok1));
    f.real(Inst::MovRI { dst: Reg::RBX, imm: annotations::PH_STORE_HI });
    f.real(Inst::CmpRR { lhs: Reg::RAX, rhs: Reg::RBX });
    f.push(MInst::Jcc(CondCode::B, ok2));
    f.real(Inst::Abort { code: crate::policy::abort_codes::STORE_BOUNDS });
    f.push(MInst::Label(ok2));
    f.push(MInst::Label(mid)); // hostile landing pad
    f.real(Inst::Pop { reg: Reg::RAX });
    f.real(Inst::Pop { reg: Reg::RBX });
    f.real(Inst::Store { mem, src: Reg::RAX });
    f.real(Inst::Halt);
    let obj =
        produce_from_mir(&mir_program(vec![f], vec![]), &PolicySet::none()).expect("assembles");
    Attack {
        name: "jump-over-guard",
        description: "direct branch into the interior of a P1 annotation",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// A return-address smash: an in-bounds, correctly guarded store that
/// overwrites the caller's return address on the stack. The store guard
/// passes (the stack is writable data) — the shadow-stack epilogue catches
/// the corruption at `ret`.
#[must_use]
pub fn return_address_smash() -> Attack {
    let mut victim = MFunction::new("victim");
    victim.real(Inst::Push { reg: Reg::RBP });
    victim.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    victim.real(Inst::MovRI { dst: Reg::RAX, imm: 0xDEAD });
    // Return address sits at [rbp+8] after the frame setup.
    victim.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBP, 8), src: Reg::RAX });
    victim.real(Inst::MovRR { dst: Reg::RSP, src: Reg::RBP });
    victim.real(Inst::Pop { reg: Reg::RBP });
    victim.push(MInst::Ret);
    let mir = mir_program(vec![start_calling("victim"), victim], vec![]);
    let obj = produce_from_mir(&mir, &PolicySet::full()).expect("assembles");
    Attack {
        name: "return-address-smash",
        description: "guarded store overwrites the return address; shadow stack detects",
        binary: obj,
        expected: Expected::RuntimeAbort(crate::policy::abort_codes::CFI_RETURN),
    }
}

/// An indirect call with an out-of-range branch-table index: the P5 bounds
/// check aborts before any control transfer.
#[must_use]
pub fn indirect_call_bad_index() -> Attack {
    let mut helper = MFunction::new("helper");
    helper.real(Inst::Push { reg: Reg::RBP });
    helper.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    helper.real(Inst::MovRR { dst: Reg::RSP, src: Reg::RBP });
    helper.real(Inst::Pop { reg: Reg::RBP });
    helper.push(MInst::Ret);
    let mut main = MFunction::new("__start");
    main.real(Inst::MovRI { dst: Reg::R10, imm: 99 }); // only 1 table entry
    main.push(MInst::CallReg(Reg::R10));
    main.real(Inst::Halt);
    let mir = mir_program(vec![main, helper], vec!["helper".into()]);
    let obj = produce_from_mir(&mir, &PolicySet::full()).expect("assembles");
    Attack {
        name: "indirect-call-bad-index",
        description: "indirect call with branch-table index 99 of 1",
        binary: obj,
        expected: Expected::RuntimeAbort(crate::policy::abort_codes::CFI_FORWARD),
    }
}

/// A stack pivot: `rsp` is pointed at untrusted memory so subsequent spills
/// would leak. The P2 annotation right after the write aborts.
#[must_use]
pub fn rsp_pivot() -> Attack {
    let mut main = MFunction::new("__start");
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x500 });
    main.real(Inst::MovRR { dst: Reg::RSP, src: Reg::RAX });
    main.real(Inst::Push { reg: Reg::RBX }); // would write to 0x4F8
    main.real(Inst::Halt);
    let obj =
        produce_from_mir(&mir_program(vec![main], vec![]), &PolicySet::full()).expect("assembles");
    Attack {
        name: "rsp-pivot",
        description: "rsp redirected to untrusted memory; P2 aborts after the write",
        binary: obj,
        expected: Expected::RuntimeAbort(crate::policy::abort_codes::RSP_BOUNDS),
    }
}

/// Self-modifying code: a (guarded) store aimed at the program's own RWX
/// code pages. Page permissions cannot stop it under SGXv1 — the software
/// DEP bounds do (P4 via the P1 window).
#[must_use]
pub fn self_modifying_code() -> Attack {
    let mut victim = MFunction::new("victim");
    victim.real(Inst::Push { reg: Reg::RBP });
    victim.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    victim.real(Inst::MovRR { dst: Reg::RSP, src: Reg::RBP });
    victim.real(Inst::Pop { reg: Reg::RBP });
    victim.push(MInst::Ret);
    let mut main = MFunction::new("__start");
    // Address of victim's code, resolved by the in-enclave loader.
    main.push(MInst::LoadSymAddr { dst: Reg::RBX, symbol: "victim".into(), addend: 0 });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x0101_0101 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBX, 0), src: Reg::RAX });
    main.real(Inst::Halt);
    let mir = mir_program(vec![main, victim], vec![]);
    let obj = produce_from_mir(&mir, &PolicySet::full()).expect("assembles");
    Attack {
        name: "self-modifying-code",
        description: "guarded store targets the RWX code window (software DEP)",
        binary: obj,
        expected: Expected::RuntimeAbort(crate::policy::abort_codes::STORE_BOUNDS),
    }
}

/// A store targeting the bootstrap enclave's security-critical data (the
/// shadow-stack page) — P3 via the same window bounds.
#[must_use]
pub fn critical_data_overwrite() -> Attack {
    let mut main = MFunction::new("__start");
    // The shadow stack lives below the code window; aim just below the
    // store window's lower bound. The producer cannot know absolute
    // addresses, but `__io` (first data symbol) minus a large offset lands
    // below the heap reliably.
    main.push(MInst::LoadSymAddr { dst: Reg::RBX, symbol: "__trap".into(), addend: -4096 });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x666 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBX, 0), src: Reg::RAX });
    main.real(Inst::Halt);
    let mut mir = mir_program(vec![main], vec![]);
    mir.data.push(deflection_lang::mir::DataDef { name: "__trap".into(), size: 8, init: None });
    let obj = produce_from_mir(&mir, &PolicySet::full()).expect("assembles");
    Attack {
        name: "critical-data-overwrite",
        description: "guarded store aimed below the data window (critical pages)",
        binary: obj,
        expected: Expected::RuntimeAbort(crate::policy::abort_codes::STORE_BOUNDS),
    }
}

/// A raw indirect jump that bypasses the branch table entirely.
#[must_use]
pub fn raw_indirect_jump() -> Attack {
    let mut main = MFunction::new("__start");
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x1234_5678 });
    main.real(Inst::JmpInd { reg: Reg::RAX });
    main.real(Inst::Halt);
    let obj =
        produce_from_mir(&mir_program(vec![main], vec![]), &PolicySet::none()).expect("assembles");
    Attack {
        name: "raw-indirect-jump",
        description: "indirect jump not lowered through the branch table",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// A `ret` without the shadow-stack epilogue in a binary claiming full
/// instrumentation elsewhere.
#[must_use]
pub fn bare_ret() -> Attack {
    let mut victim = MFunction::new("victim");
    victim.push(MInst::Ret); // no epilogue, no prologue
    let mir = mir_program(vec![start_calling("victim"), victim], vec![]);
    // Instrument only the entry (simulating a producer that "forgets" one
    // function): run the honest pass, then splice the bare function back.
    let honest = instrument(&mir, &PolicySet::p1_p5());
    let mut functions = honest.functions.clone();
    let mut bare = MFunction::new("victim");
    bare.push(MInst::Ret);
    functions[1] = bare;
    let spliced = MirProgram {
        functions,
        data: honest.data.clone(),
        entry: honest.entry.clone(),
        indirect_targets: honest.indirect_targets.clone(),
    };
    let obj = produce_from_mir(&spliced, &PolicySet::none()).expect("assembles");
    Attack {
        name: "bare-ret",
        description: "function without shadow-stack prologue/epilogue",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// A frame-pointer hijack: `rbp` is pointed outside the stack so that
/// "frame-local" stores (exempt from P1 guards) would write through it.
/// The verifier's rbp-discipline rule rejects the binary outright.
#[must_use]
pub fn rbp_hijack() -> Attack {
    let mut main = MFunction::new("__start");
    main.real(Inst::MovRI { dst: Reg::RBP, imm: 0x600 }); // untrusted memory
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x5EC2E7 });
    // Looks like an innocent frame store, would leak through hijacked rbp.
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBP, -8), src: Reg::RAX });
    main.real(Inst::Halt);
    let obj =
        produce_from_mir(&mir_program(vec![main], vec![]), &PolicySet::none()).expect("assembles");
    Attack {
        name: "rbp-hijack",
        description: "rbp loaded with an untrusted address to abuse the frame-store exemption",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// A store pretending to be frame-local but displaced past the guard page
/// (beyond `FRAME_STORE_LIMIT`), without a guard annotation.
#[must_use]
pub fn oversized_frame_store() -> Attack {
    let mut main = MFunction::new("__start");
    main.real(Inst::Push { reg: Reg::RBP });
    main.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 1 });
    // -8192 reaches past the guard page below the stack.
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBP, -8192), src: Reg::RAX });
    main.real(Inst::Halt);
    let obj =
        produce_from_mir(&mir_program(vec![main], vec![]), &PolicySet::none()).expect("assembles");
    Attack {
        name: "oversized-frame-store",
        description: "unguarded rbp-relative store displaced beyond the guard page",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// Elision exploit: an unguarded store whose address interval *widens* —
/// the index grows without bound around an unconditional back edge, so no
/// finite range covers it. A lazy verifier that trusted the first-iteration
/// address would accept; the abstract interpretation must widen to ⊤ and
/// reject the missing guard.
#[must_use]
pub fn elision_widened_store() -> Attack {
    let mut main = MFunction::new("__start");
    let head = main.new_label();
    main.push(MInst::LoadSymAddr { dst: Reg::RBX, symbol: "__trap".into(), addend: 0 });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x5EC2E7 });
    main.push(MInst::Label(head));
    // In-window on iteration one, out of the window eventually.
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBX, 0), src: Reg::RAX });
    main.real(Inst::AluRI { op: AluOp::Add, dst: Reg::RBX, imm: 4096 });
    main.push(MInst::Jmp(head));
    let mut mir = mir_program(vec![main], vec![]);
    mir.data.push(deflection_lang::mir::DataDef { name: "__trap".into(), size: 8, init: None });
    // Fully instrument, then strip exactly the store's guard (site 0) the
    // way a malicious producer hoping for elision acceptance would.
    let obj = produce_stripped_mir(
        &mir,
        &PolicySet::full().with_elision(),
        &HashSet::from([0]),
        &HashSet::new(),
    )
    .expect("assembles");
    Attack {
        name: "elision-widened-store",
        description: "unguarded store whose index widens past the store window in a loop",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// Elision exploit: the stored-through pointer is safe along the *direct*
/// call path but poisoned along a branch-table *indirect* path to the same
/// function. A verifier that only followed direct edges would prove the
/// store safe; the analysis joins both incoming edges and must reject.
#[must_use]
pub fn elision_indirect_edge_store() -> Attack {
    let mut victim = MFunction::new("victim");
    victim.real(Inst::Push { reg: Reg::RBP });
    victim.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    // Store through the caller-controlled pointer in rdx — guard stripped.
    victim.real(Inst::Store { mem: MemOperand::base_disp(Reg::RDX, 0), src: Reg::RAX });
    victim.real(Inst::MovRR { dst: Reg::RSP, src: Reg::RBP });
    victim.real(Inst::Pop { reg: Reg::RBP });
    victim.push(MInst::Ret);
    let mut main = MFunction::new("__start");
    // Direct path: a pointer the analysis can prove in-window.
    main.push(MInst::LoadSymAddr { dst: Reg::RDX, symbol: "__trap".into(), addend: 0 });
    main.push(MInst::CallSym("victim".into()));
    // Indirect path through the sealed branch table, pointer poisoned.
    main.real(Inst::MovRI { dst: Reg::RDX, imm: 0x100 });
    main.real(Inst::MovRI { dst: Reg::R10, imm: 0 }); // table index of victim
    main.push(MInst::CallReg(Reg::R10));
    main.real(Inst::Halt);
    let mut mir = mir_program(vec![main, victim], vec!["victim".into()]);
    mir.data.push(deflection_lang::mir::DataDef { name: "__trap".into(), size: 8, init: None });
    let obj = produce_stripped_mir(
        &mir,
        &PolicySet::full().with_elision(),
        &HashSet::from([0]),
        &HashSet::new(),
    )
    .expect("assembles");
    Attack {
        name: "elision-indirect-edge-store",
        description: "store safe on the direct path, poisoned via a branch-table edge",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// Elision exploit: a guard-less stack pivot. The producer strips the P2
/// annotation of an `rsp` write whose target is a *constant outside the
/// stack window*, then relies on the frame-store exemption (rbp tracks the
/// pivoted rsp) to smuggle writes. The verifier's own `rsp` range proof
/// must fail and reject the missing annotation.
#[must_use]
pub fn elision_rsp_pivot() -> Attack {
    let mut main = MFunction::new("__start");
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x500 });
    main.real(Inst::MovRR { dst: Reg::RSP, src: Reg::RAX }); // P2 site 0, stripped
                                                             // rbp/rsp confusion: adopt the pivoted rsp as a "frame" so rbp-relative
                                                             // stores would look exempt from P1.
    main.real(Inst::Push { reg: Reg::RBP });
    main.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x5EC2E7 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBP, -8), src: Reg::RAX });
    main.real(Inst::Halt);
    let mir = mir_program(vec![main], vec![]);
    let obj = produce_stripped_mir(
        &mir,
        &PolicySet::full().with_elision(),
        &HashSet::new(),
        &HashSet::from([0]),
    )
    .expect("assembles");
    Attack {
        name: "elision-rsp-pivot",
        description: "stripped P2 guard on an rsp write provably outside the stack window",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// Elision exploit: a counted loop whose bound is off by one. The store
/// walks a window-sized table from a base chosen so the *correct* bound
/// (64 iterations) would stay inside the P1 window — the producer ships
/// the loop with bound 65 and no guard, betting the verifier's interval
/// only checks the first iteration. Branch refinement bounds the index at
/// `[0, 64]`, so the last iteration's address provably crosses `store_hi`
/// and the analysis must reject.
#[must_use]
pub fn elision_off_by_one_bound() -> Attack {
    let layout = EnclaveLayout::new(MemConfig::small());
    let window = layout.store_window();
    let base = window.end - 64 * 8; // 64 slots fit exactly; slot 65 does not
    let mut main = MFunction::new("__start");
    let head = main.new_label();
    main.real(Inst::MovRI { dst: Reg::RBX, imm: base });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0 });
    main.real(Inst::MovRI { dst: Reg::RCX, imm: 0x5EC2E7 });
    main.push(MInst::Label(head));
    // table[i] — guard stripped (site 0).
    main.real(Inst::Store { mem: MemOperand::base_index(Reg::RBX, Reg::RAX, 8, 0), src: Reg::RCX });
    main.real(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 1 });
    main.real(Inst::CmpRI { lhs: Reg::RAX, imm: 65 });
    main.push(MInst::Jcc(CondCode::L, head));
    main.real(Inst::Halt);
    let mir = mir_program(vec![main], vec![]);
    let obj = produce_stripped_mir(
        &mir,
        &PolicySet::full().with_elision(),
        &HashSet::from([0]),
        &HashSet::new(),
    )
    .expect("assembles");
    Attack {
        name: "elision-off-by-one-bound",
        description: "counted-loop store whose bound overshoots the P1 window by one slot",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// Elision exploit: a counter the analysis widens to `+∞` and can never
/// narrow back — the loop exit tests memory (`cmpmem`), which leaves no
/// register snapshot for branch refinement to re-bound. The post-loop
/// store indexes by the widened counter without a guard; a verifier that
/// "narrowed" by trusting the exit condition's syntax would accept, the
/// sound one must keep `+∞` and reject.
#[must_use]
pub fn elision_unnarrowed_counter() -> Attack {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut main = MFunction::new("__start");
    let head = main.new_label();
    main.real(Inst::MovRI { dst: Reg::RBX, imm: layout.store_window().start });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0 });
    main.real(Inst::MovRI { dst: Reg::RCX, imm: 0x5EC2E7 });
    main.push(MInst::Label(head));
    main.real(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 8 });
    // Exit condition through memory: flags carry no refinable snapshot.
    main.real(Inst::CmpMem { reg: Reg::RAX, mem: MemOperand::base_disp(Reg::RBX, 0) });
    main.push(MInst::Jcc(CondCode::Ne, head));
    // window[rax] with rax ∈ [8, +∞) — guard stripped (site 0).
    main.real(Inst::Store { mem: MemOperand::base_index(Reg::RBX, Reg::RAX, 1, 0), src: Reg::RCX });
    main.real(Inst::Halt);
    let mir = mir_program(vec![main], vec![]);
    let obj = produce_stripped_mir(
        &mir,
        &PolicySet::full().with_elision(),
        &HashSet::from([0]),
        &HashSet::new(),
    )
    .expect("assembles");
    Attack {
        name: "elision-unnarrowed-counter",
        description: "store indexed by a widened counter no branch refinement can re-bound",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// Elision exploit: the base pointer of the target store is spilled to a
/// frame slot, and between the spill and the reload sits a *guarded* store
/// through an unknown pointer — legal anywhere in the P1 window, the
/// caller's stack included, so it may overwrite the spilled base. A
/// verifier that kept the slot fact across the aliasing store would prove
/// the reloaded base safe; the aliasing rule must havoc the slot and
/// reject the stripped guard.
#[must_use]
pub fn elision_aliased_slot_store() -> Attack {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut main = MFunction::new("__start");
    main.real(Inst::Push { reg: Reg::RBP });
    main.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    // Spill an in-window pointer to the frame.
    main.real(Inst::MovRI { dst: Reg::RBX, imm: layout.store_window().start });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBP, -8), src: Reg::RBX });
    // A guarded store through a pointer loaded from data: the guard makes
    // any in-window address legal — including the spill slot above.
    main.push(MInst::LoadSymAddr { dst: Reg::RCX, symbol: "__cell".into(), addend: 0 });
    main.real(Inst::Load { dst: Reg::RCX, mem: MemOperand::base_disp(Reg::RCX, 0) });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x5EC2E7 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RCX, 0), src: Reg::RAX }); // site 0, kept
                                                                                       // Reload the (possibly clobbered) base and store through it — site 1,
                                                                                       // stripped.
    main.real(Inst::Load { dst: Reg::RDX, mem: MemOperand::base_disp(Reg::RBP, -8) });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RDX, 0), src: Reg::RAX });
    main.real(Inst::Halt);
    let mut mir = mir_program(vec![main], vec![]);
    mir.data.push(deflection_lang::mir::DataDef { name: "__cell".into(), size: 8, init: None });
    let obj = produce_stripped_mir(
        &mir,
        &PolicySet::full().with_elision(),
        &HashSet::from([1]),
        &HashSet::new(),
    )
    .expect("assembles");
    Attack {
        name: "elision-aliased-slot-store",
        description: "spilled base pointer clobbered by an aliasing guarded store, then reloaded",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// Elision exploit: a loop counter and its bound both live in frame slots,
/// and the loop body makes a call. The callee may legally rewrite the
/// caller's frame (its guarded stores reach the whole P1 window), so the
/// counter reloaded after the call is unbounded and the relational fact
/// `i < bound` learned at the loop header no longer covers it. A verifier
/// that kept slot facts or difference bounds across the call-havoc edge
/// would accept the stripped in-loop store; the sound one must reject.
#[must_use]
pub fn elision_call_clobbered_bound() -> Attack {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut clobber = MFunction::new("clobber");
    clobber.real(Inst::Push { reg: Reg::RBP });
    clobber.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    clobber.real(Inst::MovRR { dst: Reg::RSP, src: Reg::RBP });
    clobber.real(Inst::Pop { reg: Reg::RBP });
    clobber.push(MInst::Ret);
    let mut main = MFunction::new("__start");
    let head = main.new_label();
    let exit = main.new_label();
    main.real(Inst::Push { reg: Reg::RBP });
    main.real(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBP, -8), src: Reg::RAX });
    main.real(Inst::MovRI { dst: Reg::RBX, imm: 64 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBP, -16), src: Reg::RBX });
    main.push(MInst::Label(head));
    main.real(Inst::Load { dst: Reg::RAX, mem: MemOperand::base_disp(Reg::RBP, -8) });
    main.real(Inst::Load { dst: Reg::RBX, mem: MemOperand::base_disp(Reg::RBP, -16) });
    main.real(Inst::CmpRR { lhs: Reg::RAX, rhs: Reg::RBX });
    main.push(MInst::Jcc(CondCode::Ge, exit));
    // The call may clobber both slots through guarded stores.
    main.push(MInst::CallSym("clobber".into()));
    main.real(Inst::MovRI { dst: Reg::RBX, imm: layout.store_window().start });
    main.real(Inst::Load { dst: Reg::RAX, mem: MemOperand::base_disp(Reg::RBP, -8) });
    // table[i] with post-call i — guard stripped (site 0).
    main.real(Inst::Store { mem: MemOperand::base_index(Reg::RBX, Reg::RAX, 8, 0), src: Reg::RAX });
    main.real(Inst::Load { dst: Reg::RAX, mem: MemOperand::base_disp(Reg::RBP, -8) });
    main.real(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 1 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBP, -8), src: Reg::RAX });
    main.push(MInst::Jmp(head));
    main.push(MInst::Label(exit));
    main.real(Inst::Halt);
    let mir = mir_program(vec![main, clobber], vec![]);
    let obj = produce_stripped_mir(
        &mir,
        &PolicySet::full().with_elision(),
        &HashSet::from([0]),
        &HashSet::new(),
    )
    .expect("assembles");
    Attack {
        name: "elision-call-clobbered-bound",
        description: "in-loop store indexed by a counter whose slot a call may rewrite",
        binary: obj,
        expected: Expected::VerifierReject,
    }
}

/// Attacks specific to guard elision: binaries that ship *without* certain
/// guards, hoping the eliding verifier's analysis accepts them. Drive these
/// under a `PolicySet::full().with_elision()` manifest.
#[must_use]
pub fn elision_corpus() -> Vec<Attack> {
    vec![
        elision_widened_store(),
        elision_indirect_edge_store(),
        elision_rsp_pivot(),
        elision_off_by_one_bound(),
        elision_unnarrowed_counter(),
        elision_aliased_slot_store(),
        elision_call_clobbered_bound(),
    ]
}

/// The complete corpus.
#[must_use]
pub fn corpus() -> Vec<Attack> {
    vec![
        raw_out_of_enclave_store(),
        wrong_operand_guard(),
        jump_over_guard(),
        return_address_smash(),
        indirect_call_bad_index(),
        rsp_pivot(),
        self_modifying_code(),
        critical_data_overwrite(),
        raw_indirect_jump(),
        bare_ret(),
        rbp_hijack(),
        oversized_frame_store(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consumer::{install, InstallError};
    use crate::policy::Manifest;
    use crate::runtime::BootstrapEnclave;
    use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
    use deflection_sgx_sim::mem::Memory;
    use deflection_sgx_sim::vm::RunExit;

    #[test]
    fn every_attack_is_contained() {
        let manifest = Manifest::ccaas(); // full policy
        for attack in corpus() {
            let binary = attack.binary.serialize();
            match attack.expected {
                Expected::VerifierReject => {
                    let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
                    let res = install(&binary, &manifest, &mut mem);
                    assert!(
                        matches!(res, Err(InstallError::Verify(_))),
                        "{}: expected verifier rejection, got {res:?}",
                        attack.name
                    );
                }
                Expected::RuntimeAbort(code) => {
                    let mut enclave = BootstrapEnclave::new(
                        EnclaveLayout::new(MemConfig::small()),
                        manifest.clone(),
                    );
                    enclave
                        .install_plain(&binary)
                        .unwrap_or_else(|e| panic!("{}: must install: {e}", attack.name));
                    let report = enclave.run(1_000_000).unwrap();
                    assert_eq!(
                        report.exit,
                        RunExit::PolicyAbort { code },
                        "{}: wrong containment",
                        attack.name
                    );
                    assert_eq!(
                        report.untrusted_writes, 0,
                        "{}: attack leaked bytes before containment",
                        attack.name
                    );
                }
            }
        }
    }

    #[test]
    fn every_elision_attack_is_rejected() {
        // Even with guard elision enabled, the verifier's own analysis must
        // refuse to bless any of these stripped binaries.
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::full().with_elision();
        for attack in elision_corpus() {
            assert_eq!(attack.expected, Expected::VerifierReject, "{}", attack.name);
            let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
            let res = install(&attack.binary.serialize(), &manifest, &mut mem);
            // Not just any rejection: the analysis itself must refuse the
            // stripped site, proving the elision path is what's tested.
            assert!(
                matches!(
                    res,
                    Err(InstallError::Verify(
                        crate::consumer::VerifyError::UnguardedStore { .. }
                            | crate::consumer::VerifyError::UnguardedRspWrite { .. }
                    ))
                ),
                "{}: expected an unguarded-site rejection, got {res:?}",
                attack.name
            );
        }
    }

    #[test]
    fn elision_attacks_also_rejected_without_elision() {
        // Sanity: under the strict policy the same binaries are rejected by
        // the plain structural rules.
        let manifest = Manifest::ccaas();
        for attack in elision_corpus() {
            let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
            let res = install(&attack.binary.serialize(), &manifest, &mut mem);
            assert!(
                matches!(res, Err(InstallError::Verify(_))),
                "{}: expected verifier rejection, got {res:?}",
                attack.name
            );
        }
    }

    #[test]
    fn corpus_is_nontrivial() {
        let c = corpus();
        assert!(c.len() >= 10);
        let rejects = c.iter().filter(|a| a.expected == Expected::VerifierReject).count();
        let aborts = c.len() - rejects;
        assert!(rejects >= 4, "need static rejections");
        assert!(aborts >= 4, "need runtime containments");
    }
}
