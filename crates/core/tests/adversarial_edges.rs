//! Adversarial edge cases surfaced by design review — each probes one
//! specific boundary of the verifier's rule set.

use deflection_core::annotations::{TemplateKind, PH_STACK_HI, PH_STACK_LO};
use deflection_core::consumer::verifier::{verify, VerifyError};
use deflection_core::policy::{abort_codes, PolicySet};
use deflection_core::producer::{emit_template, produce_from_mir};
use deflection_isa::{CondCode, Inst, MemOperand, Reg};
use deflection_lang::mir::{MFunction, MInst, MirProgram};

fn program_of(functions: Vec<MFunction>, ibt: Vec<String>) -> MirProgram {
    MirProgram { entry: functions[0].name.clone(), functions, data: vec![], indirect_targets: ibt }
}

fn verify_full(obj: &deflection_obj::ObjectFile, policy: &PolicySet) -> Result<(), VerifyError> {
    let entry = obj.symbol(&obj.entry_symbol).unwrap().offset as usize;
    let ibt: Vec<usize> =
        obj.indirect_branch_table.iter().map(|n| obj.symbol(n).unwrap().offset as usize).collect();
    verify(&obj.text, entry, &ibt, policy).map(|_| ())
}

#[test]
fn ibt_entry_pointing_into_annotation_rejected() {
    // A malicious proof list naming a symbol placed inside a store guard
    // would let indirect jumps skip the bounds check.
    let mut f = MFunction::new("__start");
    let store = Inst::Store { mem: MemOperand::base_disp(Reg::RCX, 0), src: Reg::RAX };
    emit_template(&mut f, TemplateKind::StoreGuard, Some(store));
    f.real(Inst::Halt);
    let mir = program_of(vec![f], vec![]);
    let mut obj = produce_from_mir(&mir, &PolicySet::none()).unwrap();
    // Forge a symbol into the middle of the guard (after the first push,
    // offset 2 within __start) and list it as an indirect target.
    obj.symbols.push(deflection_obj::Symbol {
        name: "evil".into(),
        section: deflection_obj::SectionId::Text,
        offset: 2,
        kind: deflection_obj::SymbolKind::Func,
    });
    obj.indirect_branch_table.push("evil".into());
    let err = verify_full(&obj, &PolicySet::p1()).unwrap_err();
    assert!(matches!(err, VerifyError::IndirectTargetIntoAnnotation { .. }), "{err:?}");
}

#[test]
fn abort_and_probe_in_program_code_are_harmless_and_allowed() {
    // Raw `abort` / `aexprobe` in program position cannot leak anything;
    // the verifier must not reject them (self-sabotage is permitted).
    let mut f = MFunction::new("__start");
    f.real(Inst::AexProbe);
    f.real(Inst::CmpRI { lhs: Reg::RAX, imm: 1 });
    f.real(Inst::Abort { code: 99 });
    let obj = produce_from_mir(&program_of(vec![f], vec![]), &PolicySet::none()).unwrap();
    verify_full(&obj, &PolicySet::p1()).expect("self-aborting code is safe");
}

#[test]
fn lea_of_rsp_requires_p2_guard() {
    // `lea rsp, [...]` is an explicit rsp write and must carry the guard.
    let mut f = MFunction::new("__start");
    f.real(Inst::Lea { dst: Reg::RSP, mem: MemOperand::base_disp(Reg::RAX, 64) });
    f.real(Inst::Halt);
    let obj = produce_from_mir(&program_of(vec![f], vec![]), &PolicySet::none()).unwrap();
    let err = verify_full(&obj, &PolicySet::p1_p2()).unwrap_err();
    assert!(matches!(err, VerifyError::UnguardedRspWrite { .. }), "{err:?}");
    // The honest producer guards it automatically.
    let mut g = MFunction::new("__start");
    g.real(Inst::Lea { dst: Reg::RSP, mem: MemOperand::base_disp(Reg::RAX, 64) });
    g.real(Inst::Halt);
    let obj = produce_from_mir(&program_of(vec![g], vec![]), &PolicySet::p1_p2()).unwrap();
    verify_full(&obj, &PolicySet::p1_p2()).expect("guarded rsp lea verifies");
}

#[test]
fn pop_rsp_requires_p2_guard() {
    let mut f = MFunction::new("__start");
    f.real(Inst::Push { reg: Reg::RAX });
    f.real(Inst::Pop { reg: Reg::RSP });
    f.real(Inst::Halt);
    let obj = produce_from_mir(&program_of(vec![f], vec![]), &PolicySet::none()).unwrap();
    assert!(matches!(
        verify_full(&obj, &PolicySet::p1_p2()),
        Err(VerifyError::UnguardedRspWrite { .. })
    ));
}

#[test]
fn rsp_guard_jump_must_land_right_past_its_abort() {
    // A P2 guard whose second `jbe` hops over its abort *and* some bytes
    // no path reaches, to later code: the next listed instruction, but not
    // the byte right past the abort, so it is no guard.
    let mut f = MFunction::new("__start");
    let (ok, later) = (f.new_label(), f.new_label());
    f.real(Inst::Lea { dst: Reg::RSP, mem: MemOperand::base_disp(Reg::RAX, 64) });
    f.real(Inst::MovRI { dst: Reg::R11, imm: PH_STACK_LO });
    f.real(Inst::CmpRR { lhs: Reg::RSP, rhs: Reg::R11 });
    f.push(MInst::Jcc(CondCode::Ae, ok));
    f.real(Inst::Abort { code: abort_codes::RSP_BOUNDS });
    f.push(MInst::Label(ok));
    f.real(Inst::MovRI { dst: Reg::R11, imm: PH_STACK_HI });
    f.real(Inst::CmpRR { lhs: Reg::RSP, rhs: Reg::R11 });
    f.push(MInst::Jcc(CondCode::Be, later));
    f.real(Inst::Abort { code: abort_codes::RSP_BOUNDS });
    f.real(Inst::Halt); // unreachable, so never disassembled
    f.push(MInst::Label(later));
    f.real(Inst::Halt);
    let obj = produce_from_mir(&program_of(vec![f], vec![]), &PolicySet::none()).unwrap();
    let err = verify_full(&obj, &PolicySet::p1_p2()).unwrap_err();
    assert!(matches!(err, VerifyError::UnguardedRspWrite { offset: 0 }), "{err:?}");
}

#[test]
fn store_through_rsp_is_never_exemptable() {
    // `mov [rsp - 8], rax` cannot be guarded (the guard's pushes shift rsp)
    // nor exempted (exemption is rbp-only) — the verifier must reject it
    // under P1 however it is wrapped.
    let mut f = MFunction::new("__start");
    f.real(Inst::Store { mem: MemOperand::base_disp(Reg::RSP, -8), src: Reg::RAX });
    f.real(Inst::Halt);
    let obj = produce_from_mir(&program_of(vec![f], vec![]), &PolicySet::none()).unwrap();
    assert!(matches!(verify_full(&obj, &PolicySet::p1()), Err(VerifyError::UnguardedStore { .. })));
}

#[test]
fn entry_listed_in_ibt_does_not_bypass_prologue_rule_for_others() {
    // Listing the entry itself in the proof list is legal (it has no
    // prologue), but other listed functions still need theirs.
    let mut f = MFunction::new("__start");
    f.real(Inst::Halt);
    let mut victim = MFunction::new("victim");
    victim.push(MInst::Ret);
    let mir = program_of(vec![f, victim], vec!["victim".into()]);
    let obj = produce_from_mir(&mir, &PolicySet::none()).unwrap();
    assert!(matches!(
        verify_full(&obj, &PolicySet::p1_p5()),
        Err(VerifyError::MissingPrologue { .. } | VerifyError::MissingEpilogue { .. })
    ));
}
