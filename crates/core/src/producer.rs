//! The untrusted code producer: instrumentation passes over machine IR and
//! the end-to-end `source → instrumented relocatable object` pipeline.
//!
//! This is the out-of-enclave half of DEFLECTION's unbalanced design
//! (Section IV-C): all analysis and rewriting happens here, so the
//! in-enclave consumer only needs to *recognize* the result. One pass per
//! policy, driven by [`PolicySet`] switches exactly like the paper's
//! IR-level switches (Fig. 4). Each pass implants one of the
//! [`annotations::TEMPLATES`] with [`emit_template`]:
//!
//! * **P1/P3/P4** — the store guard, around every store
//!   (`MachineInstr::mayStore()` analogue: [`Inst::stored_mem`]);
//! * **P2** — the stack-pointer guard after every explicit write to `rsp`;
//! * **P5** — branch-table lowering of indirect branches (with the bounds
//!   check when enabled), plus shadow-stack prologue/epilogue;
//! * **P6** — the AEX marker check at every basic-block entry and at least
//!   every `q` program instructions.

use crate::annotations::{self, elision_analysis_config, table_entry, Step, TemplateKind};
use crate::consumer::{resolve, verify, verify_with_layout};
use crate::policy::PolicySet;
use deflection_analysis::Analysis;
use deflection_isa::{Inst, Reg};
use deflection_lang::mir::{MFunction, MInst, MirProgram};
use deflection_lang::CompileError;
use deflection_obj::{link, LinkError, ObjectFile};
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_telemetry::flightrec::{self, EventKind as FlightEventKind};
use deflection_telemetry::{Span, METRICS};
use std::collections::HashSet;
use std::error::Error as StdError;
use std::fmt;

/// Failures of the production pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProduceError {
    /// Frontend or assembler failure.
    Compile(CompileError),
    /// Static linking failure.
    Link(LinkError),
}

impl fmt::Display for ProduceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProduceError::Compile(e) => write!(f, "compile error: {e}"),
            ProduceError::Link(e) => write!(f, "link error: {e}"),
        }
    }
}

impl StdError for ProduceError {}

impl From<CompileError> for ProduceError {
    fn from(e: CompileError) -> Self {
        ProduceError::Compile(e)
    }
}

impl From<LinkError> for ProduceError {
    fn from(e: LinkError) -> Self {
        ProduceError::Link(e)
    }
}

/// Whether a q-triggered AEX check may be inserted *before* this item.
///
/// Unsafe points: before flag consumers (`jcc`, `setcc` — the check clobbers
/// flags), before indirect-branch items (`r10`/`r11` hold the lowered
/// target), and before `ret` epilogues is fine but pointless, so allowed.
fn safe_insertion_point(item: &MInst) -> bool {
    !matches!(
        item,
        MInst::Jcc(..) | MInst::CallReg(_) | MInst::JmpReg(_) | MInst::Real(Inst::SetCc { .. })
    )
}

fn is_program_instruction(item: &MInst) -> bool {
    !matches!(item, MInst::Label(_))
}

/// Guard-elision decisions, keyed by guard *site ordinal*: the n-th P1
/// (resp. P2) instrumentation site in emission order, which — because
/// functions are assembled and linked in program order — is also the n-th
/// `StoreGuard` (resp. `RspGuard`) instance the verifier discovers in a
/// fully instrumented build. Built by [`produce_from_mir_for_layout`] from
/// its own pass-1 analysis; never trusted by the consumer, which re-derives
/// every proof.
#[derive(Debug, Clone, Default)]
pub struct ElisionPlan {
    /// P1 site ordinals whose store was proven inside the store window.
    pub store_skip: HashSet<usize>,
    /// P2 site ordinals whose resulting `rsp` was proven inside the stack.
    pub rsp_skip: HashSet<usize>,
    /// Allow skipping the guard of an `rsp` write when the next machine
    /// instruction is itself a non-store `rsp` write (the verifier's
    /// back-to-back chain rule).
    pub chain_rsp: bool,
}

/// Running per-kind site counters threaded through a whole-program
/// instrumentation pass so ordinals are global, like instance discovery.
#[derive(Default)]
struct GuardOrdinals {
    store: usize,
    rsp: usize,
}

/// Emits `kind`'s template into `f`, step by step as
/// [`annotations::TEMPLATES`] lists it. `subject` is the guarded
/// instruction: the store a store guard checks (its operand fills the
/// `lea`), or the `call`/`jmp` a branch-table lowering ends in (its register
/// fills the table fetch); the other templates take none. Each jump lands
/// on a label placed before its target step, and the epilogue's `ret` is
/// pushed as [`MInst::Ret`].
///
/// # Panics
///
/// Panics if a store guard's operand uses `rsp` (the guard's `lea` would
/// observe a shifted stack pointer), if a lowering's register is the `r11`
/// scratch, or if `subject` does not fit the template. The DCL code
/// generator produces none of these.
pub fn emit_template(f: &mut MFunction, kind: TemplateKind, subject: Option<Inst>) {
    let steps = kind.template().steps;
    let mut labels = vec![None; steps.len() + 1];
    for step in steps {
        if let Step::Jcc(_, n) = step {
            labels[*n] = Some(f.new_label());
        }
    }
    let mem = subject.as_ref().and_then(Inst::stored_mem).copied();
    let reg = match subject {
        Some(Inst::CallInd { reg } | Inst::JmpInd { reg }) => Some(reg),
        _ => None,
    };
    for (k, label) in labels.iter().enumerate() {
        if let Some(label) = label {
            f.push(MInst::Label(*label));
        }
        let Some(step) = steps.get(k) else { break };
        f.push(match *step {
            Step::Is(Inst::Ret) => MInst::Ret,
            Step::Is(inst) => MInst::Real(inst),
            Step::Jcc(cc, n) => MInst::Jcc(cc, labels[n].expect("every jump target is labelled")),
            Step::LeaRax => {
                let mem = mem.expect("a store guard needs its store");
                assert!(!mem.uses(Reg::RSP), "store guard cannot check rsp-relative stores");
                MInst::Real(Inst::Lea { dst: Reg::RAX, mem })
            }
            Step::CmpR11 => MInst::Real(Inst::CmpRR {
                lhs: reg.expect("a lowering needs its branch"),
                rhs: Reg::R11,
            }),
            Step::LoadTable => {
                let reg = reg.expect("a lowering needs its branch");
                assert!(
                    reg != Reg::R11,
                    "indirect-branch register must not be the annotation scratch"
                );
                MInst::Real(Inst::Load { dst: reg, mem: table_entry(reg) })
            }
            Step::StoreToM | Step::BranchR => {
                MInst::Real(subject.expect("the template guards a subject"))
            }
        });
    }
}

fn instrument_function(
    orig: &MFunction,
    policy: &PolicySet,
    is_entry: bool,
    plan: Option<&ElisionPlan>,
    ord: &mut GuardOrdinals,
) -> MFunction {
    let mut f = MFunction::new(orig.name.clone());
    f.reserve_labels(orig.label_watermark());

    if policy.cfi && !is_entry {
        emit_template(&mut f, TemplateKind::Prologue, None);
    }
    if policy.aex {
        emit_template(&mut f, TemplateKind::AexCheck, None);
    }

    let lowering = if policy.cfi { TemplateKind::CfiChecked } else { TemplateKind::CfiUnchecked };
    let mut since_check: u32 = 0;
    for (item_idx, item) in orig.insts.iter().enumerate() {
        if policy.aex
            && since_check >= policy.q
            && is_program_instruction(item)
            && safe_insertion_point(item)
        {
            emit_template(&mut f, TemplateKind::AexCheck, None);
            since_check = 0;
        }
        match item {
            MInst::Label(l) => {
                f.push(MInst::Label(*l));
                if policy.aex {
                    emit_template(&mut f, TemplateKind::AexCheck, None);
                    since_check = 0;
                }
            }
            MInst::Real(inst) => {
                if let Some(mem) = inst.stored_mem() {
                    let mut guard = false;
                    if policy.store_bounds && !annotations::is_exempt_frame_store(mem) {
                        guard = !plan.is_some_and(|p| p.store_skip.contains(&ord.store));
                        ord.store += 1;
                    }
                    if guard {
                        emit_template(&mut f, TemplateKind::StoreGuard, Some(*inst));
                    } else {
                        f.real(*inst);
                    }
                } else if inst.writes_rsp_explicitly() {
                    f.real(*inst);
                    if policy.rsp_integrity {
                        // The chain skip needs the two rsp writes to stay
                        // byte-adjacent, so it is off whenever a q-triggered
                        // AEX check could land between them.
                        let skip = plan.is_some_and(|p| {
                            p.rsp_skip.contains(&ord.rsp)
                                || (p.chain_rsp
                                    && !(policy.aex && since_check + 1 >= policy.q)
                                    && matches!(
                                        orig.insts.get(item_idx + 1),
                                        Some(MInst::Real(n))
                                            if n.writes_rsp_explicitly()
                                                && n.stored_mem().is_none()
                                    ))
                        });
                        ord.rsp += 1;
                        if !skip {
                            emit_template(&mut f, TemplateKind::RspGuard, None);
                        }
                    }
                } else {
                    f.real(*inst);
                }
                since_check += 1;
            }
            MInst::CallReg(reg) => {
                emit_template(&mut f, lowering, Some(Inst::CallInd { reg: *reg }));
                since_check += 1;
            }
            MInst::JmpReg(reg) => {
                emit_template(&mut f, lowering, Some(Inst::JmpInd { reg: *reg }));
                since_check += 1;
            }
            MInst::Ret => {
                if policy.cfi {
                    emit_template(&mut f, TemplateKind::Epilogue, None);
                } else {
                    f.push(MInst::Ret);
                }
                since_check += 1;
            }
            other @ (MInst::Jmp(_)
            | MInst::Jcc(..)
            | MInst::CallSym(_)
            | MInst::LoadSymAddr { .. }) => {
                f.push(other.clone());
                since_check += 1;
            }
        }
    }
    f
}

/// Applies the policy-selected instrumentation passes to a program.
#[must_use]
pub fn instrument(mir: &MirProgram, policy: &PolicySet) -> MirProgram {
    instrument_inner(mir, policy, None)
}

/// Like [`instrument`], but skipping the guard sites named by `plan`.
#[must_use]
pub fn instrument_with_plan(
    mir: &MirProgram,
    policy: &PolicySet,
    plan: &ElisionPlan,
) -> MirProgram {
    instrument_inner(mir, policy, Some(plan))
}

fn instrument_inner(
    mir: &MirProgram,
    policy: &PolicySet,
    plan: Option<&ElisionPlan>,
) -> MirProgram {
    let mut ord = GuardOrdinals::default();
    let functions = mir
        .functions
        .iter()
        .map(|f| instrument_function(f, policy, f.name == mir.entry, plan, &mut ord))
        .collect();
    MirProgram {
        functions,
        data: mir.data.clone(),
        entry: mir.entry.clone(),
        indirect_targets: mir.indirect_targets.clone(),
    }
}

/// Runs the full machine-IR optimizer pipeline on `mir` and feeds the
/// per-pass rewrite counts to the producer telemetry counters (flushed
/// with the rest of the producer metrics outside measured runs).
pub fn optimize_mir(mir: &mut MirProgram) -> deflection_lang::opt::PipelineStats {
    let stats = deflection_lang::opt::optimize_pipeline(mir);
    METRICS.producer_opt_peephole.add(stats.peephole as u64);
    METRICS.producer_opt_const_fold.add(stats.const_folds as u64);
    METRICS.producer_opt_loop_bound.add(stats.loop_bounds as u64);
    METRICS.producer_opt_addr_canon.add(stats.addr_canons as u64);
    METRICS.producer_opt_dce.add(stats.dce as u64);
    stats
}

/// The full producer pipeline: compile DCL source, optimize the machine
/// IR, instrument with `policy`, assemble, and statically link into one
/// relocatable target binary carrying the indirect-branch list as its
/// proof.
///
/// # Errors
///
/// Propagates compile, assembly and link errors.
pub fn produce(source: &str, policy: &PolicySet) -> Result<ObjectFile, ProduceError> {
    let mut mir = deflection_lang::compile(source)?;
    optimize_mir(&mut mir);
    produce_from_mir(&mir, policy)
}

/// [`produce`] with the optimizer pipeline disabled: instruments the raw
/// code-generator output. Exists for the optimizer differential tests,
/// which compare the observable behavior of optimized and unoptimized
/// builds of the same source under every policy mix.
///
/// # Errors
///
/// Propagates compile, assembly and link errors.
pub fn produce_unoptimized(source: &str, policy: &PolicySet) -> Result<ObjectFile, ProduceError> {
    let mir = deflection_lang::compile(source)?;
    produce_from_mir(&mir, policy)
}

/// Producer pipeline starting from already-compiled machine IR (used by the
/// benches to amortize frontend time and by the attack corpus to build
/// hand-crafted binaries).
///
/// # Errors
///
/// Propagates assembly and link errors.
pub fn produce_from_mir(mir: &MirProgram, policy: &PolicySet) -> Result<ObjectFile, ProduceError> {
    let instrumented = instrument(mir, policy);
    let obj = deflection_lang::assemble(&instrumented)?;
    let linked = link(&[obj])?;
    flightrec::record_ambient(FlightEventKind::Produce, linked.text.len() as u64, 0);
    Ok(linked)
}

/// Relocates `obj` against `layout` and returns `(text, entry, ibt)` as the
/// verifier wants them — the producer running the *same* pure resolution
/// step the in-enclave loader will run.
fn resolve_for_verify(
    obj: &ObjectFile,
    layout: &EnclaveLayout,
) -> Option<(Vec<u8>, usize, Vec<usize>)> {
    let resolved = resolve(obj, layout).ok()?;
    let entry = usize::try_from(resolved.entry_va.checked_sub(layout.code.start)?).ok()?;
    Some((resolved.text, entry, resolved.ibt_offsets))
}

/// How many P1 / P2 guard sites [`instrument_function`] will visit in `f`.
fn mir_guard_sites(f: &MFunction, policy: &PolicySet) -> (usize, usize) {
    let mut stores = 0usize;
    let mut rsps = 0usize;
    for item in &f.insts {
        if let MInst::Real(inst) = item {
            if let Some(mem) = inst.stored_mem() {
                if policy.store_bounds && !annotations::is_exempt_frame_store(mem) {
                    stores += 1;
                }
            } else if inst.writes_rsp_explicitly() && policy.rsp_integrity {
                rsps += 1;
            }
        }
    }
    (stores, rsps)
}

/// Builds the elision plan for a fully instrumented binary: verify it
/// strictly to enumerate guard instances, run the abstract interpretation
/// over the relocated text, and mark every instance whose subject the
/// analysis independently proves safe.
///
/// Ordinals are global emission-order site indices. The verifier only
/// discovers instances in *reachable* code (the disassembler is
/// recursive-descent), so a dead function's emitted guards never become
/// instances; mapping instances straight to global indices would therefore
/// drift. Instead each instance is attributed to its owning function via
/// the symbol table, and its global ordinal is the prefix sum of MIR guard
/// sites in all preceding functions plus its within-function index.
///
/// Public so benches and diagnostics can report which fraction of guards
/// is provably redundant; ordinary producers should call
/// [`produce_for_layout`].
pub fn elision_plan(
    mir: &MirProgram,
    full: &ObjectFile,
    policy: &PolicySet,
    layout: &EnclaveLayout,
) -> Option<ElisionPlan> {
    let (text, entry, ibt) = resolve_for_verify(full, layout)?;
    let strict = PolicySet { elide_guards: false, ..*policy };
    let verified = verify(&text, entry, &ibt, &strict).ok()?;
    let analysis = {
        let _span = Span::start(&METRICS.analysis_run_ns);
        Analysis::run(&verified.disassembly, elision_analysis_config(layout))
    };

    // Function layout: (start offset, index in mir.functions). Any symbol —
    // including injected runtime helpers — terminates the previous range.
    let mut bounds: Vec<u64> = full.symbols.iter().map(|s| s.offset).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let func_start = |name: &str| full.symbols.iter().find(|s| s.name == name).map(|s| s.offset);
    let mut ranges: Vec<(u64, u64, usize)> = Vec::new(); // (start, end, mir idx)
    for (fi, f) in mir.functions.iter().enumerate() {
        let start = func_start(&f.name)?;
        let end = bounds.iter().copied().find(|&b| b > start).unwrap_or(full.text.len() as u64);
        ranges.push((start, end, fi));
    }
    let owner = |offset: usize| -> Option<usize> {
        let off = offset as u64;
        ranges.iter().find(|&&(s, e, _)| s <= off && off < e).map(|&(_, _, fi)| fi)
    };

    // Global emission ordinal of each function's first site, per kind.
    let mut store_base = vec![0usize; mir.functions.len()];
    let mut rsp_base = vec![0usize; mir.functions.len()];
    let (mut s_acc, mut r_acc) = (0usize, 0usize);
    for (fi, f) in mir.functions.iter().enumerate() {
        store_base[fi] = s_acc;
        rsp_base[fi] = r_acc;
        let (s, r) = mir_guard_sites(f, policy);
        s_acc += s;
        r_acc += r;
    }

    let mut plan = ElisionPlan { chain_rsp: true, ..ElisionPlan::default() };
    let mut store_seen = vec![0usize; mir.functions.len()];
    let mut rsp_seen = vec![0usize; mir.functions.len()];
    for inst in &verified.instances {
        match inst.kind {
            TemplateKind::StoreGuard => {
                let Some(sidx) = inst.subject_idx else { continue };
                let offset = verified.disassembly.insts()[sidx].0;
                // Guards in injected runtime helpers are not emission sites
                // (instrument never saw them); leave them alone.
                let Some(fi) = owner(offset) else { continue };
                let ordinal = store_base[fi] + store_seen[fi];
                store_seen[fi] += 1;
                if analysis.store_safe(offset) {
                    plan.store_skip.insert(ordinal);
                }
            }
            TemplateKind::RspGuard => {
                // The guarded write is the instruction just before the
                // guard template.
                let offset = verified.disassembly.insts()[inst.start_idx - 1].0;
                let Some(fi) = owner(offset) else { continue };
                let ordinal = rsp_base[fi] + rsp_seen[fi];
                rsp_seen[fi] += 1;
                let proven = analysis
                    .rsp_after(offset)
                    .and_then(|v| analysis.concrete_range(v))
                    .is_some_and(|(lo, hi)| lo >= layout.stack.start && hi <= layout.stack.end);
                if proven {
                    plan.rsp_skip.insert(ordinal);
                }
            }
            _ => {}
        }
    }
    Some(plan)
}

/// Like [`produce`], but targeting a concrete [`EnclaveLayout`] so that,
/// when `policy.elide_guards` is on, provably-safe P1/P2 guards can be
/// dropped (paper Section IV-C's "necessary checks only" direction).
///
/// Two-pass scheme: pass 1 instruments fully and analyses the relocated
/// result; pass 2 re-instruments, skipping every guard whose subject the
/// analysis proved safe. The elided binary is then *self-verified* with the
/// same in-enclave rules ([`verify_with_layout`]); on any disagreement the
/// fully instrumented binary is returned instead, so the producer can never
/// ship something its consumer would reject. Elision additionally requires
/// `policy.cfi` (see [`verify_with_layout`] for the soundness argument).
///
/// # Errors
///
/// Propagates compile, assembly and link errors.
pub fn produce_for_layout(
    source: &str,
    policy: &PolicySet,
    layout: &EnclaveLayout,
) -> Result<ObjectFile, ProduceError> {
    let mut mir = deflection_lang::compile(source)?;
    optimize_mir(&mut mir);
    produce_from_mir_for_layout(&mir, policy, layout)
}

/// [`produce_for_layout`] starting from already-compiled machine IR.
///
/// # Errors
///
/// Propagates assembly and link errors.
pub fn produce_from_mir_for_layout(
    mir: &MirProgram,
    policy: &PolicySet,
    layout: &EnclaveLayout,
) -> Result<ObjectFile, ProduceError> {
    let _span = Span::start(&METRICS.produce_ns);
    let full = produce_from_mir(mir, policy)?;
    if !policy.elide_guards || !policy.cfi || !(policy.store_bounds || policy.rsp_integrity) {
        return Ok(full);
    }
    let Some(plan) = elision_plan(mir, &full, policy, layout) else {
        return Ok(full);
    };
    let elided = instrument_with_plan(mir, policy, &plan);
    let Ok(obj) = deflection_lang::assemble(&elided) else {
        METRICS.produce_elision_fallbacks.add(1);
        return Ok(full);
    };
    let Ok(obj) = link(&[obj]) else {
        METRICS.produce_elision_fallbacks.add(1);
        return Ok(full);
    };
    // Self-verify: replay the consumer's exact acceptance check. Any
    // divergence between the pass-1 analysis and the verifier's own run
    // (e.g. different widening behaviour on the re-laid-out code) falls
    // back to full instrumentation rather than shipping a reject.
    let accepted = {
        let _span = Span::start(&METRICS.produce_self_verify_ns);
        resolve_for_verify(&obj, layout).is_some_and(|(text, entry, ibt)| {
            verify_with_layout(&text, entry, &ibt, policy, layout).is_ok()
        })
    };
    if accepted {
        METRICS.produce_guards_elided.add((plan.store_skip.len() + plan.rsp_skip.len()) as u64);
        Ok(obj)
    } else {
        METRICS.produce_elision_fallbacks.add(1);
        Ok(full)
    }
}

/// Red-team helper: produce with the given guard site ordinals stripped,
/// with **no** analysis and **no** self-verification. The output is
/// intentionally allowed to be unsound — soundness tests feed it to the
/// verifier and assert rejection.
///
/// # Errors
///
/// Propagates compile, assembly and link errors.
pub fn produce_stripped(
    source: &str,
    policy: &PolicySet,
    store_skip: &HashSet<usize>,
    rsp_skip: &HashSet<usize>,
) -> Result<ObjectFile, ProduceError> {
    let mut mir = deflection_lang::compile(source)?;
    optimize_mir(&mut mir);
    produce_stripped_mir(&mir, policy, store_skip, rsp_skip)
}

/// [`produce_stripped`] starting from machine IR.
///
/// # Errors
///
/// Propagates assembly and link errors.
pub fn produce_stripped_mir(
    mir: &MirProgram,
    policy: &PolicySet,
    store_skip: &HashSet<usize>,
    rsp_skip: &HashSet<usize>,
) -> Result<ObjectFile, ProduceError> {
    let plan = ElisionPlan {
        store_skip: store_skip.clone(),
        rsp_skip: rsp_skip.clone(),
        chain_rsp: false,
    };
    let stripped = instrument_with_plan(mir, policy, &plan);
    let obj = deflection_lang::assemble(&stripped)?;
    Ok(link(&[obj])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflection_isa::disassemble;

    const SRC: &str = "
        var table: [int; 16];
        fn fill(n: int) -> int {
            var i: int = 0;
            while (i < n) { table[i] = i * i; i = i + 1; }
            return table[n - 1];
        }
        fn main() -> int { return fill(10); }
    ";

    #[test]
    fn baseline_produces_linkable_object() {
        let obj = produce(SRC, &PolicySet::none()).unwrap();
        assert!(obj.symbol("main").is_some());
        assert!(obj.symbol("__start").is_some());
        // Fully linked: only Abs64 relocations remain for the loader.
        assert!(obj.relocations.iter().all(|r| r.kind == deflection_obj::RelocKind::Abs64));
    }

    #[test]
    fn instrumentation_grows_code_monotonically() {
        let sizes: Vec<usize> =
            PolicySet::levels().iter().map(|(_, p)| produce(SRC, p).unwrap().text.len()).collect();
        let baseline = produce(SRC, &PolicySet::none()).unwrap().text.len();
        assert!(baseline < sizes[0], "P1 must add code");
        assert!(sizes[0] < sizes[1], "P2 must add code");
        assert!(sizes[1] < sizes[2], "P5 must add code");
        assert!(sizes[2] < sizes[3], "P6 must add code");
    }

    #[test]
    fn instrumented_binary_still_disassembles() {
        let obj = produce(SRC, &PolicySet::full()).unwrap();
        let entry = obj.symbol("__start").unwrap().offset as usize;
        let ibt: Vec<usize> = obj
            .indirect_branch_table
            .iter()
            .map(|n| obj.symbol(n).unwrap().offset as usize)
            .collect();
        let d = disassemble(&obj.text, entry, &ibt).unwrap();
        assert!(d.len() > 100);
    }

    #[test]
    fn indirect_calls_get_lowered_per_policy() {
        let src = "
            fn h(x: int) -> int { return x + 1; }
            fn main() -> int { var f: fn(int) -> int = &h; return f(41); }
        ";
        let baseline = produce(src, &PolicySet::none()).unwrap();
        let with_cfi = produce(src, &PolicySet::p1_p5()).unwrap();
        assert!(with_cfi.text.len() > baseline.text.len());
        assert_eq!(baseline.indirect_branch_table, vec!["h".to_string()]);
        // Both must contain an indirect call instruction somewhere.
        for obj in [&baseline, &with_cfi] {
            let entry = obj.symbol("__start").unwrap().offset as usize;
            let ibt: Vec<usize> = obj
                .indirect_branch_table
                .iter()
                .map(|n| obj.symbol(n).unwrap().offset as usize)
                .collect();
            let d = disassemble(&obj.text, entry, &ibt).unwrap();
            assert!(d.insts().iter().any(|(_, i, _)| matches!(i, Inst::CallInd { .. })));
        }
    }

    #[test]
    fn aex_checks_inserted_within_q() {
        // A long straight-line block: many stores in sequence.
        let src = "
            var a: [int; 64];
            fn main() -> int {
                a[0]=1; a[1]=1; a[2]=1; a[3]=1; a[4]=1; a[5]=1; a[6]=1; a[7]=1;
                a[8]=1; a[9]=1; a[10]=1; a[11]=1; a[12]=1; a[13]=1; a[14]=1; a[15]=1;
                return 0;
            }
        ";
        let mir = deflection_lang::compile(src).unwrap();
        let policy = PolicySet { q: 10, ..PolicySet::full() };
        let instrumented = instrument(&mir, &policy);
        // Count AEX check template starts in main (signature: MovRI r11, PH_SSA_MARKER).
        let main = instrumented.functions.iter().find(|f| f.name == "main").unwrap();
        let checks = main
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    MInst::Real(Inst::MovRI { dst: deflection_isa::Reg::R11, imm })
                        if *imm == annotations::PH_SSA_MARKER
                )
            })
            .count();
        // Each template mentions the marker twice (check + re-arm); at least
        // 2 templates must have been inserted for 16+ stores with q=10.
        assert!(checks >= 4, "expected several AEX checks, saw {checks} marker refs");
    }

    #[test]
    fn compile_error_propagates() {
        assert!(matches!(
            produce("fn main() -> int { return x; }", &PolicySet::none()),
            Err(ProduceError::Compile(_))
        ));
    }
}
