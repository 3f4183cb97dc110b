//! The in-enclave policy verifier.
//!
//! After the loader has relocated the target binary into the code window,
//! the verifier performs the paper's *just-enough disassembling and
//! verification* (Section IV-D): recursive-descent disassembly from the
//! entry, continued across indirect flows via the indirect-branch target
//! list, followed by a structural check that every security-relevant
//! instruction carries its annotation and that no control flow can skip an
//! annotation. Any failure rejects the binary — the verifier never repairs.
//!
//! Verification runs on one thread, over the enclave's private pre-mapped
//! copy of the binary.

use crate::annotations::{
    elision_analysis_config, is_exempt_frame_store, match_any, Instance, TemplateKind,
};
use crate::policy::PolicySet;
use deflection_analysis::Analysis;
use deflection_isa::{disassemble, DisasmError, Disassembly, Inst, Reg};
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_telemetry::{Span, METRICS};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::fmt;

/// Why a binary was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerifyError {
    /// Disassembly failed (decode error, overlap, target out of range).
    Disasm(DisasmError),
    /// A store instruction has no (or a mismatched) P1 guard.
    UnguardedStore {
        /// Offset of the offending store.
        offset: usize,
    },
    /// An instruction writes `rsp` without a following P2 guard.
    UnguardedRspWrite {
        /// Offset of the offending instruction.
        offset: usize,
    },
    /// An indirect branch is not the subject of a branch-table lowering.
    RawIndirectBranch {
        /// Offset of the offending branch.
        offset: usize,
    },
    /// Policy requires the CFI bounds check but the lowering is unchecked.
    MissingCfiCheck {
        /// Offset of the offending branch.
        offset: usize,
    },
    /// A `ret` lacks the shadow-stack epilogue.
    MissingEpilogue {
        /// Offset of the offending `ret`.
        offset: usize,
    },
    /// A call target / indirect-branch-table entry lacks the shadow-stack
    /// prologue.
    MissingPrologue {
        /// Offset of the function entry.
        offset: usize,
    },
    /// A branch from outside an annotation targets its interior.
    BranchIntoAnnotation {
        /// Offset of the branching instruction.
        source: usize,
        /// The interior offset it targets.
        target: usize,
    },
    /// An indirect-branch-table entry points inside an annotation.
    IndirectTargetIntoAnnotation {
        /// The offending table target.
        target: usize,
    },
    /// The entry point sits inside an annotation.
    EntryInsideAnnotation,
    /// More than `q` program instructions ran without an AEX marker check.
    AexGapExceeded {
        /// Offset where the gap limit was crossed.
        offset: usize,
    },
    /// `rbp` written by something other than the frame idiom
    /// (`mov rbp, rsp` / `pop rbp`) — would break the frame-store
    /// exemption's containment argument.
    IllegalRbpWrite {
        /// Offset of the offending instruction.
        offset: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Disasm(e) => write!(f, "disassembly rejected: {e}"),
            VerifyError::UnguardedStore { offset } => {
                write!(f, "store at {offset:#x} lacks a valid P1 annotation")
            }
            VerifyError::UnguardedRspWrite { offset } => {
                write!(f, "rsp write at {offset:#x} lacks a P2 annotation")
            }
            VerifyError::RawIndirectBranch { offset } => {
                write!(f, "indirect branch at {offset:#x} bypasses the branch table")
            }
            VerifyError::MissingCfiCheck { offset } => {
                write!(f, "indirect branch at {offset:#x} lacks the P5 bounds check")
            }
            VerifyError::MissingEpilogue { offset } => {
                write!(f, "ret at {offset:#x} lacks the shadow-stack epilogue")
            }
            VerifyError::MissingPrologue { offset } => {
                write!(f, "call target {offset:#x} lacks the shadow-stack prologue")
            }
            VerifyError::BranchIntoAnnotation { source, target } => {
                write!(f, "branch at {source:#x} jumps into annotation interior {target:#x}")
            }
            VerifyError::IndirectTargetIntoAnnotation { target } => {
                write!(f, "indirect-branch table entry {target:#x} is annotation interior")
            }
            VerifyError::EntryInsideAnnotation => write!(f, "entry point inside an annotation"),
            VerifyError::AexGapExceeded { offset } => {
                write!(f, "more than q instructions without an AEX check near {offset:#x}")
            }
            VerifyError::IllegalRbpWrite { offset } => {
                write!(f, "illegal rbp write at {offset:#x} (only `mov rbp, rsp` / `pop rbp`)")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<DisasmError> for VerifyError {
    fn from(e: DisasmError) -> Self {
        VerifyError::Disasm(e)
    }
}

/// Role of each instruction after template discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Ordinary program instruction.
    Program,
    /// Inside annotation `id` (not its subject).
    Interior(usize),
    /// The guarded subject of annotation `id`.
    Subject(usize),
}

/// The verifier's accepted output: everything the rewriter and runtime need.
#[derive(Debug, Clone)]
pub struct Verified {
    /// The recursive-descent disassembly; its address-ordered instruction
    /// list is the one every later stage reads.
    pub disassembly: Disassembly,
    /// Every recognized annotation instance.
    pub instances: Vec<Instance>,
}

/// Verifies the relocated target binary at `code` against `policy`.
///
/// `entry` and `indirect_targets` are code-relative offsets (the loader
/// translates the symbolic proof list before calling).
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered; acceptance means every
/// rule of the enforced policy set holds on every reachable instruction.
pub fn verify(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
    policy: &PolicySet,
) -> Result<Verified, VerifyError> {
    verify_impl(code, entry, indirect_targets, policy, None)
}

/// Verifies like [`verify`], additionally accepting guard-elided binaries
/// when `policy.elide_guards` is set.
///
/// Under elision an unguarded store (or explicit `rsp` write) is accepted
/// **only** when the verifier's own in-enclave run of the abstract
/// interpretation ([`deflection_analysis`]) re-derives the safety proof
/// against the real `layout` bounds — no producer hints or proof witnesses
/// are consulted, keeping the producer fully untrusted. Elision further
/// requires `policy.cfi`: the analysis models exactly the control flow in
/// its CFG, and only P5 (shadow stack + sealed branch table) pins the
/// runtime's indirect edges to that CFG. Without CFI the layout is ignored
/// and the strict structural rules of [`verify`] apply unchanged.
///
/// # Errors
///
/// Same contract as [`verify`].
pub fn verify_with_layout(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
    policy: &PolicySet,
    layout: &EnclaveLayout,
) -> Result<Verified, VerifyError> {
    verify_impl(code, entry, indirect_targets, policy, Some(layout))
}

/// Back-to-back P2 elision: an explicit `rsp` write needs no guard of its
/// own when the byte-adjacent *next* instruction is ordinary program code
/// that again writes `rsp` without touching memory. The intermediate value
/// is dead — no access uses it — and the final write of the chain is
/// itself subject to the P2 rule (guard, chain or analysis proof).
fn rsp_chain_ok(insts: &[(usize, Inst, usize)], roles: &[Role], idx: usize) -> bool {
    let (off, _, len) = insts[idx];
    insts.get(idx + 1).is_some_and(|&(noff, ninst, _)| {
        noff == off + len
            && roles[idx + 1] == Role::Program
            && ninst.writes_rsp_explicitly()
            && ninst.stored_mem().is_none()
    })
}

/// Read-only inputs of the check phases.
struct CheckCtx<'a> {
    insts: &'a [(usize, Inst, usize)],
    roles: &'a [Role],
    instances: &'a [Instance],
    starts_at: &'a HashMap<usize, TemplateKind>,
    d: &'a Disassembly,
    policy: &'a PolicySet,
    elide: Option<&'a EnclaveLayout>,
    analysis: &'a OnceCell<Analysis>,
}

impl CheckCtx<'_> {
    fn instance_of(&self, idx: usize) -> Option<usize> {
        match self.roles[idx] {
            Role::Interior(id) | Role::Subject(id) => Some(id),
            Role::Program => None,
        }
    }

    /// The elision analysis, built on first demand and then shared by
    /// every later check.
    fn analysis(&self, l: &EnclaveLayout) -> &Analysis {
        self.analysis.get_or_init(|| Analysis::run(self.d, elision_analysis_config(l)))
    }
}

/// First error found per instruction-independent check phase.
#[derive(Default)]
struct PhaseErrors {
    /// Phase: branches may not skip into annotations.
    branch: Option<VerifyError>,
    /// Phase: rbp write discipline.
    rbp: Option<VerifyError>,
    /// Phase: per-policy structural rules.
    policy: Option<VerifyError>,
}

/// Scans every instruction once, in address order, recording the first
/// error of each instruction-independent phase. Scanning ascending means
/// the recorded error per phase is its lowest-index one.
fn check_phases(ctx: &CheckCtx<'_>) -> PhaseErrors {
    let _span = Span::start(&METRICS.verify_checks_ns);
    let mut out = PhaseErrors::default();
    for (idx, &(offset, inst, len)) in ctx.insts.iter().enumerate() {
        if out.branch.is_none() {
            if let Some(rel) = inst.direct_rel() {
                let target = ((offset + len) as i64 + i64::from(rel)) as usize;
                let target_idx =
                    ctx.d.index_of(target).expect("disassembly followed every direct branch");
                if let Some(tid) = ctx.instance_of(target_idx) {
                    let lands_on_start = target_idx == ctx.instances[tid].start_idx;
                    let same_instance = ctx.instance_of(idx) == Some(tid);
                    if !lands_on_start && !same_instance {
                        out.branch =
                            Some(VerifyError::BranchIntoAnnotation { source: offset, target });
                    }
                }
            }
        }
        if out.rbp.is_none() && ctx.policy.store_bounds {
            let writes_rbp = inst.written_reg() == Some(Reg::RBP);
            let frame_idiom = matches!(
                inst,
                Inst::MovRR { dst: Reg::RBP, src: Reg::RSP } | Inst::Pop { reg: Reg::RBP }
            );
            if writes_rbp && !frame_idiom {
                out.rbp = Some(VerifyError::IllegalRbpWrite { offset });
            }
        }
        if out.policy.is_none() {
            out.policy = policy_check_inst(ctx, idx, offset, &inst);
        }
        // Each phase records at most one error; stop early once no phase
        // can improve (rbp is done when found or not enforced).
        if out.branch.is_some()
            && out.policy.is_some()
            && (out.rbp.is_some() || !ctx.policy.store_bounds)
        {
            break;
        }
    }
    out
}

/// The per-policy structural rules for one instruction, in the fixed
/// intra-instruction order (store, rsp, indirect branch, ret).
fn policy_check_inst(
    ctx: &CheckCtx<'_>,
    idx: usize,
    offset: usize,
    inst: &Inst,
) -> Option<VerifyError> {
    match ctx.roles[idx] {
        Role::Program => {
            if ctx.policy.store_bounds {
                if let Some(mem) = inst.stored_mem() {
                    if !is_exempt_frame_store(mem) {
                        let proven = ctx.elide.is_some_and(|l| ctx.analysis(l).store_safe(offset));
                        if !proven {
                            return Some(VerifyError::UnguardedStore { offset });
                        }
                    }
                }
            }
            if ctx.policy.rsp_integrity && inst.writes_rsp_explicitly() {
                // The immediately following instruction must start a
                // P2 guard instance — unless, under elision, the write
                // is part of a dead chain or the analysis proves the
                // resulting rsp stays inside the stack window.
                if ctx.starts_at.get(&(idx + 1)) != Some(&TemplateKind::RspGuard) {
                    let proven = ctx.elide.is_some_and(|l| {
                        rsp_chain_ok(ctx.insts, ctx.roles, idx) || {
                            let a = ctx.analysis(l);
                            a.rsp_after(offset)
                                .and_then(|v| a.concrete_range(v))
                                .is_some_and(|(lo, hi)| lo >= l.stack.start && hi <= l.stack.end)
                        }
                    });
                    if !proven {
                        return Some(VerifyError::UnguardedRspWrite { offset });
                    }
                }
            }
            if inst.is_indirect_branch() {
                return Some(VerifyError::RawIndirectBranch { offset });
            }
            if ctx.policy.cfi && matches!(inst, Inst::Ret) {
                return Some(VerifyError::MissingEpilogue { offset });
            }
            None
        }
        Role::Subject(id) => {
            let kind = ctx.instances[id].kind;
            if inst.is_indirect_branch() && ctx.policy.cfi && kind == TemplateKind::CfiUnchecked {
                return Some(VerifyError::MissingCfiCheck { offset });
            }
            None
        }
        Role::Interior(_) => None,
    }
}

/// Output of the discovery prefix of verification: disassembly, greedily
/// matched annotation instances, and the per-instruction roles the check
/// phases consume.
struct Discovery {
    disassembly: Disassembly,
    roles: Vec<Role>,
    instances: Vec<Instance>,
}

/// The discovery prefix shared by [`verify_impl`] and [`discover`]: the
/// recursive-descent disassembly followed by the greedy template scan.
///
/// The greedy scan is order-sensitive: a match consumes its instructions
/// before the next candidate is considered. Everything downstream only
/// reads its output.
fn discover_impl(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
) -> Result<Discovery, VerifyError> {
    let disassembly = {
        let _span = Span::start(&METRICS.verify_disasm_ns);
        disassemble(code, entry, indirect_targets)?
    };
    let _span = Span::start(&METRICS.verify_discovery_ns);
    let insts = disassembly.insts();
    let mut roles = vec![Role::Program; insts.len()];
    let mut instances: Vec<Instance> = Vec::new();
    let mut i = 0;
    while i < insts.len() {
        if roles[i] != Role::Program {
            i += 1;
            continue;
        }
        if let Some(inst) = match_any(insts, i) {
            let id = instances.len();
            roles[inst.start_idx..=inst.end_idx].fill(Role::Interior(id));
            if let Some(s) = inst.subject_idx {
                roles[s] = Role::Subject(id);
            }
            i = inst.end_idx + 1;
            instances.push(inst);
        } else {
            i += 1;
        }
    }
    Ok(Discovery { disassembly, roles, instances })
}

/// Re-derives only the *discovery* prefix of verification — disassembly
/// plus greedy template matching — returning it in [`Verified`] form
/// without running any policy check phase.
///
/// This is **not** verification and never accepts anything: it must only
/// be used on a binary whose acceptance is already proven by other means —
/// concretely the sealed install cache ([`crate::sealed`]), whose MAC
/// attests that the full verifying pipeline accepted the identical binary
/// under the identical measurement and manifest. The pipeline is
/// deterministic in those inputs, so the discovery output here is
/// byte-identical to what the accepted run produced.
///
/// # Errors
///
/// Returns a [`VerifyError`] if disassembly fails (a corrupted image
/// cannot even be re-derived).
pub fn discover(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
) -> Result<Verified, VerifyError> {
    let d = discover_impl(code, entry, indirect_targets)?;
    Ok(Verified { disassembly: d.disassembly, instances: d.instances })
}

fn verify_impl(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
    policy: &PolicySet,
    layout: Option<&EnclaveLayout>,
) -> Result<Verified, VerifyError> {
    let _span = Span::start(&METRICS.verify_ns);
    let result = verify_inner(code, entry, indirect_targets, policy, layout);
    match &result {
        Ok(_) => METRICS.verify_accepts.add(1),
        Err(_) => METRICS.verify_rejects.add(1),
    }
    result
}

fn verify_inner(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
    policy: &PolicySet,
    layout: Option<&EnclaveLayout>,
) -> Result<Verified, VerifyError> {
    let Discovery { disassembly, roles, instances } = discover_impl(code, entry, indirect_targets)?;
    let insts = disassembly.insts();

    // Instance-start index → kind, for O(1) rule lookups.
    let starts_at: HashMap<usize, TemplateKind> =
        instances.iter().map(|i| (i.start_idx, i.kind)).collect();

    // Elision is sound only under P5: the analysis CFG contains exactly the
    // sealed branch-table edges, and the shadow stack pins returns, so at
    // runtime control cannot reach an elided site along an unanalyzed edge.
    let elide = match layout {
        Some(l) if policy.elide_guards && policy.cfi => Some(l),
        _ => None,
    };
    // The abstract interpretation is only paid for when an unguarded site is
    // actually encountered; fully instrumented binaries verify at the same
    // cost as under the strict rules.
    let analysis: OnceCell<Analysis> = OnceCell::new();
    let ctx = CheckCtx {
        insts,
        roles: &roles,
        instances: &instances,
        starts_at: &starts_at,
        d: &disassembly,
        policy,
        elide,
        analysis: &analysis,
    };

    // --- Instruction-independent phases, in one ascending scan. ------------
    // The scan records the lowest-index error per phase; phases report in
    // the fixed order that follows.
    let first = check_phases(&ctx);

    // --- Control flow may not skip into annotations. ----------------------
    if let Some(e) = first.branch {
        return Err(e);
    }
    for &t in indirect_targets {
        let target_idx = disassembly.index_of(t).expect("indirect targets are disassembly roots");
        if let Some(id) = ctx.instance_of(target_idx) {
            if target_idx != instances[id].start_idx {
                return Err(VerifyError::IndirectTargetIntoAnnotation { target: t });
            }
        }
    }
    let entry_idx = disassembly.index_of(entry).expect("entry is a disassembly root");
    if let Some(id) = ctx.instance_of(entry_idx) {
        if entry_idx != instances[id].start_idx {
            return Err(VerifyError::EntryInsideAnnotation);
        }
    }

    // --- rbp write discipline (underpins the frame-store exemption). -------
    if let Some(e) = first.rbp {
        return Err(e);
    }

    // --- Per-policy structural rules. --------------------------------------
    if let Some(e) = first.policy {
        return Err(e);
    }

    // --- Shadow-stack prologues at every call target (P5). ----------------
    if policy.cfi {
        let mut call_targets: Vec<usize> = indirect_targets.to_vec();
        for &(offset, inst, len) in insts {
            if let Inst::Call { rel } = inst {
                call_targets.push(((offset + len) as i64 + i64::from(rel)) as usize);
            }
        }
        call_targets.sort_unstable();
        call_targets.dedup();
        for target in call_targets {
            if target == entry {
                continue;
            }
            let target_idx = disassembly.index_of(target).expect("call targets are disassembled");
            if starts_at.get(&target_idx) != Some(&TemplateKind::Prologue) {
                return Err(VerifyError::MissingPrologue { offset: target });
            }
        }
    }

    // --- AEX density (P6): inherently a sequential prefix scan. ------------
    if policy.aex {
        // 8 instructions of slack over the declared q, matching the rewriter.
        let mut since: u32 = 0;
        for (idx, &(offset, _, _)) in insts.iter().enumerate() {
            if starts_at.get(&idx) == Some(&TemplateKind::AexCheck) {
                since = 0;
            }
            if matches!(roles[idx], Role::Program | Role::Subject(_)) {
                since += 1;
                if since > policy.q + 8 {
                    return Err(VerifyError::AexGapExceeded { offset });
                }
            }
        }
    }
    Ok(Verified { disassembly, instances })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::producer::produce;
    use deflection_obj::ObjectFile;

    const SRC: &str = "
        var data: [int; 32];
        fn helper(x: int) -> int { return x * 3; }
        fn main() -> int {
            var i: int = 0;
            var f: fn(int) -> int = &helper;
            while (i < 32) { data[i] = f(i); i = i + 1; }
            return data[31];
        }
    ";

    fn entry_and_ibt(obj: &ObjectFile) -> (usize, Vec<usize>) {
        let entry = obj.symbol(&obj.entry_symbol).unwrap().offset as usize;
        let ibt = obj
            .indirect_branch_table
            .iter()
            .map(|n| obj.symbol(n).unwrap().offset as usize)
            .collect();
        (entry, ibt)
    }

    #[test]
    fn every_policy_level_verifies_its_own_output() {
        for (name, policy) in PolicySet::levels() {
            let obj = produce(SRC, &policy).unwrap();
            let (entry, ibt) = entry_and_ibt(&obj);
            let v = verify(&obj.text, entry, &ibt, &policy);
            assert!(v.is_ok(), "level {name}: {:?}", v.err());
        }
    }

    #[test]
    fn baseline_verifies_under_empty_policy() {
        let obj = produce(SRC, &PolicySet::none()).unwrap();
        let (entry, ibt) = entry_and_ibt(&obj);
        verify(&obj.text, entry, &ibt, &PolicySet::none()).unwrap();
    }

    #[test]
    fn baseline_rejected_under_full_policy() {
        let obj = produce(SRC, &PolicySet::none()).unwrap();
        let (entry, ibt) = entry_and_ibt(&obj);
        let err = verify(&obj.text, entry, &ibt, &PolicySet::full()).unwrap_err();
        // Which rule fires first depends on instruction order; any of the
        // enforced policies is a valid ground for rejection.
        assert!(matches!(
            err,
            VerifyError::UnguardedStore { .. }
                | VerifyError::UnguardedRspWrite { .. }
                | VerifyError::MissingEpilogue { .. }
                | VerifyError::MissingCfiCheck { .. }
                | VerifyError::AexGapExceeded { .. }
        ));
    }

    #[test]
    fn p1_binary_rejected_when_p5_required() {
        let obj = produce(SRC, &PolicySet::p1()).unwrap();
        let (entry, ibt) = entry_and_ibt(&obj);
        let err = verify(&obj.text, entry, &ibt, &PolicySet::p1_p5()).unwrap_err();
        assert!(
            matches!(
                err,
                VerifyError::MissingCfiCheck { .. }
                    | VerifyError::MissingEpilogue { .. }
                    | VerifyError::MissingPrologue { .. }
                    | VerifyError::UnguardedRspWrite { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn stronger_binary_accepted_by_weaker_policy() {
        // A fully instrumented binary satisfies the P1-only verifier.
        let obj = produce(SRC, &PolicySet::full()).unwrap();
        let (entry, ibt) = entry_and_ibt(&obj);
        verify(&obj.text, entry, &ibt, &PolicySet::p1()).unwrap();
    }

    #[test]
    fn discover_matches_verify_and_never_checks_policy() {
        let obj = produce(SRC, &PolicySet::full()).unwrap();
        let (entry, ibt) = entry_and_ibt(&obj);
        let v = verify(&obj.text, entry, &ibt, &PolicySet::full()).unwrap();
        let d = discover(&obj.text, entry, &ibt).unwrap();
        assert_eq!(d.disassembly.insts(), v.disassembly.insts());
        assert_eq!(d.instances.len(), v.instances.len());
        // discover never rejects on policy grounds: a baseline binary the
        // full policy refuses still re-derives its discovery output.
        let obj = produce(SRC, &PolicySet::none()).unwrap();
        let (entry, ibt) = entry_and_ibt(&obj);
        assert!(verify(&obj.text, entry, &ibt, &PolicySet::full()).is_err());
        assert!(discover(&obj.text, entry, &ibt).is_ok());
    }

    #[test]
    fn instances_are_discovered() {
        let obj = produce(SRC, &PolicySet::full()).unwrap();
        let (entry, ibt) = entry_and_ibt(&obj);
        let v = verify(&obj.text, entry, &ibt, &PolicySet::full()).unwrap();
        let kinds: Vec<TemplateKind> = v.instances.iter().map(|i| i.kind).collect();
        assert!(kinds.contains(&TemplateKind::StoreGuard));
        assert!(kinds.contains(&TemplateKind::RspGuard));
        assert!(kinds.contains(&TemplateKind::CfiChecked));
        assert!(kinds.contains(&TemplateKind::Prologue));
        assert!(kinds.contains(&TemplateKind::Epilogue));
        assert!(kinds.contains(&TemplateKind::AexCheck));
    }
}
