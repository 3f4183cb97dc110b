//! Content-addressed incremental re-verification for high-churn fleets.
//!
//! [`verify_incremental`] is a drop-in sibling of
//! [`verify_with_layout`](super::verify_with_layout) for installers that
//! repeatedly verify *patched* variants of the same binary: it keeps a
//! per-function memo of check results (and, through
//! [`deflection_analysis::incremental`], of abstract-interpretation
//! fixpoints) and re-runs the expensive per-instruction check phases only
//! for functions whose verification-relevant inputs changed since the last
//! call. Discovery — recursive-descent disassembly plus the greedy
//! template scan — always re-runs in full: it is cheap, order-sensitive,
//! and its output is what the memo keys are captured *from*, so a binary
//! whose structure diverged falls out of the memo naturally instead of
//! needing a separate fallback test.
//!
//! # Memo key and soundness
//!
//! Each function range from `Disassembly::function_ranges()` is keyed by
//! an explicit capture of **everything** `check_range` reads for that
//! range: the enforced [`PolicySet`], the instruction list (offsets,
//! decoded forms, lengths — the content address), the discovered roles
//! (with annotation identities reduced to the template kinds the checks
//! consult), the guard-template kinds starting at each following
//! instruction, the resolved facts of every direct branch (does it land
//! on an instance start / stay inside its own instance), the one
//! instruction past the range that the `rsp`-chain rule may peek at, and
//! — under elision — the stack window bounds. Reuse requires the stored
//! capture to compare **equal** to this run's fresh capture, and, when
//! elision consults the abstract interpretation, that the function's
//! fixpoint group was itself reused (same input-equality discipline; see
//! the analysis-side module docs). A hit therefore replays a result that
//! a from-scratch serial verify would recompute identically; the merge
//! and the whole-program tail checks run unconditionally through the same
//! `merged_verdict` the serial and threaded verifiers use, so the final
//! verdict — acceptance or the exact error — is bit-identical to
//! [`verify_with_layout`](super::verify_with_layout). The full serial
//! verifier stays the measured TCB and the oracle; this module is a
//! host-side work-avoidance layer whose agreement is enforced by the
//! cross-check corpus in `tests/incremental_verify.rs`.
//!
//! # Covert-channel note
//!
//! Memo hit/miss/invalidation counts are a function of *which* functions
//! changed between two producer-supplied binaries — information the host
//! already holds (it supplies both binaries). The counters are bumped
//! once per [`verify_incremental`] call on the host-side install path,
//! never from inside a check phase, so they expose no per-instruction
//! timing structure beyond what `deflection_verify_ns` already does.

use super::verifier::{
    check_range, discover_impl, merged_verdict, CheckCtx, Discovery, RangeErrors, Role,
};
use super::{load, rewrite, Bindings, InstallError, Installed, Verified, VerifyError};
use crate::annotations::{
    elision_analysis_config, is_exempt_frame_store, TemplateKind, SSA_MARKER_VALUE,
};
use crate::policy::{Manifest, PolicySet};
use crate::runtime::{manifest_digest, place_io, BootstrapEnclave, EcallError, PreparedInstall};
use deflection_analysis::incremental::{run_incremental, AnalysisMemo};
use deflection_analysis::Analysis;
use deflection_isa::Inst;
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_sgx_sim::mem::Memory;
use deflection_telemetry::{Span, METRICS};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A discovered role reduced to exactly what the check phases consult:
/// annotation identities are positional bookkeeping, but the policy rules
/// only ever read the *kind* of a subject's instance.
#[derive(Clone, PartialEq)]
enum LocalRole {
    Program,
    Interior,
    Subject(TemplateKind),
}

/// The captured inputs of one function's [`check_range`] run. Two runs
/// with equal keys are guaranteed to produce the equal [`RangeErrors`].
#[derive(Clone, PartialEq)]
struct FnKey {
    policy: PolicySet,
    elide: bool,
    /// Stack window bounds consulted by the elided-`rsp` proof.
    stack: Option<(u64, u64)>,
    /// `(offset, inst, len)` of every instruction in the range — the
    /// function's content address.
    insts: Vec<(usize, Inst, usize)>,
    roles: Vec<LocalRole>,
    /// The template kind starting at each `idx + 1` the P2 rule peeks at.
    start_kinds: Vec<Option<TemplateKind>>,
    /// Per instruction: `None` = not a direct branch; `Some(None)` =
    /// target outside any annotation; `Some(Some((lands_on_start,
    /// same_instance)))` = the resolved annotation facts of the target.
    branch_facts: Vec<Option<Option<(bool, bool)>>>,
    /// The first instruction past the range and whether its role is
    /// `Program` — the only out-of-range state `rsp_chain_ok` reads.
    boundary: Option<((usize, Inst, usize), bool)>,
}

/// Observable outcome of one [`verify_incremental`] call, for tests and
/// the ablation bench (robust against unrelated tests sharing the global
/// telemetry counters).
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalStats {
    /// Function check results replayed from the memo.
    pub hits: u64,
    /// Functions with no memo entry (first sight of this entry offset).
    pub misses: u64,
    /// Functions whose memo entry existed but whose captured inputs (or
    /// analysis-group reuse gate) no longer matched.
    pub invalidated: u64,
    /// Analysis fixpoint groups reused (elision runs only).
    pub groups_reused: u64,
    /// Analysis fixpoint groups recomputed (elision runs only).
    pub groups_recomputed: u64,
}

/// The persistent memo carried across [`verify_incremental`] calls:
/// per-function check results keyed by entry offset, plus the
/// analysis-side fixpoint memo. One cache serves one logical install
/// slot; entries for changed functions are replaced in place.
#[derive(Clone, Default)]
pub struct IncrementalCache {
    checks: HashMap<usize, (FnKey, RangeErrors)>,
    analysis: AnalysisMemo,
    last: IncrementalStats,
}

impl fmt::Debug for IncrementalCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalCache")
            .field("functions", &self.checks.len())
            .field("last", &self.last)
            .finish()
    }
}

impl IncrementalCache {
    /// An empty cache: the first verify computes everything.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stats of the most recent [`verify_incremental`] call through this
    /// cache.
    #[must_use]
    pub fn last_stats(&self) -> IncrementalStats {
        self.last
    }
}

/// Captures the [`FnKey`] of the function occupying `[lo, hi)`.
fn capture_key(ctx: &CheckCtx<'_>, lo: usize, hi: usize) -> FnKey {
    let roles = ctx.roles[lo..hi]
        .iter()
        .map(|r| match r {
            Role::Program => LocalRole::Program,
            Role::Interior(_) => LocalRole::Interior,
            Role::Subject(id) => LocalRole::Subject(ctx.instances[*id].kind),
        })
        .collect();
    let start_kinds = (lo..hi).map(|idx| ctx.starts_at.get(&(idx + 1)).copied()).collect();
    let branch_facts = (lo..hi)
        .map(|idx| {
            let (offset, inst, len) = ctx.insts[idx];
            inst.direct_rel().map(|rel| {
                let target = ((offset + len) as i64 + i64::from(rel)) as usize;
                let target_idx =
                    ctx.d.index_of(target).expect("disassembly followed every direct branch");
                ctx.instance_of(target_idx).map(|tid| {
                    (target_idx == ctx.instances[tid].start_idx, ctx.instance_of(idx) == Some(tid))
                })
            })
        })
        .collect();
    FnKey {
        policy: *ctx.policy,
        elide: ctx.elide.is_some(),
        stack: ctx.elide.map(|l| (l.stack.start, l.stack.end)),
        insts: ctx.insts[lo..hi].to_vec(),
        roles,
        start_kinds,
        branch_facts,
        boundary: ctx.insts.get(hi).map(|&t| (t, ctx.roles.get(hi) == Some(&Role::Program))),
    }
}

/// Shifts a [`RangeErrors`] between the stored function-local index space
/// and this run's global instruction indices. Only the merge keys move;
/// the error payloads are code offsets, which the matched key pins.
fn shift(errors: &RangeErrors, delta: isize) -> RangeErrors {
    let mv = |o: &Option<(usize, VerifyError)>| {
        o.as_ref().map(|(i, e)| ((*i as isize + delta) as usize, e.clone()))
    };
    RangeErrors { branch: mv(&errors.branch), rbp: mv(&errors.rbp), policy: mv(&errors.policy) }
}

/// Verifies like [`verify_with_layout`](super::verify_with_layout) —
/// same rules, same elision support, bit-identical verdict — reusing
/// per-function work from `cache` where this binary's captured inputs
/// are unchanged. Serial by design: the fast path's win is skipping
/// work, not sharding it.
///
/// # Errors
///
/// Same contract as [`verify`](super::verify): the error (and its exact
/// offsets) equals what the full serial verifier returns on this input.
pub fn verify_incremental(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
    policy: &PolicySet,
    layout: &EnclaveLayout,
    cache: &mut IncrementalCache,
) -> Result<Verified, VerifyError> {
    let _span = Span::start(&METRICS.verify_ns);
    cache.last = IncrementalStats::default();
    let result = verify_incremental_inner(code, entry, indirect_targets, policy, layout, cache);
    match &result {
        Ok(_) => METRICS.verify_accepts.add(1),
        Err(_) => METRICS.verify_rejects.add(1),
    }
    METRICS.verify_memo_hits.add(cache.last.hits);
    METRICS.verify_memo_misses.add(cache.last.misses);
    METRICS.verify_memo_invalidated.add(cache.last.invalidated);
    result
}

/// Whether any instruction in `[lo, hi)` can reach one of the two
/// analysis consult sites in the per-instruction policy rules: an
/// unguarded store, or an explicit `rsp` write not covered by a P2 guard
/// template. Conservative on the `rsp` dead-chain rule (which can
/// discharge a write without the analysis), so this may build the
/// analysis where the lazy serial verifier would not — a cost difference
/// only, never a verdict one.
fn may_consult_analysis(
    policy: &PolicySet,
    insts: &[(usize, Inst, usize)],
    roles: &[Role],
    starts_at: &HashMap<usize, TemplateKind>,
    lo: usize,
    hi: usize,
) -> bool {
    (lo..hi).any(|idx| {
        if !matches!(roles[idx], Role::Program) {
            return false;
        }
        let inst = &insts[idx].1;
        (policy.store_bounds && inst.stored_mem().is_some_and(|m| !is_exempt_frame_store(m)))
            || (policy.rsp_integrity
                && inst.writes_rsp_explicitly()
                && starts_at.get(&(idx + 1)) != Some(&TemplateKind::RspGuard))
    })
}

fn verify_incremental_inner(
    code: &[u8],
    entry: usize,
    indirect_targets: &[usize],
    policy: &PolicySet,
    layout: &EnclaveLayout,
    cache: &mut IncrementalCache,
) -> Result<Verified, VerifyError> {
    // Discovery always re-runs in full — see the module docs.
    let Discovery { disassembly, roles, instances } =
        discover_impl(code, entry, indirect_targets, 1)?;
    let starts_at: HashMap<usize, TemplateKind> =
        instances.iter().map(|i| (i.start_idx, i.kind)).collect();
    let elide = if policy.elide_guards && policy.cfi { Some(layout) } else { None };

    let insts = disassembly.insts();
    let ranges = disassembly.function_ranges();
    let mut stats = IncrementalStats::default();
    // The elision analysis is built only when some range can actually
    // consult it — the same workloads that force the lazy serial verifier
    // to build its analysis. Ranges that cannot consult it replay without
    // the fixpoint-reuse gate: their stored results do not depend on any
    // analysis value.
    let needs_analysis: Vec<bool> = ranges
        .iter()
        .map(|&(lo, hi)| {
            elide.is_some() && may_consult_analysis(policy, insts, &roles, &starts_at, lo, hi)
        })
        .collect();
    let analysis: OnceLock<Analysis> = OnceLock::new();
    let report = match elide {
        Some(l) if needs_analysis.contains(&true) => {
            let (a, report) =
                run_incremental(&disassembly, elision_analysis_config(l), &mut cache.analysis);
            let _ = analysis.set(a);
            stats.groups_reused = report.groups_reused as u64;
            stats.groups_recomputed = report.groups_recomputed as u64;
            Some(report)
        }
        _ => None,
    };
    let ctx = CheckCtx {
        insts,
        roles: &roles,
        instances: &instances,
        starts_at: &starts_at,
        d: &disassembly,
        policy,
        elide,
        analysis: &analysis,
        threads: 1,
    };

    let entries = disassembly.function_entries();
    let mut results = Vec::with_capacity(ranges.len());
    {
        let _span = Span::start(&METRICS.verify_checks_ns);
        for (g, &(lo, hi)) in ranges.iter().enumerate() {
            let fn_off = entries.get(g).copied().unwrap_or(0);
            let key = capture_key(&ctx, lo, hi);
            // When a range can consult the analysis, its stored result may
            // embed analysis answers; it is then replayable only if the
            // function's own fixpoint group was reused (its in-states are
            // bit-identical to a fresh run's).
            let analysis_ok = !needs_analysis[g]
                || report.as_ref().is_some_and(|r| r.reused.get(g).copied().unwrap_or(false));
            let replay = match cache.checks.get(&fn_off) {
                Some((k, stored)) if *k == key && analysis_ok => Some(shift(stored, lo as isize)),
                Some(_) => {
                    stats.invalidated += 1;
                    None
                }
                None => {
                    stats.misses += 1;
                    None
                }
            };
            match replay {
                Some(r) => {
                    stats.hits += 1;
                    results.push(r);
                }
                None => {
                    let r = check_range(&ctx, lo, hi);
                    cache.checks.insert(fn_off, (key, shift(&r, -(lo as isize))));
                    results.push(r);
                }
            }
        }
    }
    cache.last = stats;
    merged_verdict(&ctx, entry, indirect_targets, &results)?;
    Ok(Verified { insts: insts.to_vec(), disassembly, instances })
}

/// The full consumer install pipeline with [`verify_incremental`] in the
/// verifier slot — the patched-binary sibling of
/// [`install`](super::install). Load, verify incrementally, rewrite,
/// arm control state.
///
/// # Errors
///
/// Returns [`InstallError`] on any load or verification failure; on error
/// the enclave must be discarded, never run.
pub fn install_incremental(
    binary: &[u8],
    manifest: &Manifest,
    mem: &mut Memory,
    cache: &mut IncrementalCache,
) -> Result<Installed, InstallError> {
    let layout: EnclaveLayout = mem.layout().clone();
    let program = load(binary, mem)?;
    let code =
        mem.peek_bytes(layout.code.start, program.code_len).expect("loader wrote the code window");
    let entry = (program.entry_va - layout.code.start) as usize;
    let verified =
        verify_incremental(&code, entry, &program.ibt_offsets, &manifest.policy, &layout, cache)?;
    let bindings =
        Bindings::from_layout(&layout, program.ibt_addresses.len() as u64, manifest.aex_threshold);
    rewrite(mem, layout.code.start, &verified, &bindings);
    mem.poke_u64(layout.shadow_sp_slot(), layout.shadow_stack.end).expect("control page mapped");
    mem.poke_u64(layout.aex_count_slot(), 0).expect("control page mapped");
    mem.poke_u64(layout.ssa_marker_slot(), SSA_MARKER_VALUE as u64).expect("ssa mapped");
    Ok(Installed { program, verified })
}

/// [`BootstrapEnclave::install_capture`] with the incremental verifier:
/// runs [`install_incremental`], adopts the image, and captures it as a
/// [`PreparedInstall`] for replay into identically-measured peers.
///
/// # Errors
///
/// Propagates consumer rejections and I/O-placement failures; fails with
/// [`EcallError::EnclaveLost`] on a lost enclave.
pub fn install_capture_incremental(
    enclave: &mut BootstrapEnclave,
    binary: &[u8],
    cache: &mut IncrementalCache,
) -> Result<PreparedInstall, EcallError> {
    if enclave.is_lost() {
        return Err(EcallError::EnclaveLost);
    }
    let mut mem = Memory::new(enclave.layout.clone());
    let installed = install_incremental(binary, &enclave.manifest, &mut mem, cache)?;
    let io = place_io(&mut mem, &installed, &enclave.layout, &enclave.manifest)?;
    let prepared = PreparedInstall {
        measurement: enclave.measurement(),
        code_hash: installed.program.code_hash,
        mem: mem.image(),
        installed: installed.clone(),
        io,
        binary: binary.to_vec(),
        manifest_digest: manifest_digest(&enclave.manifest),
    };
    enclave.adopt(mem, installed, io);
    Ok(prepared)
}
