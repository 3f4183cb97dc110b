//! Memoized re-runs of the abstract interpretation for incremental
//! re-verification of patched binaries.
//!
//! [`run_incremental`] produces an [`Analysis`] that is **bit-identical**
//! to [`Analysis::run`] over the same disassembly and configuration — the
//! memo is purely a work-avoidance device, never a source of truth the
//! result could diverge toward. The mechanism is *input-equality
//! memoization*: every per-function fixpoint in the modular analysis
//! ([`Analysis::run_threaded`]) is a pure function of a small, explicit
//! input capture (the group's blocks and internal edges, its dominator
//! chains, the projected pre-pass seeds flowing into it, the
//! stack-balance verdicts of its direct callees, and the analysis
//! configuration). A memoized result substitutes for a recomputation only
//! when a fresh capture of those inputs compares **equal** — so a hit is
//! correct by construction, with no reliance on hash collision resistance
//! against the adversarial producer, and no call-graph reasoning that
//! could under-approximate the invalidation set.
//!
//! The cheap serial phases — CFG reconstruction, dominators, the
//! stack-balance stratification driver and the projected whole-program
//! pre-pass — are recomputed from scratch on every run. That is what
//! makes the capture comparison sound: the seeds and callee verdicts fed
//! into each group are always this run's real values, so a caller whose
//! interprocedural facts shifted (different pre-pass seed, different
//! callee balance bit) fails its equality check and re-runs, while a
//! sibling function untouched by the patch compares equal and is reused
//! even when the call graph is star-shaped.

use crate::absint::{
    call_target, exec_block, group_fixpoint, is_cut_edge, projected_fixpoint, AbsState, Analysis,
    AnalysisConfig, GroupCtx,
};
use crate::cfg::{Cfg, EdgeKind};
use crate::interval::Interval;
use crate::AVal;
use deflection_isa::{Disassembly, Inst, Reg};
use deflection_telemetry::{Span, METRICS};
use std::collections::{BTreeSet, HashMap};

/// Cap on remembered (callee-bits, verdict) pairs per function in the
/// stack-balance memo. The stratified driver re-evaluates a function only
/// after the `balanced` set grew, until it certifies, so a handful of
/// distinct bit patterns
/// covers every converging run; the cap only bounds memory on
/// pathological churn.
const MAX_BALANCE_VERDICTS: usize = 8;

/// One basic block of a function group in canonical, index-free form.
///
/// `Edge::to` in the [`Cfg`] is a *global block index*, which shifts when
/// an unrelated function gains or loses a block; edges are therefore
/// captured as `(kind, target start offset, is-cut)` so the comparison is
/// stable under such shifts and two runs compare equal exactly when the
/// group's fixpoint would traverse the same shape. The dominator chain is
/// captured as start offsets for the same reason: the widening decision
/// consults `Cfg::dominates`, whose answer is a pure function of the
/// chain's offset sequence.
#[derive(Clone, PartialEq)]
struct CanonBlock {
    start: usize,
    end: usize,
    insts: Vec<(usize, Inst)>,
    edges: Vec<(EdgeKind, usize, bool)>,
    idom_chain: Vec<usize>,
}

/// Everything shape-like a group fixpoint reads: its blocks (with edges
/// and dominator chains) plus the analysis configuration.
#[derive(Clone, PartialEq)]
struct GroupShape {
    config: AnalysisConfig,
    blocks: Vec<CanonBlock>,
}

/// Memoized stack-balance verdicts for one function entry.
#[derive(Clone)]
struct BalanceEntry {
    shape: GroupShape,
    /// `(callee balance bits at evaluation time, verdict)` pairs.
    verdicts: Vec<(Vec<(usize, bool)>, bool)>,
}

/// Memoized full-precision fixpoint result for one function entry.
#[derive(Clone)]
struct GroupEntry {
    shape: GroupShape,
    /// Per member block: `None` = not seeded, `Some(state)` = the
    /// projected pre-pass seed (possibly `None` when unreachable).
    seeds: Vec<Option<Option<AbsState>>>,
    /// Direct-call targets inside the group and their balance verdicts.
    bits: Vec<(usize, bool)>,
    /// In-states keyed by block *start offset* (global block indices are
    /// not stable across runs).
    result: Vec<(usize, AbsState)>,
}

/// The persistent memo carried between [`run_incremental`] calls.
///
/// Keyed by function entry offset; stale entries (shape mismatch) are
/// replaced in place, so the memo never grows beyond one entry per
/// function of the most recent binary shape.
#[derive(Clone, Default)]
pub struct AnalysisMemo {
    balance: HashMap<usize, BalanceEntry>,
    groups: HashMap<usize, GroupEntry>,
}

impl AnalysisMemo {
    /// An empty memo: the first run computes everything and populates it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one [`run_incremental`] call reused versus recomputed — the
/// observable invalidation set, for telemetry and tests.
#[derive(Debug, Clone, Default)]
pub struct IncrementalReport {
    /// Per function (indexed like `Disassembly::function_entries`):
    /// whether its full-precision fixpoint was reused from the memo.
    pub reused: Vec<bool>,
    /// Functions whose fixpoint results were reused.
    pub groups_reused: usize,
    /// Functions whose fixpoints were recomputed (the invalidation set).
    pub groups_recomputed: usize,
    /// Stack-balance evaluations answered from the memo.
    pub balance_hits: usize,
    /// Stack-balance evaluations recomputed.
    pub balance_misses: usize,
}

/// The dominator chain of block `b`, as start offsets, mirroring the walk
/// in [`Cfg::dominates`] (the entry block's idom is itself).
fn idom_chain(cfg: &Cfg, idom: &[Option<usize>], b: usize) -> Vec<usize> {
    let mut chain = Vec::new();
    let mut cur = b;
    while let Some(parent) = idom[cur] {
        if parent == cur {
            break;
        }
        chain.push(cfg.blocks[parent].start);
        cur = parent;
    }
    chain
}

/// Captures the canonical shape of one group.
fn capture_shape(
    cfg: &Cfg,
    idom: &[Option<usize>],
    group_of: &[usize],
    members: &[usize],
    config: &AnalysisConfig,
) -> GroupShape {
    let blocks = members
        .iter()
        .map(|&b| {
            let blk = &cfg.blocks[b];
            let edges = blk
                .edges
                .iter()
                .map(|e| {
                    (
                        e.kind,
                        cfg.blocks[e.to].start,
                        is_cut_edge(e.kind, group_of[b], group_of[e.to]),
                    )
                })
                .collect();
            CanonBlock {
                start: blk.start,
                end: blk.end,
                insts: blk.insts.clone(),
                edges,
                idom_chain: idom_chain(cfg, idom, b),
            }
        })
        .collect();
    GroupShape { config: config.clone(), blocks }
}

/// The `(direct-call target, balanced?)` bits a group fixpoint would read
/// through its `CallFall` edges, captured against the current `balanced`
/// set. Part of every memo key: a callee whose balance verdict shifted
/// invalidates exactly its callers.
fn callee_bits(cfg: &Cfg, members: &[usize], balanced: &BTreeSet<usize>) -> Vec<(usize, bool)> {
    members
        .iter()
        .filter_map(|&b| call_target(cfg, b))
        .map(|t| (t, balanced.contains(&t)))
        .collect()
}

/// One stack-balance evaluation for a candidate group — byte-for-byte the
/// evaluation `balanced_entries` performs in [`Analysis::run_threaded`].
fn compute_balance(
    cfg: &Cfg,
    idom: &[Option<usize>],
    config: &AnalysisConfig,
    group_of: &[usize],
    members: &[usize],
    eb: usize,
    balanced: &BTreeSet<usize>,
) -> bool {
    let n = cfg.blocks.len();
    let mut prepass: Vec<Option<AbsState>> = vec![None; n];
    prepass[eb] = Some(AbsState::balance_entry());
    let mut bseed = vec![false; n];
    bseed[eb] = true;
    let ctx = GroupCtx { cfg, idom, config, group_of, seeded: &bseed, prepass: &prepass, balanced };
    for (b, state) in group_fixpoint(&ctx, members) {
        let Some(&(_, Inst::Ret)) = cfg.blocks[b].insts.last() else { continue };
        let (out, _) = exec_block(cfg, b, state, config);
        if out.reg(Reg::RSP).val != AVal::Stack(Interval::exact(0))
            || out.reg(Reg::RBP).val != AVal::EntryRbp
        {
            return false;
        }
    }
    true
}

/// Runs the analysis with per-function fixpoints answered from `memo`
/// where every captured input compares equal, recomputing (and
/// re-memoizing) the rest.
///
/// The returned [`Analysis`] is bit-identical — block in-state for block
/// in-state — to [`Analysis::run`] on the same inputs: reuse happens only
/// when the recomputation's full input set is equal, and each fixpoint is
/// a deterministic pure function of that set. The [`IncrementalReport`]
/// names the invalidation set actually paid for.
#[must_use]
pub fn run_incremental(
    d: &Disassembly,
    config: AnalysisConfig,
    memo: &mut AnalysisMemo,
) -> (Analysis, IncrementalReport) {
    let _span = Span::start(&METRICS.analysis_run_ns);
    let cfg = Cfg::build(d);
    let idom = cfg.dominators();
    let n = cfg.blocks.len();

    // Grouping, seeding: exactly as `Analysis::run_threaded`.
    let entries = d.function_entries();
    let group_of: Vec<usize> = cfg
        .blocks
        .iter()
        .map(|b| entries.partition_point(|&e| e <= b.start).saturating_sub(1))
        .collect();
    let n_groups = entries.len().max(1);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
    for (b, &g) in group_of.iter().enumerate() {
        members[g].push(b);
    }
    let mut seeded = vec![false; n];
    seeded[cfg.entry] = true;
    for (a, blk) in cfg.blocks.iter().enumerate() {
        for e in &blk.edges {
            if is_cut_edge(e.kind, group_of[a], group_of[e.to]) {
                seeded[e.to] = true;
            }
        }
    }

    let shapes: Vec<GroupShape> =
        members.iter().map(|mem| capture_shape(&cfg, &idom, &group_of, mem, &config)).collect();
    let mut report = IncrementalReport { reused: vec![false; n_groups], ..Default::default() };

    // Stack-balance stratification: the driver (rounds, iteration order,
    // give-up conditions, and the skip of a group that failed while
    // `balanced` has not grown since) replays verbatim; only the
    // per-group fixpoint + ret-check evaluation is answered from the
    // memo. Each evaluation is a pure function of (shape, callee bits at
    // evaluation time), so the grown `balanced` set is identical to the
    // from-scratch run's, and the memo sees exactly its evaluations.
    let mut balanced: BTreeSet<usize> = BTreeSet::new();
    let mut failed_at: Vec<Option<usize>> = vec![None; n_groups];
    loop {
        let mut grew = false;
        for (g, mem) in members.iter().enumerate() {
            let Some(&entry_off) = entries.get(g) else { continue };
            if balanced.contains(&entry_off) || failed_at[g] == Some(balanced.len()) {
                continue;
            }
            let Some(&eb) = mem.iter().find(|&&b| cfg.blocks[b].start == entry_off) else {
                continue;
            };
            if mem.iter().any(|&b| seeded[b] && b != eb) {
                continue;
            }
            let bits = callee_bits(&cfg, mem, &balanced);
            let entry = memo
                .balance
                .entry(entry_off)
                .or_insert_with(|| BalanceEntry { shape: shapes[g].clone(), verdicts: Vec::new() });
            if entry.shape != shapes[g] {
                entry.shape = shapes[g].clone();
                entry.verdicts.clear();
            }
            let verdict = match entry.verdicts.iter().find(|(k, _)| *k == bits) {
                Some(&(_, v)) => {
                    report.balance_hits += 1;
                    v
                }
                None => {
                    report.balance_misses += 1;
                    let v = compute_balance(&cfg, &idom, &config, &group_of, mem, eb, &balanced);
                    if entry.verdicts.len() >= MAX_BALANCE_VERDICTS {
                        entry.verdicts.clear();
                    }
                    entry.verdicts.push((bits, v));
                    v
                }
            };
            if verdict {
                balanced.insert(entry_off);
                grew = true;
            } else {
                failed_at[g] = Some(balanced.len());
            }
        }
        if !grew {
            break;
        }
    }

    // Whole-program projected pre-pass: cheap, always recomputed — its
    // per-block states are the seeds the group memo keys compare.
    let prepass = projected_fixpoint(&cfg, &idom, &config, &balanced);

    let start_to_block: HashMap<usize, usize> =
        cfg.blocks.iter().enumerate().map(|(i, b)| (b.start, i)).collect();
    let mut in_states: Vec<Option<AbsState>> = vec![None; n];
    for (g, mem) in members.iter().enumerate() {
        let key = entries.get(g).copied().unwrap_or(0);
        let seeds: Vec<Option<Option<AbsState>>> =
            mem.iter().map(|&b| if seeded[b] { Some(prepass[b].clone()) } else { None }).collect();
        let bits = callee_bits(&cfg, mem, &balanced);
        let hit = memo
            .groups
            .get(&key)
            .is_some_and(|e| e.shape == shapes[g] && e.seeds == seeds && e.bits == bits);
        if hit {
            let entry = memo.groups.get(&key).expect("checked above");
            for (off, s) in &entry.result {
                in_states[start_to_block[off]] = Some(s.clone());
            }
            report.reused[g] = true;
            report.groups_reused += 1;
        } else {
            let ctx = GroupCtx {
                cfg: &cfg,
                idom: &idom,
                config: &config,
                group_of: &group_of,
                seeded: &seeded,
                prepass: &prepass,
                balanced: &balanced,
            };
            let result = group_fixpoint(&ctx, mem);
            for &(b, ref s) in &result {
                in_states[b] = Some(s.clone());
            }
            let result = result.into_iter().map(|(b, s)| (cfg.blocks[b].start, s)).collect();
            memo.groups.insert(key, GroupEntry { shape: shapes[g].clone(), seeds, bits, result });
            report.groups_recomputed += 1;
        }
    }
    let rel_facts: u64 = in_states.iter().flatten().map(|s| s.rels.len() as u64).sum();
    METRICS.absint_relational_facts.observe(rel_facts);
    (Analysis { cfg, config, in_states }, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflection_isa::{disassemble, encode, encoded_len, AluOp, CondCode, MemOperand};

    enum I {
        R(Inst),
        Call(usize),
        Jcc(CondCode, usize),
    }

    fn ilen(i: &I) -> usize {
        match i {
            I::R(inst) => encoded_len(inst),
            I::Call(_) => encoded_len(&Inst::Call { rel: 0 }),
            I::Jcc(cc, _) => encoded_len(&Inst::Jcc { cc: *cc, rel: 0 }),
        }
    }

    fn assemble(funcs: &[Vec<I>]) -> Vec<u8> {
        let mut offsets: Vec<Vec<usize>> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        let mut cursor = 0usize;
        for f in funcs {
            starts.push(cursor);
            let mut offs = Vec::new();
            for i in f {
                offs.push(cursor);
                cursor += ilen(i);
            }
            offsets.push(offs);
        }
        let mut code = Vec::with_capacity(cursor);
        for (fi, f) in funcs.iter().enumerate() {
            for (ii, i) in f.iter().enumerate() {
                let end = offsets[fi][ii] + ilen(i);
                match i {
                    I::R(inst) => encode(inst, &mut code),
                    I::Call(t) => {
                        encode(
                            &Inst::Call { rel: (starts[*t] as i64 - end as i64) as i32 },
                            &mut code,
                        );
                    }
                    I::Jcc(cc, t) => {
                        let rel = (offsets[fi][*t] as i64 - end as i64) as i32;
                        encode(&Inst::Jcc { cc: *cc, rel }, &mut code);
                    }
                }
            }
        }
        code
    }

    fn mem(base: Option<Reg>, disp: i32) -> MemOperand {
        MemOperand { base, index: None, disp }
    }

    /// A star-shaped program: start calls `k` loop-heavy leaves in turn.
    /// Each leaf stores into the data window with a distinct constant.
    fn star_program(consts: &[u64]) -> Vec<u8> {
        let mut start: Vec<I> = Vec::new();
        for f in 1..=consts.len() {
            start.push(I::Call(f));
        }
        start.push(I::R(Inst::Halt));
        let mut funcs = vec![start];
        for &c in consts {
            funcs.push(vec![
                I::R(Inst::MovRI { dst: Reg::RAX, imm: 0 }),
                I::R(Inst::MovRI { dst: Reg::RBX, imm: 0x1000 + c }),
                // loop head (instruction 2)
                I::R(Inst::Store { mem: mem(Some(Reg::RBX), 0), src: Reg::RAX }),
                I::R(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 1 }),
                I::R(Inst::CmpRI { lhs: Reg::RAX, imm: 10 }),
                I::Jcc(CondCode::L, 2),
                I::R(Inst::Ret),
            ]);
        }
        assemble(&funcs)
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            store_lo: 0x1000,
            store_hi: 0x2000,
            stack_hi: 0x8000,
            stack_lo: 0x7000,
            opaque_imms: vec![],
            nonstack_imms: vec![],
        }
    }

    #[test]
    fn cold_and_warm_runs_match_from_scratch_analysis() {
        let code = star_program(&[3, 5, 7, 9]);
        let d = disassemble(&code, 0, &[]).unwrap();
        let oracle = Analysis::run(&d, config());
        let mut memo = AnalysisMemo::new();
        let (cold, r_cold) = run_incremental(&d, config(), &mut memo);
        assert_eq!(oracle.in_states, cold.in_states);
        assert_eq!(r_cold.groups_reused, 0);
        assert_eq!(r_cold.groups_recomputed, 5, "start + 4 leaves");
        let (warm, r_warm) = run_incremental(&d, config(), &mut memo);
        assert_eq!(oracle.in_states, warm.in_states);
        assert_eq!(r_warm.groups_recomputed, 0);
        assert_eq!(r_warm.groups_reused, 5);
        assert_eq!(r_warm.balance_misses, 0, "balance verdicts all memoized");
    }

    #[test]
    fn one_leaf_patch_invalidates_only_that_leaf() {
        let base = star_program(&[3, 5, 7, 9]);
        let patched = star_program(&[3, 5, 7, 11]);
        assert_eq!(base.len(), patched.len(), "same-length patch keeps offsets stable");
        let mut memo = AnalysisMemo::new();
        let d = disassemble(&base, 0, &[]).unwrap();
        let _ = run_incremental(&d, config(), &mut memo);
        let dp = disassemble(&patched, 0, &[]).unwrap();
        let (a, r) = run_incremental(&dp, config(), &mut memo);
        assert_eq!(a.in_states, Analysis::run(&dp, config()).in_states);
        assert_eq!(r.groups_recomputed, 1, "only the patched leaf re-runs: {r:?}");
        assert_eq!(r.groups_reused, 4);
        let reused_idx: Vec<usize> = (0..r.reused.len()).filter(|&g| !r.reused[g]).collect();
        assert_eq!(reused_idx.len(), 1);
    }

    #[test]
    fn config_change_invalidates_everything() {
        let code = star_program(&[3, 5]);
        let d = disassemble(&code, 0, &[]).unwrap();
        let mut memo = AnalysisMemo::new();
        let _ = run_incremental(&d, config(), &mut memo);
        let wider = AnalysisConfig { store_hi: 0x3000, ..config() };
        let (a, r) = run_incremental(&d, wider.clone(), &mut memo);
        assert_eq!(a.in_states, Analysis::run(&d, wider).in_states);
        assert_eq!(r.groups_reused, 0);
    }
}
