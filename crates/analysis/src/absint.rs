//! The abstract interpreter: forward interval dataflow over the 16
//! GPRs plus an abstract stack.
//!
//! # Domain
//!
//! A register holds an [`AVal`]:
//!
//! * `Val(iv)` — the value, viewed as signed 64-bit, lies in `iv`;
//! * `Stack(iv)` — the value equals `stack_hi + d` for some `d ∈ iv`
//!   (a stack pointer, tracked symbolically so frame arithmetic stays
//!   exact without knowing absolute addresses early);
//! * `Top` — anything.
//!
//! The abstract stack maps frame slot deltas (relative to the initial
//! `rsp`, which the runtime pins to `stack_hi`) to tracked values, so
//! spills, `push`/`pop` pairs and DCL frame locals keep their ranges.
//! Every possibly-aliasing store invalidates overlapping slots; a
//! store through `Top` clears the whole abstract stack.
//!
//! # Branch refinement
//!
//! `cmp`-then-`jcc` refines the compared value on both outgoing
//! edges. Because the DCL compiler materialises conditions through
//! `setcc` (then tests the 0/1 result), the interpreter also tracks
//! one level of boolean provenance: `setcc cc` after a `cmp` tags the
//! destination with that comparison, and a later `cmp reg, 0; je/jne`
//! re-applies (or negates) the original condition. Combined with slot
//! provenance — a register remembers which frame slot it was loaded
//! from — this bounds compiled loop counters: widening on retreating
//! edges forces termination, and the guard refinement narrows the
//! widened range back inside the loop body.
//!
//! # Fixpoint
//!
//! One engine (`Solver`) serves every fixpoint the analysis runs: the
//! stack-balance proofs, the whole-program projected pre-pass and the
//! per-function passes. Each is a LIFO worklist from explicit seeds,
//! widening on merges along edges that retreat in reverse postorder;
//! all but the pre-pass then run a bounded narrowing pass from the same
//! seeds.
//!
//! All transfer functions over-approximate the wrapping semantics of
//! the VM: interval arithmetic is checked in `i128` and any possible
//! wrap, fault or untracked effect degrades to `Top`.

use crate::cfg::{Cfg, Edge, EdgeKind};
use crate::interval::Interval;
use deflection_isa::{AluOp, CondCode, Disassembly, Inst, MemOperand, Reg};
use std::collections::BTreeSet;

const RSP: usize = Reg::RSP as usize;
const RBP: usize = Reg::RBP as usize;
/// Changes at a block before merges along retreating edges into it widen.
const WIDEN_AFTER: u32 = 3;
/// Changes at *any* block before every merge into it widens: a
/// defensive bound on top of the retreating-edge rule, which alone
/// already cuts every cycle.
const FORCE_WIDEN_AFTER: u32 = 64;
/// Upper bound on tracked frame slots per state (degrades to `Top`
/// beyond, keeping state sizes bounded on adversarial input).
const MAX_SLOTS: usize = 512;
/// Decreasing (narrowing) rounds run after each group fixpoint
/// converges; two rounds settle every widened counter the guard
/// refinement can bound (one to pull the head state down, one to
/// propagate it).
const NARROW_ROUNDS: u32 = 2;

/// Configuration shared verbatim by producer and verifier — both sides
/// must analyse under identical parameters to reach identical verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Inclusive lower bound of the P1 data window.
    pub store_lo: u64,
    /// Exclusive upper bound of the P1 data window.
    pub store_hi: u64,
    /// Initial `rsp` (one past the top of the stack region); the base
    /// all `AVal::Stack` deltas are relative to.
    pub stack_hi: u64,
    /// Inclusive lower bound of the stack region. A store through a
    /// *known absolute* address entirely below this line cannot alias
    /// any frame slot (frame slots live in the stack region; a store
    /// into the guard page faults, making its post-state unreachable).
    pub stack_lo: u64,
    /// Immediates the analysis must treat as unknown (`Top`): the
    /// annotation placeholder values the in-enclave rewriter patches
    /// after verification. Treating them as opaque makes one analysis
    /// sound for both the pre-rewrite and post-rewrite binary.
    pub opaque_imms: Vec<u64>,
    /// The subset of opaque immediates that are additionally known to
    /// be patched to addresses *outside the stack region* (runtime
    /// structures: AEX slot, SSA marker, shadow-stack slot, branch
    /// table). A store through such a pointer cannot alias any frame
    /// slot, so the abstract stack survives it — without this fact the
    /// per-block AEX probes would clear every loop counter's slot.
    pub nonstack_imms: Vec<u64>,
}

/// An abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AVal {
    /// Any value.
    #[default]
    Top,
    /// Signed-64 view of the value lies in the interval.
    Val(Interval),
    /// `stack_hi + d` for some `d` in the interval.
    Stack(Interval),
    /// Unknown value that, used as an address, lies entirely outside
    /// the stack region (a placeholder the rewriter patches to a
    /// runtime-structure address). Stores through it cannot alias
    /// frame slots; loads through it yield `Top`.
    NonStack,
    /// The value `rbp` held at the analysed function's entry. Used only
    /// by the stack-balance pre-analysis (`balanced_entries`): the
    /// token is *unforgeable* — no instruction produces it (every
    /// arithmetic transfer on it degrades to `Top`), it only moves
    /// through register copies and exact frame-slot round trips — so
    /// `rbp == EntryRbp` at a `ret` proves the callee restored the
    /// caller's frame pointer on every path.
    EntryRbp,
}

impl AVal {
    /// An exact known constant (signed-64 view).
    #[must_use]
    pub fn exact(v: i64) -> AVal {
        AVal::Val(Interval::exact(v))
    }

    /// Least upper bound.
    #[must_use]
    pub fn join(self, other: AVal) -> AVal {
        match (self, other) {
            (AVal::Val(a), AVal::Val(b)) => AVal::Val(a.join(b)),
            (AVal::Stack(a), AVal::Stack(b)) => AVal::Stack(a.join(b)),
            (AVal::NonStack, AVal::NonStack) => AVal::NonStack,
            (AVal::EntryRbp, AVal::EntryRbp) => AVal::EntryRbp,
            _ => AVal::Top,
        }
    }

    /// Widened join: interval bounds that grew jump to the extremes.
    #[must_use]
    pub fn widen(self, next: AVal) -> AVal {
        match (self, next) {
            (AVal::Val(a), AVal::Val(b)) => AVal::Val(a.widen(b)),
            (AVal::Stack(a), AVal::Stack(b)) => AVal::Stack(a.widen(b)),
            (AVal::NonStack, AVal::NonStack) => AVal::NonStack,
            (AVal::EntryRbp, AVal::EntryRbp) => AVal::EntryRbp,
            _ => AVal::Top,
        }
    }

    /// Narrowing operator for the decreasing rounds that follow the
    /// widened fixpoint: endpoints the widening blew out to ±∞ are
    /// replaced by the recomputed (sound, post-fixpoint) bound, finite
    /// endpoints are kept. Mixing components of two sound
    /// over-approximations stays sound — every concrete state satisfies
    /// both conjuncts — and only infinite endpoints ever change, so the
    /// rounds terminate trivially.
    #[must_use]
    pub fn narrow(self, recomputed: AVal) -> AVal {
        match (self, recomputed) {
            (AVal::Top, r) => r,
            (AVal::Val(a), AVal::Val(b)) => AVal::Val(a.narrow(b)),
            (AVal::Stack(a), AVal::Stack(b)) => AVal::Stack(a.narrow(b)),
            (a, _) => a,
        }
    }

    /// The inclusive range of possible concrete `u64` values, when the
    /// abstraction pins one down. `Val` ranges must be non-negative
    /// (a negative signed bound means a huge unsigned value, useless
    /// for an in-window proof); `Stack` deltas are resolved against
    /// `stack_hi`.
    #[must_use]
    pub fn abs_range(self, stack_hi: u64) -> Option<(u64, u64)> {
        match self {
            AVal::Top | AVal::NonStack | AVal::EntryRbp => None,
            AVal::Val(iv) => (iv.lo >= 0).then_some((iv.lo as u64, iv.hi as u64)),
            AVal::Stack(iv) => {
                let lo = stack_hi as i128 + iv.lo as i128;
                let hi = stack_hi as i128 + iv.hi as i128;
                let lo = u64::try_from(lo).ok()?;
                let hi = u64::try_from(hi).ok()?;
                Some((lo, hi))
            }
        }
    }
}

/// A value plus its slot provenance: `origin == Some(d)` asserts the
/// value equals the *current* content of frame slot `d`. Maintained by
/// clearing the origin whenever slot `d` is (possibly) overwritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Tracked {
    val: AVal,
    origin: Option<i64>,
}

impl Tracked {
    /// Join (or widened join); the origin survives only where both agree.
    fn merge(self, b: Tracked, widen: bool) -> Tracked {
        let joined = self.val.join(b.val);
        let val = if widen { self.val.widen(joined) } else { joined };
        Tracked { val, origin: if self.origin == b.origin { self.origin } else { None } }
    }
}

/// Upper bound on relational facts tracked per state.
const MAX_RELS: usize = 8;

/// A symbolic upper bound between two frame slots, learned at a
/// guarded branch: `slots[sub_slot] <= slots[bound_slot] + add`
/// (signed). The fact is dropped the moment either slot's content may
/// change; while it lives, a later refinement of the *bound* slot
/// transfers to the subject — the difference-bound step that proves
/// loop counters compared against a runtime-clamped limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RelFact {
    sub_slot: i64,
    bound_slot: i64,
    add: i64,
}

/// The per-program-point abstract state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    regs: [Tracked; 16],
    /// Frame slot delta (relative to `stack_hi`) -> content, sorted by
    /// delta: a clone is one allocation and lookups binary-search.
    slots: Vec<(i64, Tracked)>,
    /// Sorted, deduplicated difference bounds between frame slots.
    rels: Vec<RelFact>,
}

impl AbsState {
    /// State at the program entry point: the runtime zeroes registers
    /// and sets `rsp = stack_hi`; we only rely on the latter.
    fn entry() -> AbsState {
        let mut s = AbsState { regs: Default::default(), slots: Vec::new(), rels: Vec::new() };
        s.regs[RSP] = Tracked { val: AVal::Stack(Interval::exact(0)), origin: None };
        s
    }

    /// Post-call state: the callee may clobber every register and every
    /// stack slot (`pop rbp` and `rsp` pivots included — the shadow
    /// stack pins the return *target*, not the returning frame layout).
    fn havoc() -> AbsState {
        AbsState { regs: Default::default(), slots: Vec::new(), rels: Vec::new() }
    }

    /// Seed for the stack-balance pre-analysis of one function: `rsp`
    /// points at the freshly pushed return address (entry-relative
    /// offset 0), `rbp` holds the unforgeable caller token, and the
    /// caller's frame contents are unknown.
    fn balance_entry() -> AbsState {
        let mut s = AbsState::havoc();
        s.regs[RSP] = Tracked { val: AVal::Stack(Interval::exact(0)), origin: None };
        s.regs[RBP] = Tracked { val: AVal::EntryRbp, origin: None };
        s
    }

    /// Records `slots[sub] <= slots[bound] + add`, keeping the fact
    /// vector sorted, deduplicated and capped.
    fn add_rel(&mut self, sub: i64, bound: i64, add: i64) {
        if sub == bound {
            return;
        }
        let fact = RelFact { sub_slot: sub, bound_slot: bound, add };
        if let Err(at) = self.rels.binary_search(&fact) {
            if self.rels.len() < MAX_RELS {
                self.rels.insert(at, fact);
            }
        }
    }

    /// Drops every relational fact that mentions slot `d`.
    fn scrub_rels(&mut self, d: i64) {
        self.rels.retain(|f| f.sub_slot != d && f.bound_slot != d);
    }

    /// The content of frame slot `d`, when tracked.
    fn slot(&self, d: i64) -> Option<&Tracked> {
        self.slots.binary_search_by_key(&d, |&(k, _)| k).ok().map(|i| &self.slots[i].1)
    }

    fn reg(&self, r: Reg) -> Tracked {
        self.regs[r.index() as usize]
    }

    fn set_reg(&mut self, flags: &mut LocalFlags, r: Reg, val: AVal, origin: Option<i64>) {
        self.regs[r.index() as usize] = Tracked { val, origin };
        flags.scrub_reg(r.index());
    }

    /// Drops `origin == Some(d)` everywhere (slot `d`'s content changed).
    fn clear_origin(&mut self, d: i64) {
        for t in &mut self.regs {
            if t.origin == Some(d) {
                t.origin = None;
            }
        }
        for (_, t) in &mut self.slots {
            if t.origin == Some(d) {
                t.origin = None;
            }
        }
    }

    /// Forgets every slot overlapping the byte deltas `[lo, end)`, with
    /// the origins and facts that name it; returns where the first
    /// forgotten slot stood (the sorted insertion point for `lo`).
    fn invalidate(&mut self, flags: &mut LocalFlags, lo: i128, end: i128) -> usize {
        let at = self.slots.partition_point(|&(k, _)| i128::from(k) + 8 <= lo);
        let to = self.slots.partition_point(|&(k, _)| i128::from(k) < end);
        for (k, _) in self.slots.drain(at..to).collect::<Vec<_>>() {
            self.clear_origin(k);
            self.scrub_rels(k);
            flags.scrub_slot(k);
        }
        at
    }

    /// Models a store of `size` bytes through `addr`.
    fn write_mem(
        &mut self,
        flags: &mut LocalFlags,
        addr: AVal,
        size: i64,
        value: AVal,
        origin: Option<i64>,
        config: &AnalysisConfig,
    ) {
        // Exact 8-byte stack store: strong update.
        if size == 8 {
            if let AVal::Stack(iv) = addr {
                if let Some(d) = iv.as_exact() {
                    let at = self.invalidate(flags, i128::from(d), i128::from(d) + 8);
                    self.scrub_rels(d);
                    let origin = origin.filter(|&o| o != d);
                    if self.slots.len() < MAX_SLOTS {
                        self.slots.insert(at, (d, Tracked { val: value, origin }));
                    }
                    return;
                }
            }
        }
        // A store through a provably non-stack pointer cannot touch any
        // frame slot: nothing to invalidate.
        if addr == AVal::NonStack {
            return;
        }
        // A store through a known absolute address wholly below the
        // stack region cannot alias any frame slot either (and in the
        // frame-relative balance analysis, absolute addresses cannot be
        // compared against entry-relative slot keys at all, so anything
        // that may reach the stack must clear everything).
        if let AVal::Val(iv) = addr {
            if iv.lo >= 0 && (iv.hi as i128 + size as i128) <= config.stack_lo as i128 {
                return;
            }
        }
        // Weak update: invalidate every slot the store may touch (all of
        // them, and every fact, when the address is not stack-relative).
        let (lo, end) = match addr {
            AVal::Stack(iv) => (i128::from(iv.lo), i128::from(iv.hi) + i128::from(size)),
            _ => {
                self.rels.clear();
                (i128::MIN, i128::MAX)
            }
        };
        self.invalidate(flags, lo, end);
    }

    /// Models an 8-byte load through `addr`.
    fn read_mem(&self, addr: AVal) -> Tracked {
        if let AVal::Stack(iv) = addr {
            if let Some(d) = iv.as_exact() {
                return match self.slot(d) {
                    Some(t) => Tracked { val: t.val, origin: t.origin.or(Some(d)) },
                    None => Tracked { val: AVal::Top, origin: Some(d) },
                };
            }
        }
        Tracked::default()
    }

    /// The register's value, tightened by any relational fact about
    /// the frame slot it was loaded from: with `reg == slots[s]` and
    /// `slots[s] <= slots[b] + add`, a finite upper bound on slot `b`
    /// transfers to the register.
    fn tightened(&self, r: Reg) -> AVal {
        let t = self.reg(r);
        let Some(s) = t.origin else { return t.val };
        let mut val = t.val;
        for f in self.rels.iter().filter(|f| f.sub_slot == s) {
            let Some(AVal::Val(biv)) = self.slot(f.bound_slot).map(|b| b.val) else {
                continue;
            };
            if biv.hi == i64::MAX {
                continue;
            }
            let Some(cons) = bounded_above(biv.hi as i128 + f.add as i128) else { continue };
            val = match val {
                AVal::Top => AVal::Val(cons),
                AVal::Val(civ) => civ.meet(cons).map_or(val, AVal::Val),
                other => other,
            };
        }
        val
    }

    /// Effective-address evaluation for `base + index*scale + disp`.
    fn eval_addr(&self, mem: &MemOperand) -> AVal {
        let mut acc = AVal::exact(i64::from(mem.disp));
        if let Some(b) = mem.base {
            acc = aval_add(acc, self.tightened(b));
        }
        if let Some((r, scale)) = mem.index {
            let idx = self.tightened(r);
            let scaled = match idx {
                AVal::Top | AVal::NonStack | AVal::EntryRbp => AVal::Top,
                AVal::Val(iv) => iv.mul_const(i64::from(scale)).map_or(AVal::Top, AVal::Val),
                AVal::Stack(iv) if scale == 1 => AVal::Stack(iv),
                AVal::Stack(_) => AVal::Top,
            };
            acc = aval_add(acc, scaled);
        }
        acc
    }

    /// Join (or widened join) with an incoming state.
    fn merge(&self, incoming: &AbsState, widen: bool) -> AbsState {
        let regs = std::array::from_fn(|i| self.regs[i].merge(incoming.regs[i], widen));
        // Only slots tracked on both paths survive: one ordered walk over
        // both sorted vectors, so the result is sorted too.
        let mut slots = Vec::with_capacity(self.slots.len().min(incoming.slots.len()));
        let mut theirs = incoming.slots.iter().peekable();
        for &(k, a) in &self.slots {
            while theirs.next_if(|&&(j, _)| j < k).is_some() {}
            if let Some(&(_, b)) = theirs.next_if(|&&(j, _)| j == k) {
                slots.push((k, a.merge(b, widen)));
            }
        }
        // Facts are conjuncts: only those that hold on both paths
        // survive the join (both vectors are sorted, so this is a
        // linear intersection kept sorted for state equality).
        let rels =
            self.rels.iter().filter(|f| incoming.rels.binary_search(f).is_ok()).copied().collect();
        AbsState { regs, slots, rels }
    }

    /// One narrowing step: `self` is the widened fixpoint in-state,
    /// `recomputed` is the same in-state recomputed as a plain join of
    /// its (sound, post-fixpoint) edge contributions. Component-wise
    /// [`AVal::narrow`]; slots and facts absent from the recomputation
    /// keep their widened entry — both states over-approximate every
    /// concrete state reaching the block, so each kept conjunct stays
    /// sound.
    fn narrow(&self, recomputed: &AbsState) -> AbsState {
        let mut regs = self.regs;
        for (i, t) in regs.iter_mut().enumerate() {
            t.val = t.val.narrow(recomputed.regs[i].val);
        }
        let mut slots = self.slots.clone();
        for (k, t) in &mut slots {
            if let Some(r) = recomputed.slot(*k) {
                t.val = t.val.narrow(r.val);
            }
        }
        AbsState { regs, slots, rels: self.rels.clone() }
    }
}

/// Which value a comparison constrained — the refinement target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Subject {
    Reg(u8),
    Slot(i64),
}

impl Subject {
    fn as_slot(&self) -> Option<i64> {
        match self {
            Subject::Slot(d) => Some(*d),
            Subject::Reg(_) => None,
        }
    }
}

/// Snapshot of one `cmp`: the compared abstract values plus every
/// subject (register or provenance slot) each side constrains. A
/// subject is scrubbed as soon as the underlying location changes, so
/// a surviving subject is still equal to the compared value when the
/// branch finally tests the flags.
#[derive(Debug, Clone, Default, PartialEq)]
struct CmpSnap {
    lhs_subs: Vec<Subject>,
    rhs_subs: Vec<Subject>,
    lhs: AVal,
    rhs: AVal,
}

#[derive(Debug, Clone, Default, PartialEq)]
enum FlagState {
    #[default]
    Unknown,
    /// Flags hold `cmp lhs, rhs`.
    Cmp(CmpSnap),
    /// Flags hold `cmp b, 0` where `b` is the 0/1 result of `setcc cc`
    /// over `snap` — i.e. `jne` re-asserts `cc`, `je` asserts `!cc`.
    Bool { snap: CmpSnap, cc: CondCode },
}

/// Block-local flag tracking (flags never survive a block boundary;
/// the compiler always tests them adjacent to the `cmp`).
#[derive(Debug, Clone, Default)]
struct LocalFlags {
    flag: FlagState,
    /// `setcc` results: register -> the comparison it reifies.
    bool_preds: Vec<(u8, CmpSnap, CondCode)>,
}

impl LocalFlags {
    fn scrub_reg(&mut self, r: u8) {
        self.bool_preds.retain(|(b, _, _)| *b != r);
        let drop = |s: &mut Vec<Subject>| s.retain(|x| *x != Subject::Reg(r));
        self.for_each_snap(drop);
    }

    fn scrub_slot(&mut self, d: i64) {
        let drop = |s: &mut Vec<Subject>| s.retain(|x| *x != Subject::Slot(d));
        self.for_each_snap(drop);
    }

    fn for_each_snap(&mut self, f: impl Fn(&mut Vec<Subject>)) {
        match &mut self.flag {
            FlagState::Unknown => {}
            FlagState::Cmp(snap) | FlagState::Bool { snap, .. } => {
                f(&mut snap.lhs_subs);
                f(&mut snap.rhs_subs);
            }
        }
        for (_, snap, _) in &mut self.bool_preds {
            f(&mut snap.lhs_subs);
            f(&mut snap.rhs_subs);
        }
    }

    fn bool_pred(&self, r: u8) -> Option<(&CmpSnap, CondCode)> {
        self.bool_preds.iter().find(|(b, _, _)| *b == r).map(|(_, s, c)| (s, *c))
    }
}

/// The analysis result: per-block fixpoint states over the CFG, plus
/// the queries the producer and verifier share.
#[derive(Debug)]
pub struct Analysis {
    cfg: Cfg,
    config: AnalysisConfig,
    in_states: Vec<Option<AbsState>>,
}

impl Analysis {
    /// Runs the fixpoint over a disassembly.
    ///
    /// The analysis is *function-modular*: a cheap pre-pass propagates
    /// only the projected `rsp`/`rbp` state across call and indirect
    /// edges, then each function's interval fixpoint runs on its own,
    /// seeded from the pre-pass at every cut edge. All of them run the one
    /// engine, `Solver`, over different members, seeds and edges.
    #[must_use]
    pub fn run(d: &Disassembly, config: AnalysisConfig) -> Analysis {
        let cfg = Cfg::build(d);
        let n = cfg.blocks.len();
        let mut rpo_pos = vec![usize::MAX; n];
        for (i, b) in cfg.reverse_postorder().into_iter().enumerate() {
            rpo_pos[b] = i;
        }

        // Group blocks by function: the closest function entry at or below
        // the block start (blocks below the first entry join group 0).
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

        // Seed set: the entry block plus every target of a cut edge. Each
        // seed is the pre-pass in-state, which over-approximates the
        // projection of every cross-group flow into that block.
        let mut seeded = vec![false; n];
        seeded[cfg.entry] = true;
        for (a, blk) in cfg.blocks.iter().enumerate() {
            for e in &blk.edges {
                if is_cut_edge(e.kind, group_of[a], group_of[e.to]) {
                    seeded[e.to] = true;
                }
            }
        }

        // Stack-balance pre-analysis: which callees provably restore
        // `rsp`/`rbp` on every return. Runs first so both the
        // projected pre-pass and the per-group fixpoints can keep the
        // caller's frame pointer alive across calls to proven callees.
        let solver =
            Solver { cfg: &cfg, config: &config, rpo_pos: &rpo_pos, group_of: Some(&group_of) };
        let balanced = balanced_entries(&solver, entries, &members, &seeded);

        // Pre-pass: whole-program fixpoint over states projected to
        // rsp/rbp at block boundaries — cheap, and exactly what a callee
        // inherits across a call edge that the verifier can rely on (the
        // paper's P2 window argument needs the stack depth, nothing else).
        // Its in-state at a block over-approximates the projection of every
        // full-analysis flow into that block, which makes it a sound seed.
        // The pre-pass ascends only: a narrowing round would re-execute
        // every block of the program for two-register states that rarely
        // widen (it cost a fifth of the analysis time when measured).
        let all: Vec<usize> = (0..n).collect();
        let projected = Solver { group_of: None, ..solver };
        let prepass = projected.ascend(&all, &[(cfg.entry, AbsState::entry())], &balanced);

        // Independent per-group fixpoints; every block belongs to exactly
        // one group.
        let mut in_states: Vec<Option<AbsState>> = vec![None; n];
        for group in &members {
            let seeds: Vec<(usize, AbsState)> = group
                .iter()
                .filter(|&&b| seeded[b])
                .filter_map(|&b| Some((b, prepass[b].clone()?)))
                .collect();
            for (b, s) in solver.solve(group, &seeds, &balanced) {
                in_states[b] = Some(s);
            }
        }
        Analysis { cfg, config, in_states }
    }

    /// The reconstructed control-flow graph.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The inclusive range of concrete addresses the store at `offset`
    /// can write to, when the analysis can bound it.
    #[must_use]
    pub fn store_addr_range(&self, offset: usize) -> Option<(u64, u64)> {
        let (state, _) = self.state_before(offset)?;
        let (_, inst) = self.inst_at(offset)?;
        let mem = *inst.stored_mem()?;
        state.eval_addr(&mem).abs_range(self.config.stack_hi)
    }

    /// Whether the store at `offset` provably stays inside the P1 data
    /// window `[store_lo, store_hi)` on every reachable execution.
    /// `false` for anything unprovable, unreachable, or not a store.
    #[must_use]
    pub fn store_safe(&self, offset: usize) -> bool {
        let Some((_, inst)) = self.inst_at(offset) else { return false };
        let size: u64 = match inst {
            Inst::Store { .. } | Inst::StoreImm { .. } => 8,
            Inst::Store8 { .. } => 1,
            _ => return false,
        };
        let Some(range) = self.store_addr_range(offset) else { return false };
        let (lo, hi) = range;
        lo >= self.config.store_lo && (hi as u128 + size as u128) <= self.config.store_hi as u128
    }

    /// The abstract value of `rsp` immediately *after* the instruction
    /// at `offset` executes (used to prove elided P2 guards: an
    /// explicit `rsp` write is safe if every possible result stays in
    /// the stack window). `None` when unreachable.
    #[must_use]
    pub fn rsp_after(&self, offset: usize) -> Option<AVal> {
        let (mut state, mut flags) = self.state_before(offset)?;
        let (_, inst) = self.inst_at(offset)?;
        step(&mut state, &mut flags, &inst, &self.config);
        Some(state.reg(Reg::RSP).val)
    }

    /// Resolves `stack_hi`-relative values for callers that need
    /// concrete ranges (e.g. the rsp-window check in the verifier).
    #[must_use]
    pub fn concrete_range(&self, v: AVal) -> Option<(u64, u64)> {
        v.abs_range(self.config.stack_hi)
    }

    fn inst_at(&self, offset: usize) -> Option<(usize, Inst)> {
        let b = self.cfg.block_containing(offset)?;
        self.cfg.blocks[b].insts.iter().find(|(o, _)| *o == offset).map(|&(o, i)| (o, i))
    }

    fn state_before(&self, offset: usize) -> Option<(AbsState, LocalFlags)> {
        let b = self.cfg.block_containing(offset)?;
        let mut state = self.in_states[b].clone()?;
        let mut flags = LocalFlags::default();
        for &(off, inst) in &self.cfg.blocks[b].insts {
            if off == offset {
                return Some((state, flags));
            }
            step(&mut state, &mut flags, &inst, &self.config);
        }
        None
    }
}

/// Executes a whole block from its in-state.
fn exec_block(
    cfg: &Cfg,
    b: usize,
    mut state: AbsState,
    config: &AnalysisConfig,
) -> (AbsState, LocalFlags) {
    let mut flags = LocalFlags::default();
    for &(_, inst) in &cfg.blocks[b].insts {
        step(&mut state, &mut flags, &inst, config);
    }
    (state, flags)
}

/// The direct-call target offset of `from`'s terminator, if any.
fn call_target(cfg: &Cfg, from: usize) -> Option<usize> {
    let &(_, Inst::Call { rel }) = cfg.blocks[from].insts.last()? else { return None };
    Some((cfg.blocks[from].end as i64 + i64::from(rel)) as usize)
}

/// Maps a block out-state across one outgoing edge. `balanced` holds
/// the entry offsets of functions proven stack-balanced (see
/// [`balanced_entries`]); a `CallFall` edge from a direct call to one
/// of them keeps the caller's `rsp`/`rbp`.
fn apply_edge(
    cfg: &Cfg,
    from: usize,
    out: &AbsState,
    flags: &LocalFlags,
    edge: &Edge,
    config: &AnalysisConfig,
    balanced: &BTreeSet<usize>,
) -> Option<AbsState> {
    match edge.kind {
        EdgeKind::Fall | EdgeKind::Jump | EdgeKind::Indirect => Some(out.clone()),
        EdgeKind::BranchTaken | EdgeKind::BranchFall => {
            let (_, last) = *cfg.blocks[from].insts.last()?;
            let Inst::Jcc { cc, .. } = last else { return Some(out.clone()) };
            let cond = if edge.kind == EdgeKind::BranchTaken { cc } else { cc.negate() };
            refine(out.clone(), flags, cond)
        }
        EdgeKind::CallTo => {
            // The call pushes a return address the analysis does not model.
            let mut s = out.clone();
            let mut scratch = LocalFlags::default();
            let rsp = s.reg(Reg::RSP).val;
            let new_rsp = aval_add(rsp, AVal::exact(-8));
            s.write_mem(&mut scratch, new_rsp, 8, AVal::Top, None, config);
            s.set_reg(&mut scratch, Reg::RSP, new_rsp, None);
            Some(s)
        }
        EdgeKind::CallFall => {
            // The callee may clobber every register and every stack
            // slot (its guarded stores may legally reach the whole P1
            // window, the caller's frame included) — but a callee
            // separately proven stack-balanced returns with the
            // caller's `rsp` and `rbp` values intact.
            let mut s = AbsState::havoc();
            if call_target(cfg, from).is_some_and(|t| balanced.contains(&t)) {
                s.regs[RSP] = Tracked { val: out.regs[RSP].val, origin: None };
                s.regs[RBP] = Tracked { val: out.regs[RBP].val, origin: None };
            }
            Some(s)
        }
    }
}

/// Projects a state down to the stack-shape facts (`rsp`/`rbp` values)
/// that are allowed to flow across function boundaries. Origins and
/// frame slots are dropped: a callee must not rely on the caller's
/// frame contents (the original analysis already havocs them on
/// return, so this loses nothing the queries could observe).
fn project(s: &AbsState) -> AbsState {
    let mut p = AbsState { regs: Default::default(), slots: Vec::new(), rels: Vec::new() };
    p.regs[RSP] = Tracked { val: s.regs[RSP].val, origin: None };
    p.regs[RBP] = Tracked { val: s.regs[RBP].val, origin: None };
    p
}

/// Byte offsets of function entries whose bodies provably restore the
/// stack discipline on every return: at each reachable `ret`, `rsp`
/// equals its entry value (still pointing at the pushed return
/// address) and `rbp` carries the caller's [`AVal::EntryRbp`] token,
/// round-tripped through the frame save slot. The proof runs
/// *entry-relative* — `Stack(0)` is the callee's own entry `rsp` — so
/// it holds for every call site at once. It is sound only under CFI
/// (the P5 shadow stack pins each `ret` to its call site), which is
/// exactly when the verifier consults analysis verdicts.
///
/// Verdicts grow over stratified rounds: round `k` may assume round
/// `k-1`'s verdicts at internal `CallFall` edges, so a (mutually)
/// recursive function can never certify itself. A group's verdict reads
/// nothing but the `balanced` set, which only grows, so a group that
/// failed is re-run only once the set has grown since that failure.
fn balanced_entries(
    solver: &Solver<'_>,
    entries: &[usize],
    members: &[Vec<usize>],
    seeded: &[bool],
) -> BTreeSet<usize> {
    let cfg = solver.cfg;
    let mut balanced = BTreeSet::new();
    // Per group: the size of `balanced` when the group last failed.
    let mut failed_at: Vec<Option<usize>> = vec![None; members.len()];
    loop {
        let mut grew = false;
        'groups: for (g, mem) in members.iter().enumerate() {
            let Some(&entry_off) = entries.get(g) else { continue };
            if balanced.contains(&entry_off) || failed_at[g] == Some(balanced.len()) {
                continue;
            }
            let Some(&eb) = mem.iter().find(|&&b| cfg.blocks[b].start == entry_off) else {
                continue;
            };
            // A cut edge into any non-entry member carries flows this
            // relative fixpoint cannot see; give up on the group.
            if mem.iter().any(|&b| seeded[b] && b != eb) {
                continue;
            }
            for (b, state) in solver.solve(mem, &[(eb, AbsState::balance_entry())], &balanced) {
                let Some(&(_, Inst::Ret)) = cfg.blocks[b].insts.last() else { continue };
                let (out, _) = exec_block(cfg, b, state, solver.config);
                if out.reg(Reg::RSP).val != AVal::Stack(Interval::exact(0))
                    || out.reg(Reg::RBP).val != AVal::EntryRbp
                {
                    failed_at[g] = Some(balanced.len());
                    continue 'groups;
                }
            }
            balanced.insert(entry_off);
            grew = true;
        }
        if !grew {
            return balanced;
        }
    }
}

/// Whether an edge crosses a group boundary and must therefore be
/// replaced by the pre-pass seed at its target. `CallTo`/`Indirect`
/// edges are always cut (they are the inter-procedural edges even when
/// both ends land in the same group, e.g. recursion); everything else
/// is cut exactly when it leaves the group. `CallFall` stays internal:
/// its transform (`AbsState::havoc`) ignores the input state entirely.
fn is_cut_edge(kind: EdgeKind, from_group: usize, to_group: usize) -> bool {
    matches!(kind, EdgeKind::CallTo | EdgeKind::Indirect) || from_group != to_group
}

/// The one fixpoint engine. `rpo_pos` holds each block's position in
/// [`Cfg::reverse_postorder`] (`usize::MAX` when the entry cannot reach
/// it). With `group_of`, a solve follows the intra-group edges at full
/// precision; without it, every edge, each flow projected to `rsp`/`rbp`
/// (the whole-program pre-pass).
struct Solver<'a> {
    cfg: &'a Cfg,
    config: &'a AnalysisConfig,
    rpo_pos: &'a [usize],
    group_of: Option<&'a [usize]>,
}

impl Solver<'_> {
    /// Executes block `b` from `state` and hands `f` the target and
    /// in-state of every edge this solve follows.
    fn successors(
        &self,
        b: usize,
        state: AbsState,
        balanced: &BTreeSet<usize>,
        mut f: impl FnMut(usize, AbsState),
    ) {
        let (out, flags) = exec_block(self.cfg, b, state, self.config);
        for edge in &self.cfg.blocks[b].edges {
            if self.group_of.is_some_and(|g| is_cut_edge(edge.kind, g[b], g[edge.to])) {
                continue;
            }
            let Some(next) = apply_edge(self.cfg, b, &out, &flags, edge, self.config, balanced)
            else {
                continue;
            };
            f(edge.to, if self.group_of.is_some() { next } else { project(&next) });
        }
    }

    /// The fixpoint over `members` (sorted block indices; every followed
    /// edge stays inside them) from the fixed `(block, in-state)` seeds:
    /// [`Solver::ascend`], then [`Solver::narrow`].
    fn solve(
        &self,
        members: &[usize],
        seeds: &[(usize, AbsState)],
        balanced: &BTreeSet<usize>,
    ) -> Vec<(usize, AbsState)> {
        let mut in_states = self.ascend(members, seeds, balanced);
        self.narrow(members, seeds, balanced, &mut in_states);
        members.iter().zip(in_states).filter_map(|(&b, s)| s.map(|s| (b, s))).collect()
    }

    /// The ascending worklist: in-states indexed like `members`.
    ///
    /// Callers list seeds in ascending block order, so the LIFO pop order —
    /// and with it the widening history — is a pure function of the
    /// problem's shape, and a group's result cannot depend on the order
    /// groups are solved in. A merge along a retreating edge widens once
    /// its target has changed [`WIDEN_AFTER`] times. Every cycle contains
    /// a retreating edge (no cycle can rise strictly in reverse
    /// postorder), so every ascending chain around a cycle passes a
    /// widening and the loop terminates; [`FORCE_WIDEN_AFTER`] bounds it
    /// regardless.
    fn ascend(
        &self,
        members: &[usize],
        seeds: &[(usize, AbsState)],
        balanced: &BTreeSet<usize>,
    ) -> Vec<Option<AbsState>> {
        let m = members.len();
        let mut in_states: Vec<Option<AbsState>> = vec![None; m];
        let mut visits: Vec<u32> = vec![0; m];
        let mut work: Vec<usize> = Vec::new();
        let mut queued = vec![false; m];
        for (b, seed) in seeds {
            let lb = member_index(members, *b);
            in_states[lb] = Some(seed.clone());
            work.push(lb);
            queued[lb] = true;
        }
        while let Some(lb) = work.pop() {
            queued[lb] = false;
            let b = members[lb];
            let Some(state) = in_states[lb].clone() else { continue };
            self.successors(b, state, balanced, |to, next| {
                let lt = member_index(members, to);
                let merged = match &in_states[lt] {
                    None => next,
                    Some(old) => {
                        let retreating = self.rpo_pos[b] >= self.rpo_pos[to];
                        let widen = (retreating && visits[lt] >= WIDEN_AFTER)
                            || visits[lt] >= FORCE_WIDEN_AFTER;
                        old.merge(&next, widen)
                    }
                };
                if in_states[lt].as_ref() != Some(&merged) {
                    in_states[lt] = Some(merged);
                    visits[lt] += 1;
                    if !queued[lt] {
                        queued[lt] = true;
                        work.push(lt);
                    }
                }
            });
        }
        in_states
    }

    /// Bounded narrowing of an ascended fixpoint: a fixed number of
    /// decreasing rounds recompute every in-state as the plain (unwidened)
    /// join of the seeds and the followed edges' contributions — computed
    /// Jacobi-style from the converged states, so the result is
    /// schedule-independent — and replace only the endpoints widening
    /// blew out (see [`AVal::narrow`]). This pulls loop-head counters
    /// back from `[0, MAX]` to the guarded range without re-running the
    /// ascending iteration. A round reads nothing but `in_states`, so
    /// after a round that narrowed nothing every further round would
    /// repeat it exactly: stop there.
    fn narrow(
        &self,
        members: &[usize],
        seeds: &[(usize, AbsState)],
        balanced: &BTreeSet<usize>,
        in_states: &mut [Option<AbsState>],
    ) {
        for _ in 0..NARROW_ROUNDS {
            let mut recomputed: Vec<Option<AbsState>> = vec![None; members.len()];
            for (b, seed) in seeds {
                recomputed[member_index(members, *b)] = Some(seed.clone());
            }
            for (la, &a) in members.iter().enumerate() {
                let Some(state) = in_states[la].clone() else { continue };
                self.successors(a, state, balanced, |to, next| {
                    let lt = member_index(members, to);
                    recomputed[lt] = Some(match recomputed[lt].take() {
                        None => next,
                        Some(acc) => acc.merge(&next, false),
                    });
                });
            }
            let mut narrowed = false;
            for (cur, rec) in in_states.iter_mut().zip(recomputed) {
                if let (Some(cur), Some(rec)) = (cur.as_mut(), rec) {
                    let next = cur.narrow(&rec);
                    narrowed |= next != *cur;
                    *cur = next;
                }
            }
            if !narrowed {
                break;
            }
        }
    }
}

/// Index of block `b` in the sorted `members` of a solve.
fn member_index(members: &[usize], b: usize) -> usize {
    members.binary_search(&b).expect("followed edges stay in members")
}

/// Applies the branch condition `cond` to the out-state.
/// `None` means the edge is infeasible.
fn refine(state: AbsState, flags: &LocalFlags, cond: CondCode) -> Option<AbsState> {
    match &flags.flag {
        FlagState::Unknown => Some(state),
        FlagState::Cmp(snap) => refine_with_snap(state, snap, cond),
        FlagState::Bool { snap, cc } => match cond {
            CondCode::E => refine_with_snap(state, snap, cc.negate()),
            CondCode::Ne => refine_with_snap(state, snap, *cc),
            _ => Some(state),
        },
    }
}

fn refine_with_snap(mut state: AbsState, snap: &CmpSnap, cond: CondCode) -> Option<AbsState> {
    for &sub in &snap.lhs_subs {
        if !apply_constraint(&mut state, sub, cond, snap.rhs) {
            return None;
        }
    }
    let swapped = swap_cond(cond);
    for &sub in &snap.rhs_subs {
        if !apply_constraint(&mut state, sub, swapped, snap.lhs) {
            return None;
        }
    }
    // A strict/affine order between two slot-backed values also yields
    // a symbolic bound that outlives the compared intervals: refining
    // the bound slot later (e.g. an in-loop clamp test) transfers to
    // the subject through [`AbsState::tightened`].
    let rel = match cond {
        CondCode::L => Some((&snap.lhs_subs, &snap.rhs_subs, -1)),
        CondCode::Le => Some((&snap.lhs_subs, &snap.rhs_subs, 0)),
        CondCode::G => Some((&snap.rhs_subs, &snap.lhs_subs, -1)),
        CondCode::Ge => Some((&snap.rhs_subs, &snap.lhs_subs, 0)),
        _ => None,
    };
    if let Some((subs, bounds, add)) = rel {
        for sub in subs.iter().filter_map(Subject::as_slot) {
            for bound in bounds.iter().filter_map(Subject::as_slot) {
                state.add_rel(sub, bound, add);
            }
        }
    }
    Some(state)
}

/// Narrows `subject` under `subject cond bound`; `false` = infeasible.
fn apply_constraint(state: &mut AbsState, subject: Subject, cond: CondCode, bound: AVal) -> bool {
    let cur = match subject {
        Subject::Reg(r) => state.regs[r as usize].val,
        Subject::Slot(d) => state.slot(d).map_or(AVal::Top, |t| t.val),
    };
    let refined = match refine_aval(cur, cond, bound) {
        Refined::Infeasible => return false,
        Refined::Unchanged => return true,
        Refined::To(v) => v,
    };
    match subject {
        Subject::Reg(r) => state.regs[r as usize].val = refined,
        Subject::Slot(d) => match state.slots.binary_search_by_key(&d, |&(k, _)| k) {
            Ok(i) => state.slots[i].1.val = refined,
            Err(i) => state.slots.insert(i, (d, Tracked { val: refined, origin: None })),
        },
    }
    true
}

enum Refined {
    Infeasible,
    Unchanged,
    To(AVal),
}

fn refine_aval(cur: AVal, cond: CondCode, bound: AVal) -> Refined {
    // Equality against a stack pointer transfers the representation.
    if cond == CondCode::E {
        if let AVal::Stack(biv) = bound {
            return match cur {
                AVal::Top => Refined::To(AVal::Stack(biv)),
                AVal::Stack(civ) => match civ.meet(biv) {
                    Some(m) => Refined::To(AVal::Stack(m)),
                    None => Refined::Infeasible,
                },
                AVal::Val(_) | AVal::NonStack | AVal::EntryRbp => Refined::Unchanged,
            };
        }
    }
    let AVal::Val(biv) = bound else { return Refined::Unchanged };
    let cur_iv = match cur {
        AVal::Val(iv) => Some(iv),
        AVal::Top => None,
        AVal::Stack(_) | AVal::NonStack | AVal::EntryRbp => return Refined::Unchanged,
    };
    // The constraint interval the subject must meet (signed view), or a
    // direct verdict for the cases that need extra care.
    let constraint: Option<Interval> = match cond {
        CondCode::E => Some(biv),
        CondCode::Ne => {
            // Only useful for shaving an exact endpoint.
            if let (Some(civ), Some(b)) = (cur_iv, biv.as_exact()) {
                if civ.as_exact() == Some(b) {
                    return Refined::Infeasible;
                }
                if civ.lo == b {
                    return Refined::To(AVal::Val(Interval::new(b + 1, civ.hi)));
                }
                if civ.hi == b {
                    return Refined::To(AVal::Val(Interval::new(civ.lo, b - 1)));
                }
            }
            return Refined::Unchanged;
        }
        CondCode::L => bounded_above(biv.hi as i128 - 1),
        CondCode::Le => bounded_above(biv.hi as i128),
        CondCode::G => bounded_below(biv.lo as i128 + 1),
        CondCode::Ge => bounded_below(biv.lo as i128),
        // Unsigned comparisons: sound only when the bound is known
        // non-negative (unsigned order then coincides with signed on
        // the constrained range). `x <u b` additionally proves `x >= 0`.
        CondCode::B if biv.lo >= 0 => {
            if biv.hi == 0 {
                return Refined::Infeasible; // x <u 0 is impossible
            }
            Some(Interval::new(0, biv.hi - 1))
        }
        CondCode::Be if biv.lo >= 0 => Some(Interval::new(0, biv.hi)),
        // `x >u b` only narrows an already-non-negative subject (a
        // negative signed x is a huge unsigned value satisfying it).
        CondCode::A if biv.lo >= 0 && cur_iv.is_some_and(|c| c.lo >= 0) => {
            bounded_below(biv.lo as i128 + 1)
        }
        CondCode::Ae if biv.lo >= 0 && cur_iv.is_some_and(|c| c.lo >= 0) => {
            bounded_below(biv.lo as i128)
        }
        _ => return Refined::Unchanged,
    };
    let Some(constraint) = constraint else { return Refined::Infeasible };
    match cur_iv {
        None => Refined::To(AVal::Val(constraint)),
        Some(civ) => match civ.meet(constraint) {
            Some(m) if m == civ => Refined::Unchanged,
            Some(m) => Refined::To(AVal::Val(m)),
            None => Refined::Infeasible,
        },
    }
}

/// `[MIN, hi]` clamped into `i64`, `None` when empty.
fn bounded_above(hi: i128) -> Option<Interval> {
    if hi < i64::MIN as i128 {
        return None;
    }
    Some(Interval::new(i64::MIN, hi.min(i64::MAX as i128) as i64))
}

/// `[lo, MAX]` clamped into `i64`, `None` when empty.
fn bounded_below(lo: i128) -> Option<Interval> {
    if lo > i64::MAX as i128 {
        return None;
    }
    Some(Interval::new(lo.max(i64::MIN as i128) as i64, i64::MAX))
}

/// `a cond b  <=>  b swap_cond(cond) a`.
fn swap_cond(cc: CondCode) -> CondCode {
    match cc {
        CondCode::E => CondCode::E,
        CondCode::Ne => CondCode::Ne,
        CondCode::L => CondCode::G,
        CondCode::G => CondCode::L,
        CondCode::Le => CondCode::Ge,
        CondCode::Ge => CondCode::Le,
        CondCode::B => CondCode::A,
        CondCode::A => CondCode::B,
        CondCode::Be => CondCode::Ae,
        CondCode::Ae => CondCode::Be,
    }
}

fn aval_add(a: AVal, b: AVal) -> AVal {
    match (a, b) {
        (AVal::Val(x), AVal::Val(y)) => x.add(y).map_or(AVal::Top, AVal::Val),
        (AVal::Stack(x), AVal::Val(y)) | (AVal::Val(y), AVal::Stack(x)) => {
            x.add(y).map_or(AVal::Top, AVal::Stack)
        }
        // Displacement 0 off a non-stack pointer is still non-stack;
        // any other offset could land anywhere.
        (AVal::NonStack, AVal::Val(y)) | (AVal::Val(y), AVal::NonStack)
            if y.as_exact() == Some(0) =>
        {
            AVal::NonStack
        }
        _ => AVal::Top,
    }
}

fn aval_sub(a: AVal, b: AVal) -> AVal {
    match (a, b) {
        (AVal::Val(x), AVal::Val(y)) => x.sub(y).map_or(AVal::Top, AVal::Val),
        (AVal::Stack(x), AVal::Val(y)) => x.sub(y).map_or(AVal::Top, AVal::Stack),
        (AVal::Stack(x), AVal::Stack(y)) => x.sub(y).map_or(AVal::Top, AVal::Val),
        _ => AVal::Top,
    }
}

/// Mirrors `Cpu`'s exact ALU semantics on known constants; `None` for
/// the faulting cases (divide by zero, `MIN / -1`) — the post-state of
/// a faulting instruction is unreachable, so `Top` is sound there.
fn alu_exact(op: AluOp, x: u64, y: u64) -> Option<u64> {
    Some(match op {
        AluOp::Add => x.wrapping_add(y),
        AluOp::Sub => x.wrapping_sub(y),
        AluOp::And => x & y,
        AluOp::Or => x | y,
        AluOp::Xor => x ^ y,
        AluOp::Shl => x.wrapping_shl((y & 63) as u32),
        AluOp::Shr => x.wrapping_shr((y & 63) as u32),
        AluOp::Sar => ((x as i64) >> (y & 63)) as u64,
        AluOp::Mul => x.wrapping_mul(y),
        AluOp::UDiv => {
            if y == 0 {
                return None;
            }
            x / y
        }
        AluOp::SDiv => {
            let (a, b) = (x as i64, y as i64);
            if b == 0 || (a == i64::MIN && b == -1) {
                return None;
            }
            (a / b) as u64
        }
        AluOp::URem => {
            if y == 0 {
                return None;
            }
            x % y
        }
        AluOp::SRem => {
            let (a, b) = (x as i64, y as i64);
            if b == 0 || (a == i64::MIN && b == -1) {
                return None;
            }
            (a % b) as u64
        }
    })
}

fn alu_transfer(op: AluOp, a: AVal, b: AVal) -> AVal {
    // Exact-exact: mirror the machine bit-for-bit.
    if let (AVal::Val(x), AVal::Val(y)) = (a, b) {
        if let (Some(xv), Some(yv)) = (x.as_exact(), y.as_exact()) {
            return match alu_exact(op, xv as u64, yv as u64) {
                Some(r) => AVal::exact(r as i64),
                None => AVal::Top,
            };
        }
    }
    match op {
        AluOp::Add => aval_add(a, b),
        AluOp::Sub => aval_sub(a, b),
        AluOp::And => {
            // `x & m` with a non-negative mask is in [0, m] regardless
            // of x — the workhorse for index clamping.
            let mask = match (a, b) {
                (_, AVal::Val(m)) if m.lo >= 0 => Some(m.hi),
                (AVal::Val(m), _) if m.lo >= 0 => Some(m.hi),
                _ => None,
            };
            mask.map_or(AVal::Top, |m| AVal::Val(Interval::new(0, m)))
        }
        AluOp::Mul => match (a, b) {
            (AVal::Val(x), AVal::Val(y)) => {
                let c = y.as_exact().map(|c| (x, c)).or_else(|| x.as_exact().map(|c| (y, c)));
                match c {
                    Some((iv, c)) => iv.mul_const(c).map_or(AVal::Top, AVal::Val),
                    None => AVal::Top,
                }
            }
            _ => AVal::Top,
        },
        AluOp::Shr => match (a, b) {
            // Logical shift of a non-negative value is monotone.
            (AVal::Val(x), AVal::Val(y)) if x.lo >= 0 => match y.as_exact() {
                Some(k) => {
                    let k = (k as u64 & 63) as u32;
                    AVal::Val(Interval::new(x.lo >> k, x.hi >> k))
                }
                None => AVal::Top,
            },
            _ => AVal::Top,
        },
        AluOp::Sar => match (a, b) {
            (AVal::Val(x), AVal::Val(y)) => match y.as_exact() {
                Some(k) => {
                    let k = (k as u64 & 63) as u32;
                    AVal::Val(Interval::new(x.lo >> k, x.hi >> k))
                }
                None => AVal::Top,
            },
            _ => AVal::Top,
        },
        AluOp::Shl => match (a, b) {
            (AVal::Val(x), AVal::Val(y)) if x.lo >= 0 => match y.as_exact() {
                Some(k) => {
                    let k = (k as u64 & 63) as u32;
                    let lo = (x.lo as i128) << k;
                    let hi = (x.hi as i128) << k;
                    Interval::from_i128(lo, hi).map_or(AVal::Top, AVal::Val)
                }
                None => AVal::Top,
            },
            _ => AVal::Top,
        },
        AluOp::UDiv => match (a, b) {
            (AVal::Val(x), AVal::Val(y)) if x.lo >= 0 => match y.as_exact() {
                Some(c) if c > 0 => AVal::Val(Interval::new(x.lo / c, x.hi / c)),
                _ => AVal::Top,
            },
            _ => AVal::Top,
        },
        _ => AVal::Top,
    }
}

/// One instruction's abstract transfer function.
fn step(state: &mut AbsState, flags: &mut LocalFlags, inst: &Inst, config: &AnalysisConfig) {
    match *inst {
        Inst::Nop | Inst::Halt | Inst::Abort { .. } => {}
        // Control transfers are modelled on edges, not in the step.
        Inst::Jmp { .. }
        | Inst::Jcc { .. }
        | Inst::JmpInd { .. }
        | Inst::Call { .. }
        | Inst::CallInd { .. }
        | Inst::Ret => {}
        Inst::Ocall { .. } | Inst::AexProbe => {
            // The wrapper returns a result in rax; nothing else in the
            // tracked state changes (host writes land outside the stack).
            state.set_reg(flags, Reg::RAX, AVal::Top, None);
        }
        Inst::MovRR { dst, src } => {
            let t = state.reg(src);
            state.set_reg(flags, dst, t.val, t.origin);
        }
        Inst::MovRI { dst, imm } => {
            let val = if config.nonstack_imms.contains(&imm) {
                AVal::NonStack
            } else if config.opaque_imms.contains(&imm) {
                AVal::Top
            } else {
                AVal::exact(imm as i64)
            };
            state.set_reg(flags, dst, val, None);
        }
        Inst::Lea { dst, mem } => {
            let v = state.eval_addr(&mem);
            state.set_reg(flags, dst, v, None);
        }
        Inst::Load { dst, mem } => {
            let addr = state.eval_addr(&mem);
            let t = state.read_mem(addr);
            state.set_reg(flags, dst, t.val, t.origin);
        }
        Inst::Load8 { dst, .. } => {
            state.set_reg(flags, dst, AVal::Val(Interval::new(0, 255)), None);
        }
        Inst::Store { mem, src } => {
            let addr = state.eval_addr(&mem);
            let t = state.reg(src);
            state.write_mem(flags, addr, 8, t.val, t.origin, config);
            // After an exact stack store the source register equals the
            // freshly written slot.
            if let AVal::Stack(iv) = addr {
                if let Some(d) = iv.as_exact() {
                    state.regs[src.index() as usize].origin = Some(d);
                }
            }
        }
        Inst::Store8 { mem, .. } => {
            let addr = state.eval_addr(&mem);
            state.write_mem(flags, addr, 1, AVal::Top, None, config);
        }
        Inst::StoreImm { mem, imm } => {
            let addr = state.eval_addr(&mem);
            state.write_mem(flags, addr, 8, AVal::exact(i64::from(imm)), None, config);
        }
        Inst::Push { reg } => {
            let t = state.reg(reg);
            let new_rsp = aval_add(state.reg(Reg::RSP).val, AVal::exact(-8));
            state.write_mem(flags, new_rsp, 8, t.val, t.origin, config);
            state.set_reg(flags, Reg::RSP, new_rsp, None);
        }
        Inst::Pop { reg } => {
            let rsp = state.reg(Reg::RSP).val;
            let t = state.read_mem(rsp);
            if reg == Reg::RSP {
                // The increment is overwritten by the popped value.
                state.set_reg(flags, Reg::RSP, t.val, t.origin);
            } else {
                let new_rsp = aval_add(rsp, AVal::exact(8));
                state.set_reg(flags, Reg::RSP, new_rsp, None);
                state.set_reg(flags, reg, t.val, t.origin);
            }
        }
        Inst::AluRR { op, dst, src } => {
            let v = alu_transfer(op, state.reg(dst).val, state.reg(src).val);
            state.set_reg(flags, dst, v, None);
            flags.flag = FlagState::Unknown;
        }
        Inst::AluRI { op, dst, imm } => {
            let v = alu_transfer(op, state.reg(dst).val, AVal::exact(imm));
            state.set_reg(flags, dst, v, None);
            flags.flag = FlagState::Unknown;
        }
        Inst::Neg { reg } => {
            let v = match state.reg(reg).val {
                AVal::Val(iv) => iv.neg().map_or(AVal::Top, AVal::Val),
                _ => AVal::Top,
            };
            state.set_reg(flags, reg, v, None);
            flags.flag = FlagState::Unknown;
        }
        Inst::Not { reg } => {
            let v = match state.reg(reg).val {
                AVal::Val(iv) => iv.not().map_or(AVal::Top, AVal::Val),
                _ => AVal::Top,
            };
            state.set_reg(flags, reg, v, None);
            flags.flag = FlagState::Unknown;
        }
        Inst::CmpRR { lhs, rhs } => {
            flags.flag = FlagState::Cmp(snap_of(state, lhs, Some(rhs), None));
        }
        Inst::CmpRI { lhs, imm } => {
            // `cmp b, 0` on a setcc result re-tests the original
            // comparison (the shape the compiler emits for `while`).
            if imm == 0 {
                if let Some((snap, cc)) = flags.bool_pred(lhs.index()) {
                    flags.flag = FlagState::Bool { snap: snap.clone(), cc };
                    return;
                }
            }
            flags.flag = FlagState::Cmp(snap_of(state, lhs, None, Some(imm)));
        }
        Inst::TestRR { lhs, rhs } => {
            // `test r, r` sets flags identically to `cmp r, 0`.
            if lhs == rhs {
                if let Some((snap, cc)) = flags.bool_pred(lhs.index()) {
                    flags.flag = FlagState::Bool { snap: snap.clone(), cc };
                } else {
                    flags.flag = FlagState::Cmp(snap_of(state, lhs, None, Some(0)));
                }
            } else {
                flags.flag = FlagState::Unknown;
            }
        }
        Inst::SetCc { cc, dst } => {
            let pred = match &flags.flag {
                FlagState::Cmp(snap) => Some((snap.clone(), cc)),
                _ => None,
            };
            state.set_reg(flags, dst, AVal::Val(Interval::new(0, 1)), None);
            if let Some((mut snap, cc)) = pred {
                // `dst` now holds the boolean, not the compared value.
                snap.lhs_subs.retain(|s| *s != Subject::Reg(dst.index()));
                snap.rhs_subs.retain(|s| *s != Subject::Reg(dst.index()));
                flags.bool_preds.push((dst.index(), snap, cc));
            }
        }
        Inst::CmpMem { .. } | Inst::FCmp { .. } => {
            flags.flag = FlagState::Unknown;
        }
        Inst::FpuRR { dst, .. }
        | Inst::CvtIF { dst, .. }
        | Inst::CvtFI { dst, .. }
        | Inst::FSqrt { dst, .. }
        | Inst::FNeg { dst, .. } => {
            state.set_reg(flags, dst, AVal::Top, None);
        }
    }
}

/// Builds the comparison snapshot for `cmp lhs, rhs/imm`.
fn snap_of(state: &AbsState, lhs: Reg, rhs: Option<Reg>, imm: Option<i64>) -> CmpSnap {
    let subs = |r: Reg| -> Vec<Subject> {
        let t = state.reg(r);
        let mut v = vec![Subject::Reg(r.index())];
        if let Some(d) = t.origin {
            v.push(Subject::Slot(d));
        }
        v
    };
    let lhs_t = state.reg(lhs);
    let (rhs_subs, rhs_val) = match (rhs, imm) {
        (Some(r), _) => (subs(r), state.reg(r).val),
        (None, Some(i)) => (Vec::new(), AVal::exact(i)),
        (None, None) => (Vec::new(), AVal::Top),
    };
    CmpSnap { lhs_subs: subs(lhs), rhs_subs, lhs: lhs_t.val, rhs: rhs_val }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflection_isa::{disassemble, encode, encoded_len, CondCode, MemOperand};

    impl Analysis {
        /// The abstract value of `reg` just before the instruction at
        /// `offset` executes; `None` when `offset` is unreachable or not
        /// an instruction start.
        fn value_before(&self, offset: usize, reg: Reg) -> Option<AVal> {
            let (state, _) = self.state_before(offset)?;
            Some(state.reg(reg).val)
        }
    }

    /// Test-local pseudo-instructions: direct calls by function index
    /// and conditional branches by instruction index within a function.
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
                let here = offsets[fi][ii];
                let end = here + ilen(i);
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

    /// A three-function program with a widening-exercising loop and two
    /// stores provable in the `[0x1000, 0x2000)` window.
    fn sample_program() -> Vec<u8> {
        let start = vec![I::R(Inst::MovRI { dst: Reg::RCX, imm: 3 }), I::Call(1), I::R(Inst::Halt)];
        let main = vec![
            I::R(Inst::Push { reg: Reg::RBP }),
            I::R(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP }),
            I::R(Inst::MovRI { dst: Reg::RAX, imm: 0 }),
            I::R(Inst::MovRI { dst: Reg::RBX, imm: 0x1000 }),
            // loop head (instruction 4)
            I::R(Inst::Store { mem: mem(Some(Reg::RBX), 0), src: Reg::RAX }),
            I::R(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 1 }),
            I::R(Inst::CmpRI { lhs: Reg::RAX, imm: 10 }),
            I::Jcc(CondCode::L, 4),
            I::Call(2),
            I::R(Inst::Pop { reg: Reg::RBP }),
            I::R(Inst::Ret),
        ];
        let helper = vec![
            I::R(Inst::MovRI { dst: Reg::RDX, imm: 0x1100 }),
            I::R(Inst::StoreImm { mem: mem(Some(Reg::RDX), 0), imm: 7 }),
            I::R(Inst::Ret),
        ];
        assemble(&[start, main, helper])
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
    fn modular_analysis_keeps_elision_relevant_precision() {
        let code = sample_program();
        let d = disassemble(&code, 0, &[]).unwrap();
        let a = Analysis::run(&d, config());
        // Both stores sit at constant addresses inside the window; the
        // guard-elision pass depends on exactly this class of proof
        // surviving the function-modular split.
        let stores: Vec<usize> = d
            .insts()
            .iter()
            .filter(|(_, i, _)| matches!(i, Inst::Store { .. } | Inst::StoreImm { .. }))
            .map(|&(off, _, _)| off)
            .collect();
        assert_eq!(stores.len(), 2);
        for off in stores {
            assert!(a.store_safe(off), "store at {off:#x} must prove in-window");
        }
        // The callee still sees an exact stack depth through the cut
        // call edge (the P2 main-frame fact): rsp at main's entry is
        // exactly `stack_hi - 8` (one pushed return address).
        let main_entry = d.function_entries()[1];
        let rsp = a.value_before(main_entry, Reg::RSP).expect("main reachable");
        assert_eq!(a.concrete_range(rsp), Some((0x8000 - 8, 0x8000 - 8)));
    }

    /// Regression test for the stale-`SetCc`-subject bug: in the codegen
    /// bool-chain shape `cmp i, N; setcc l, rax; cmp rax, 0; jcc ne head`
    /// the `setcc` destination *is* the compared register, so the snapshot
    /// pushed into `bool_preds` must drop `Reg(rax)` as a subject (the
    /// register now holds the boolean, not `i`). With the stale subject the
    /// loop-exit refinement intersected `[0,1]` with `[8,+inf)`, proved the
    /// exit edge infeasible, and everything after the first counted loop
    /// of every function was analyzed as unreachable.
    #[test]
    fn bool_chain_loop_exit_is_reachable_and_narrowed() {
        let start = vec![I::Call(1), I::R(Inst::Halt)];
        let f = vec![
            I::R(Inst::Push { reg: Reg::RBP }),
            I::R(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP }),
            I::R(Inst::AluRI { op: AluOp::Sub, dst: Reg::RSP, imm: 16 }),
            I::R(Inst::MovRI { dst: Reg::RAX, imm: 0 }),
            I::R(Inst::Store { mem: mem(Some(Reg::RBP), -8), src: Reg::RAX }),
            // loop head (instruction 5): i += 1; rax = (i < 8); loop while rax != 0
            I::R(Inst::Load { dst: Reg::RAX, mem: mem(Some(Reg::RBP), -8) }),
            I::R(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 1 }),
            I::R(Inst::Store { mem: mem(Some(Reg::RBP), -8), src: Reg::RAX }),
            I::R(Inst::CmpRI { lhs: Reg::RAX, imm: 8 }),
            I::R(Inst::SetCc { cc: CondCode::L, dst: Reg::RAX }),
            I::R(Inst::CmpRI { lhs: Reg::RAX, imm: 0 }),
            I::Jcc(CondCode::Ne, 5),
            // post-loop (instruction 12): must be reachable with i == 8
            I::R(Inst::Load { dst: Reg::RAX, mem: mem(Some(Reg::RBP), -8) }),
            I::R(Inst::MovRI { dst: Reg::RBX, imm: 0x1000 }),
            I::R(Inst::Store { mem: mem(Some(Reg::RBX), 0), src: Reg::RAX }),
            I::R(Inst::AluRI { op: AluOp::Add, dst: Reg::RSP, imm: 16 }),
            I::R(Inst::Pop { reg: Reg::RBP }),
            I::R(Inst::Ret),
        ];
        let code = assemble(&[start, f]);
        let d = disassemble(&code, 0, &[]).unwrap();
        let a = Analysis::run(&d, config());
        let insts = d.insts();
        let f_first = 2; // start has two instructions
        let post_loop = insts[f_first + 12].0;
        let rax = a
            .value_before(post_loop + encoded_len(&insts[f_first + 12].1), Reg::RAX)
            .expect("the loop exit edge must be feasible");
        // Widening overshoots to [0, +inf); bounded narrowing plus the
        // boolean-predicate exit refinement must recover the exact bound.
        assert_eq!(a.concrete_range(rax), Some((8, 8)));
        let store_off = insts[f_first + 14].0;
        assert!(a.store_safe(store_off), "post-loop store must prove in-window");
    }

    /// Difference-bound transfer: `i < n` recorded as a relational fact
    /// between two stack slots lets a later refinement of `n` tighten `i`
    /// — the interval domain alone cannot prove the store below, because
    /// at the compare both operands are unbounded.
    #[test]
    fn relational_fact_transfers_bound_refinement_between_slots() {
        let start = vec![I::Call(1), I::R(Inst::Halt)];
        let f = vec![
            I::R(Inst::Push { reg: Reg::RBP }),
            I::R(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP }),
            I::R(Inst::AluRI { op: AluOp::Sub, dst: Reg::RSP, imm: 32 }),
            // i and n arrive opaque (loads from untracked memory).
            I::R(Inst::MovRI { dst: Reg::RDX, imm: 0x3000 }),
            I::R(Inst::Load { dst: Reg::RAX, mem: mem(Some(Reg::RDX), 0) }),
            I::R(Inst::Store { mem: mem(Some(Reg::RBP), -8), src: Reg::RAX }),
            I::R(Inst::Load { dst: Reg::RCX, mem: mem(Some(Reg::RDX), 8) }),
            I::R(Inst::Store { mem: mem(Some(Reg::RBP), -16), src: Reg::RCX }),
            I::R(Inst::Load { dst: Reg::RAX, mem: mem(Some(Reg::RBP), -8) }),
            I::R(Inst::Load { dst: Reg::RCX, mem: mem(Some(Reg::RBP), -16) }),
            // i < n: records slot(-8) <= slot(-16) - 1, no interval change.
            I::R(Inst::CmpRR { lhs: Reg::RAX, rhs: Reg::RCX }),
            I::Jcc(CondCode::Ge, 18),
            // n <= 63: refines slot(-16); the relational fact must carry
            // the new bound over to slot(-8) and its register copy.
            I::R(Inst::CmpRI { lhs: Reg::RCX, imm: 63 }),
            I::Jcc(CondCode::G, 18),
            // i >= 0 closes the range: i in [0, 62].
            I::R(Inst::CmpRI { lhs: Reg::RAX, imm: 0 }),
            I::Jcc(CondCode::L, 18),
            I::R(Inst::MovRI { dst: Reg::RBX, imm: 0x1000 }),
            I::R(Inst::Store {
                mem: MemOperand { base: Some(Reg::RBX), index: Some((Reg::RAX, 8)), disp: 0 },
                src: Reg::RCX,
            }),
            // bail target (instruction 18)
            I::R(Inst::AluRI { op: AluOp::Add, dst: Reg::RSP, imm: 32 }),
            I::R(Inst::Pop { reg: Reg::RBP }),
            I::R(Inst::Ret),
        ];
        let code = assemble(&[start, f]);
        let d = disassemble(&code, 0, &[]).unwrap();
        let a = Analysis::run(&d, config());
        let insts = d.insts();
        let store_off = insts[2 + 17].0;
        assert!(
            a.store_safe(store_off),
            "i in [0,62] via the relational fact puts base+8*i inside the window"
        );
    }

    /// A callee that leaks stack depth (push without pop before `Ret`)
    /// must fail the balance pre-analysis, so the caller loses its exact
    /// `rsp` across the call — the soundness half of the leaf-call
    /// preservation rule.
    #[test]
    fn unbalanced_callee_havocs_caller_rsp() {
        let start = vec![I::Call(1), I::R(Inst::Halt)];
        let leaky = vec![I::R(Inst::Push { reg: Reg::RBP }), I::R(Inst::Ret)];
        let code = assemble(&[start, leaky]);
        let d = disassemble(&code, 0, &[]).unwrap();
        let a = Analysis::run(&d, config());
        let halt_off = d.insts()[1].0;
        match a.value_before(halt_off, Reg::RSP) {
            None => {}
            Some(rsp) => assert_eq!(
                a.concrete_range(rsp),
                None,
                "rsp must not survive a call to an unbalanced callee"
            ),
        }
    }

    /// An irreducible loop: `A` and `B` form one cycle with an entry into
    /// each, chosen by an opaque value, so neither block dominates the
    /// other and no dominator tree would find a loop head. The counter
    /// steps by 1 in `A` and by 2 in `B` until it reaches 100. The
    /// analysis must terminate, and its ranges at both heads must contain
    /// every value a concrete run reaches there.
    #[test]
    fn irreducible_two_entry_loop_terminates_with_sound_counter_ranges() {
        let start = vec![I::Call(1), I::R(Inst::Halt)];
        let f = vec![
            I::R(Inst::Push { reg: Reg::RBP }),
            I::R(Inst::MovRR { dst: Reg::RBP, src: Reg::RSP }),
            I::R(Inst::MovRI { dst: Reg::RAX, imm: 0 }),
            I::R(Inst::MovRI { dst: Reg::RDX, imm: 0x3000 }),
            I::R(Inst::Load { dst: Reg::RCX, mem: mem(Some(Reg::RDX), 0) }),
            I::R(Inst::CmpRI { lhs: Reg::RCX, imm: 0 }),
            I::Jcc(CondCode::E, 10),
            // A (instruction 7): rax += 1; leave at 100; fall into B
            I::R(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 1 }),
            I::R(Inst::CmpRI { lhs: Reg::RAX, imm: 100 }),
            I::Jcc(CondCode::Ge, 13),
            // B (instruction 10): rax += 2; back to A below 100
            I::R(Inst::AluRI { op: AluOp::Add, dst: Reg::RAX, imm: 2 }),
            I::R(Inst::CmpRI { lhs: Reg::RAX, imm: 100 }),
            I::Jcc(CondCode::L, 7),
            // exit (instruction 13)
            I::R(Inst::Pop { reg: Reg::RBP }),
            I::R(Inst::Ret),
        ];
        let code = assemble(&[start, f]);
        let d = disassemble(&code, 0, &[]).unwrap();
        let a = Analysis::run(&d, config());
        let (head_a, head_b) = (d.insts()[2 + 7].0, d.insts()[2 + 10].0);

        // Every counter value a concrete run sees at each head, for both
        // entries.
        let (mut seen_a, mut seen_b) = (Vec::new(), Vec::new());
        for enter_b in [false, true] {
            let mut rax = 0i64;
            let mut at_b = enter_b;
            loop {
                if at_b {
                    seen_b.push(rax);
                    rax += 2;
                    if rax >= 100 {
                        break;
                    }
                } else {
                    seen_a.push(rax);
                    rax += 1;
                    if rax >= 100 {
                        break;
                    }
                }
                at_b = !at_b;
            }
        }
        for (head, seen) in [(head_a, &seen_a), (head_b, &seen_b)] {
            let rax = a.value_before(head, Reg::RAX).expect("both heads are reachable");
            let AVal::Val(iv) = rax else { panic!("counter at {head:#x} lost: {rax:?}") };
            for &v in seen {
                assert!(v >= iv.lo && v <= iv.hi, "{v} at {head:#x} outside {rax:?}");
            }
        }
    }
}
