//! The VM's decoded form: superblock traces with generation-based
//! coherence.
//!
//! Real x86 hardware decodes each instruction once into a decoded-µop/trace
//! cache and *snoops stores* to keep it coherent with self-modifying code.
//! This module gives the simulated machine the same structure: bounded
//! runs of predecoded instructions, formed at install time from the
//! verifier's own disassembly (or on demand, decoding from memory), each
//! stamped with its page's code-write generation and killed when
//! [`Memory`]'s stamp for that page moves on. Traces are the only decoded
//! form the VM keeps; there is no separate per-instruction decode map.
//!
//! Coherence is load-bearing, not an optimisation nicety: the in-enclave
//! rewriter patches immediates into the RWX code window *after*
//! verification, and SGXv1 cannot stop the target from modifying its own
//! code. A stale trace would execute instructions that no longer exist in
//! memory — so any `store`/`poke_bytes`/permission change touching an
//! executable page bumps the generation and the next lookup on that page
//! kills the trace and the dispatcher re-decodes (see `DESIGN.md` §5f).
//!
//! Instructions that straddle a page boundary never enter a trace: a
//! single-page generation check could not prove their trailing bytes
//! unchanged, so the dispatcher single-steps them from memory instead.
//!
//! # Superblock traces
//!
//! A trace is a bounded run of predecoded [`PredInst`] elements that
//! follows fallthrough *and direct branches* (`Jmp` always, `Jcc` by
//! backward-taken/forward-not-taken speculation, `Call` into the callee),
//! so the dispatch loop crosses direct control flow without re-entering
//! the lookup path. A trace never crosses an executable-page boundary and
//! never follows an indirect edge (`JmpInd`/`CallInd`/`Ret` end it — their
//! targets are runtime values no formation-time prediction can certify).
//! Each trace records the code-write generation of its single page;
//! elements that can write memory carry a stamp re-check so a store into
//! the trace's own page kills it *mid-run*, and speculated `Jcc` elements
//! carry a pc re-check whose mismatch re-enters the trace at the element
//! holding the non-predicted successor (an index computed at formation)
//! or, when no element holds it, side-exits the trace. See `DESIGN.md`
//! §5h for the correctness argument.

use crate::cpu::PredInst;
use crate::layout::PAGE_SIZE;
use crate::mem::Memory;
use deflection_isa::Inst;
use std::collections::HashMap;

const PAGE: usize = PAGE_SIZE as usize;

/// Upper bound on trace length, in instructions. Long enough to swallow
/// whole nBench loop bodies, short enough that a kill from one stray store
/// throws away bounded decode work.
pub(crate) const MAX_TRACE_LEN: usize = 64;

/// After executing this element, re-check that `cpu.pc` equals the
/// element's predicted successor; mismatch side-exits the trace.
pub(crate) const CHECK_PC: u8 = 1 << 0;
/// After executing this element (which may have written memory), re-check
/// the trace page's code-write stamp; mismatch kills the trace.
pub(crate) const CHECK_GEN: u8 = 1 << 1;
/// The trace ends after this element (terminator or indirect edge).
pub(crate) const END: u8 = 1 << 2;

/// An in-trace index that addresses no element: the successor it stands
/// for lies outside the trace.
pub(crate) const NO_ELEM: u32 = u32::MAX;

// The `alt` index and the flags share the word of padding the element
// already had after its two addresses, so adding `alt` did not grow it.
const _: () = assert!(std::mem::size_of::<TraceElem>() <= 3 * 8 + std::mem::size_of::<PredInst>());

/// One predecoded element of a superblock trace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TraceElem {
    /// Address this element was decoded from — the dispatch invariant is
    /// `cpu.pc == elem.pc` on entry.
    pub pc: u64,
    /// Predicted successor address (the next element's `pc`, when any).
    pub pred: u64,
    /// For a speculated `Jcc`: the index of the element holding the
    /// non-predicted successor, where a `CHECK_PC` mismatch re-enters.
    /// [`NO_ELEM`] for every other element and when that successor lies
    /// outside the trace.
    pub alt: u32,
    /// `CHECK_PC` / `CHECK_GEN` / `END` bits.
    pub flags: u8,
    /// The predecoded operation.
    pub op: PredInst,
}

/// A superblock trace: a single-page run of predecoded instructions,
/// stamped with the code-write generation it was decoded against.
#[derive(Debug)]
pub(crate) struct Trace {
    /// Entry address (key in the trace map).
    pub entry: u64,
    /// ELRANGE page index every element lives on.
    pub page: usize,
    /// Code-write generation of `page` at formation time.
    pub gen: u64,
    /// The predecoded run, entry first. Element addresses are distinct:
    /// formation stops where the walk revisits one.
    pub elems: Box<[TraceElem]>,
    /// Index of the element holding the last element's predicted
    /// successor, where a run that falls off the end wraps (the entry, for
    /// a loop body that is exactly this trace); [`NO_ELEM`] when the
    /// successor lies outside the trace.
    pub wrap: u32,
}

/// Trace-cache event counters. These live outside
/// [`crate::vm::ExecStats`] on purpose: differential tests require
/// bit-identical execution counters across dispatch modes, while trace
/// behaviour legitimately differs between them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces formed on demand during dispatch.
    pub formed: u64,
    /// Traces formed at install time from the verifier's disassembly.
    pub prewarmed: u64,
    /// Trace-to-trace transitions (including a trace wrapping onto its own
    /// entry) that never fell back to single-step dispatch.
    pub chained: u64,
    /// Mid-trace exits from a `Jcc` speculation mismatch (or a host call
    /// that moved `pc` off the predicted successor).
    pub side_exits: u64,
    /// Traces killed on a code-write stamp mismatch — at lookup or, for
    /// self-modifying stores into the trace's own page, mid-run.
    pub invalidated: u64,
}

/// How far `build_trace` walked and what it decided for one instruction.
fn classify(inst: Inst, next: u64) -> (PredInst, u64, u8, Option<u64>) {
    let rel_target = |rel: i32| next.wrapping_add(rel as i64 as u64);
    match inst {
        Inst::Jmp { rel } => {
            let target = rel_target(rel);
            (PredInst::Jmp { target }, target, 0, Some(target))
        }
        Inst::Jcc { cc, rel } => {
            // Speculation is refined by `build_trace` (which can peek the
            // fallthrough): this default is backward-taken/forward-not-taken.
            // Either choice is safe — CHECK_PC side-exits on a miss.
            let target = rel_target(rel);
            let pred = if rel < 0 { target } else { next };
            (PredInst::Jcc { cc, taken: target, fall: next }, pred, CHECK_PC, Some(pred))
        }
        Inst::Call { rel } => {
            // The return-address push can land anywhere — including an
            // executable page — so the stamp must be re-checked.
            let target = rel_target(rel);
            (PredInst::Call { target, ret: next }, target, CHECK_GEN, Some(target))
        }
        // Run terminators: the dispatcher exits on their events, END is
        // only reached if a host ever resumes past them.
        Inst::Halt | Inst::Abort { .. } => (PredInst::Line { inst, next }, next, END, None),
        // Indirect edges never extend a trace: their successor is a runtime
        // value. The trace ends and the dispatcher re-looks-up at the
        // dynamic target (natural trace-to-trace chaining).
        Inst::JmpInd { .. } | Inst::Ret => (PredInst::Line { inst, next }, next, END, None),
        Inst::CallInd { .. } => (PredInst::Line { inst, next }, next, CHECK_GEN | END, None),
        // The OCall host handler gets `&mut Cpu`/`&mut Memory`: it may poke
        // executable pages and (in principle) move pc, so both re-checks.
        Inst::Ocall { .. } => {
            (PredInst::Line { inst, next }, next, CHECK_GEN | CHECK_PC, Some(next))
        }
        Inst::AexProbe => (PredInst::Line { inst, next }, next, CHECK_PC, Some(next)),
        // Store-capable straight-line instructions: self-modifying code is
        // legal in the RWX window, so re-check the trace page's stamp.
        Inst::Store { .. } | Inst::Store8 { .. } | Inst::StoreImm { .. } | Inst::Push { .. } => {
            (PredInst::Line { inst, next }, next, CHECK_GEN, Some(next))
        }
        _ => (PredInst::Line { inst, next }, next, 0, Some(next)),
    }
}

/// Forms a trace starting at `entry`, pulling decodes from `fetch` (the
/// demand path decodes from memory; the prewarm path serves the verifier's
/// disassembly). Returns `None`
/// when not even the entry instruction is cacheable (out of ELRANGE,
/// page-straddling, or undecodable) — callers fall back to single-step.
fn build_trace(
    entry: u64,
    mem: &Memory,
    fetch: &mut dyn FnMut(u64) -> Option<(Inst, u8)>,
) -> Option<Trace> {
    let page = mem.page_index(entry)?;
    let gen = mem.page_code_gen(page)?;
    let mut elems: Vec<TraceElem> = Vec::new();
    let mut pc = entry;
    loop {
        if elems.len() >= MAX_TRACE_LEN || elems.iter().any(|e| e.pc == pc) {
            // Length bound, or the walk closed a cycle back into the trace:
            // stop and let the dispatcher wrap/chain at runtime.
            break;
        }
        if mem.page_index(pc) != Some(page) {
            break; // crossed the executable-page boundary
        }
        let Some((inst, len)) = fetch(pc) else { break };
        if mem.page_index(pc.wrapping_add(u64::from(len) - 1)) != Some(page) {
            break; // straddling tail — a single stamp cannot cover it
        }
        let next = pc.wrapping_add(u64::from(len));
        let (op, mut pred, flags, mut cont) = classify(inst, next);
        if let Inst::Jcc { rel, .. } = inst {
            // Never speculate into an abort: the annotation guards are all
            // `jcc ok; abort; ok:` — a forward branch that is taken on
            // every policy-compliant execution. BTFN alone would predict
            // the (cold-by-construction) abort arm and side-exit the trace
            // at every guard, so peek the fallthrough and flip a forward
            // branch to predicted-taken when it lands on an `Abort`.
            if rel >= 0 && matches!(fetch(next), Some((Inst::Abort { .. }, _))) {
                let target = next.wrapping_add(rel as i64 as u64);
                pred = target;
                cont = Some(target);
            }
        }
        elems.push(TraceElem { pc, pred, alt: NO_ELEM, flags, op });
        match cont {
            Some(target) => pc = target,
            None => break,
        }
    }
    // Resolve in-trace successors once, here, so dispatch re-enters by a
    // stored index instead of searching the trace at every transition.
    let wrap = index_of(&elems, elems.last()?.pred);
    for i in 0..elems.len() {
        if let PredInst::Jcc { taken, fall, .. } = elems[i].op {
            let other = if elems[i].pred == taken { fall } else { taken };
            elems[i].alt = index_of(&elems, other);
        }
    }
    Some(Trace { entry, page, gen, elems: elems.into_boxed_slice(), wrap })
}

/// The index of the element at `pc`, or [`NO_ELEM`] when none is.
fn index_of(elems: &[TraceElem], pc: u64) -> u32 {
    elems.iter().position(|e| e.pc == pc).map_or(NO_ELEM, |i| i as u32)
}

/// Empty sentinel in a [`TracePage`] slot.
const NO_TRACE: u32 = u32::MAX;

/// Direct-mapped per-page trace index: page-relative byte offset →
/// `(arena id, element index)`, [`NO_TRACE`] when no live trace covers the
/// offset. Dense, so the dispatch hot path is two array loads — no
/// hashing — per trace transition.
type TracePage = Box<[(u32, u32)]>;

/// The trace cache. Its index is per page within ELRANGE; a page's slot
/// array allocates when the first trace on it forms, so cost scales with
/// code actually covered.
#[derive(Debug)]
pub struct ICache {
    base: u64,
    /// Live traces, keyed by the arena ids the page slots hold. `None`
    /// slots are free (recycled through `free_ids`). Traces are formed and
    /// killed only between trace runs, so dispatch borrows a trace here
    /// for the length of one run instead of holding a shared handle.
    traces: Vec<Option<Trace>>,
    /// Recycled arena ids.
    free_ids: Vec<u32>,
    /// Per-page direct-mapped index over every element address of every
    /// live trace, so dispatch can enter a trace mid-run — AEX block
    /// boundaries stop at arbitrary pcs and must not forfeit the rest of
    /// the trace.
    trace_pages: Vec<Option<TracePage>>,
    /// Trace event counters (reported to telemetry by the VM at run exit).
    pub trace_stats: TraceStats,
}

impl ICache {
    /// Creates an empty cache covering `mem`'s ELRANGE.
    #[must_use]
    pub fn new(mem: &Memory) -> Self {
        let pages = (mem.layout().elrange.len() / PAGE_SIZE) as usize;
        let mut tp = Vec::with_capacity(pages);
        tp.resize_with(pages, || None);
        ICache {
            base: mem.layout().elrange.start,
            traces: Vec::new(),
            free_ids: Vec::new(),
            trace_pages: tp,
            trace_stats: TraceStats::default(),
        }
    }

    /// Looks up a live trace covering `pc` (at its entry or mid-trace) and
    /// returns its arena id and the element index holding `pc`, enforcing
    /// coherence: a trace whose page stamp trails the current code-write
    /// generation is killed and the lookup misses.
    #[inline]
    pub(crate) fn lookup_trace(&mut self, pc: u64, mem: &Memory) -> Option<(u32, usize)> {
        let off = pc.checked_sub(self.base)? as usize;
        let (id, idx) = *self.trace_pages.get(off / PAGE)?.as_ref()?.get(off % PAGE)?;
        if id == NO_TRACE {
            return None;
        }
        let trace = self.trace(id);
        debug_assert_eq!(trace.elems[idx as usize].pc, pc);
        if !mem.stamp_current(trace.page, trace.gen) {
            self.kill(id);
            return None;
        }
        Some((id, idx as usize))
    }

    /// Forms (and registers) a trace at `entry` on demand, decoding from
    /// memory. Returns the new trace's arena id, or `None` when not even
    /// the entry instruction can start a trace.
    pub(crate) fn form_trace(&mut self, entry: u64, mem: &Memory) -> Option<u32> {
        // A decode fault ends the walk; the dispatcher's single step
        // surfaces it.
        let trace = build_trace(entry, mem, &mut |pc| crate::cpu::fetch_decode_at(mem, pc).ok())?;
        self.trace_stats.formed += 1;
        Some(self.insert_trace(trace))
    }

    /// The live trace with arena id `id`.
    #[inline]
    pub(crate) fn trace(&self, id: u32) -> &Trace {
        self.traces[id as usize].as_ref().expect("indexed ids are live")
    }

    /// Borrows live trace `id` together with the trace counters — disjoint
    /// fields — so dispatch can run the trace and count its transitions
    /// without copying or sharing it.
    #[inline]
    pub(crate) fn trace_and_stats(&mut self, id: u32) -> (&Trace, &mut TraceStats) {
        let trace = self.traces[id as usize].as_ref().expect("indexed ids are live");
        (trace, &mut self.trace_stats)
    }

    /// Forms traces at install time: a greedy cover over the verifier's
    /// disassembly, one trace per instruction address not already inside a
    /// live trace. Decodes come exclusively from `entries` (the verifier's
    /// disassembly, patched to the post-rewrite immediates), never from raw
    /// memory — install-time work is accounted as `prewarmed`, not as
    /// demand formations. Returns the formed trace lengths for the caller
    /// to fold into telemetry.
    pub(crate) fn prewarm_traces(
        &mut self,
        mem: &Memory,
        entries: &[(u64, Inst, u8)],
    ) -> Vec<usize> {
        let decoded: HashMap<u64, (Inst, u8)> =
            entries.iter().map(|&(pc, inst, len)| (pc, (inst, len))).collect();
        let mut lens = Vec::new();
        for &(pc, _, _) in entries {
            if self.slot(pc).is_some_and(|&(id, _)| id != NO_TRACE) {
                continue;
            }
            let trace = build_trace(pc, mem, &mut |p| decoded.get(&p).copied());
            if let Some(trace) = trace {
                lens.push(trace.elems.len());
                self.trace_stats.prewarmed += 1;
                self.insert_trace(trace);
            }
        }
        lens
    }

    /// Removes live trace `id`, clearing exactly the index slots it owns,
    /// and counts one invalidation.
    pub(crate) fn kill(&mut self, id: u32) {
        let trace = self.traces[id as usize].take().expect("killing a live id");
        for elem in trace.elems.iter() {
            if let Some(slot) = self.slot_mut(elem.pc) {
                if slot.0 == id {
                    *slot = (NO_TRACE, 0);
                }
            }
        }
        self.free_ids.push(id);
        self.trace_stats.invalidated += 1;
    }

    /// Checks every live trace's formation-time successor indices against
    /// its own elements: a speculated `Jcc`'s `alt` addresses the element
    /// at its non-predicted successor, every other element's `alt` is
    /// empty, and `wrap` addresses the element at the last element's
    /// predicted successor — each index empty exactly when no element
    /// holds that address. Returns how many traces were checked.
    ///
    /// # Errors
    ///
    /// Describes the first index that breaks the rule.
    pub fn audit_successor_indices(&self) -> Result<usize, String> {
        let mut checked = 0;
        for trace in self.traces.iter().flatten() {
            let elems = &trace.elems;
            let holds = |index: u32, target: u64| match elems.iter().position(|e| e.pc == target) {
                Some(i) => index as usize == i,
                None => index == NO_ELEM,
            };
            for (i, e) in elems.iter().enumerate() {
                let ok = match e.op {
                    PredInst::Jcc { taken, fall, .. } if e.flags & CHECK_PC != 0 => {
                        holds(e.alt, if e.pred == taken { fall } else { taken })
                    }
                    _ => e.alt == NO_ELEM,
                };
                if !ok {
                    return Err(format!("trace {:#x}: element {i} has alt {}", trace.entry, e.alt));
                }
            }
            let last = elems.last().ok_or_else(|| format!("trace {:#x} is empty", trace.entry))?;
            if !holds(trace.wrap, last.pred) {
                return Err(format!("trace {:#x}: wrap {}", trace.entry, trace.wrap));
            }
            checked += 1;
        }
        Ok(checked)
    }

    /// The direct-mapped index slot for `pc`, if its page is materialised.
    #[inline]
    fn slot(&self, pc: u64) -> Option<&(u32, u32)> {
        let off = pc.checked_sub(self.base)? as usize;
        self.trace_pages.get(off / PAGE)?.as_ref()?.get(off % PAGE)
    }

    #[inline]
    fn slot_mut(&mut self, pc: u64) -> Option<&mut (u32, u32)> {
        let off = pc.checked_sub(self.base)? as usize;
        self.trace_pages.get_mut(off / PAGE)?.as_mut()?.get_mut(off % PAGE)
    }

    /// Registers `trace` and indexes its elements. Callers form traces only
    /// where no live trace covers the entry, so the entry slot is free.
    fn insert_trace(&mut self, trace: Trace) -> u32 {
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                self.traces.push(None);
                (self.traces.len() - 1) as u32
            }
        };
        // Materialise the page's slot array on first use.
        let page = trace.page;
        let slots = self.trace_pages[page]
            .get_or_insert_with(|| vec![(NO_TRACE, 0); PAGE].into_boxed_slice());
        let page_base = self.base + (page as u64) * PAGE_SIZE;
        debug_assert_eq!(slots[(trace.entry - page_base) as usize].0, NO_TRACE);
        for (i, elem) in trace.elems.iter().enumerate() {
            let slot = &mut slots[(elem.pc - page_base) as usize];
            // Overlapping traces may share interior addresses; first owner
            // wins — both decode identically under the same generation, so
            // either dispatch is correct.
            if slot.0 == NO_TRACE {
                *slot = (id, i as u32);
            }
        }
        self.traces[id as usize] = Some(trace);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{EnclaveLayout, MemConfig};

    fn mem() -> Memory {
        Memory::new(EnclaveLayout::new(MemConfig::small()))
    }

    /// `mem()` with `prog` encoded at the start of the code region.
    fn mem_with(prog: &[Inst]) -> Memory {
        let mut m = mem();
        let (bytes, _) = deflection_isa::encode_program(prog);
        m.poke_bytes(m.layout().code.start, &bytes).unwrap();
        m
    }

    #[test]
    fn demand_formation_decodes_from_memory_then_lookup_hits() {
        let m = mem_with(&[Inst::Nop, Inst::Halt]);
        let pc = m.layout().code.start;
        let mut ic = ICache::new(&m);
        assert!(ic.lookup_trace(pc, &m).is_none());
        let id = ic.form_trace(pc, &m).expect("decodable entry");
        assert_eq!(ic.trace(id).elems.len(), 2, "halt ends the trace");
        assert_eq!(ic.lookup_trace(pc + 1, &m), Some((id, 1)));
        assert_eq!(ic.trace_stats.formed, 1);
    }

    #[test]
    fn code_write_kills_the_trace_and_reformation_sees_the_new_bytes() {
        let mut m = mem_with(&[Inst::Halt]);
        let pc = m.layout().code.start;
        let mut ic = ICache::new(&m);
        ic.form_trace(pc, &m).expect("decodable entry");
        // Overwrite the halt with a nop: the stale trace must die.
        let (nop, _) = deflection_isa::encode_program(&[Inst::Nop]);
        m.store(pc, 1, u64::from(nop[0])).unwrap();
        assert!(ic.lookup_trace(pc, &m).is_none());
        assert_eq!(ic.trace_stats.invalidated, 1);
        let id = ic.form_trace(pc, &m).expect("re-formed against the new stamp");
        assert!(matches!(ic.trace(id).elems[0].op, PredInst::Line { inst: Inst::Nop, .. }));
    }

    #[test]
    fn writes_to_other_pages_do_not_invalidate() {
        let mut m = mem_with(&[Inst::Halt]);
        let pc = m.layout().code.start;
        let mut ic = ICache::new(&m);
        ic.form_trace(pc, &m).expect("decodable entry");
        m.store(m.layout().heap.start, 8, 7).unwrap();
        m.store(pc + PAGE_SIZE + 8, 8, 7).unwrap(); // next code page
        assert!(ic.lookup_trace(pc, &m).is_some());
        assert_eq!(ic.trace_stats.invalidated, 0);
    }

    #[test]
    fn straddling_and_out_of_range_entries_form_no_trace() {
        let mut m = mem();
        let code = m.layout().code.start;
        // A 10-byte mov whose tail spills onto the next page.
        let (bytes, _) = deflection_isa::encode_program(&[Inst::MovRI {
            dst: deflection_isa::Reg::RAX,
            imm: 1,
        }]);
        let straddle = code + PAGE_SIZE - 2;
        m.poke_bytes(straddle, &bytes).unwrap();
        let mut ic = ICache::new(&m);
        assert_eq!(ic.form_trace(straddle, &m), None);
        assert_eq!(ic.form_trace(0, &m), None, "untrusted memory");
        assert_eq!(ic.form_trace(m.layout().elrange.end, &m), None);
        assert!(ic.lookup_trace(0, &m).is_none());
        assert!(ic.lookup_trace(u64::MAX, &m).is_none());
        assert_eq!(ic.trace_stats, TraceStats::default());
    }

    #[test]
    fn traces_cross_direct_edges_and_stop_at_indirect_ones() {
        use deflection_isa::Reg;
        let m = mem();
        let base = m.layout().code.start;
        let mut ic = ICache::new(&m);
        // jmp +10 (len 5, target base+15); mov (len 10); ret (len 1).
        let entries = [
            (base, Inst::Jmp { rel: 10 }, 5u8),
            (base + 15, Inst::MovRI { dst: Reg::RAX, imm: 1 }, 10),
            (base + 25, Inst::Ret, 1),
        ];
        let lens = ic.prewarm_traces(&m, &entries);
        assert_eq!(lens, vec![3], "one trace covers all three instructions");
        assert_eq!(ic.trace_stats.prewarmed, 1);
        let (id, idx) = ic.lookup_trace(base, &m).expect("entry lookup");
        let t = ic.trace(id);
        assert_eq!((t.elems.len(), idx), (3, 0));
        assert_eq!(t.elems[2].flags & END, END, "ret ends the trace");
        // Mid-trace entry through the index (AEX block boundaries need it).
        let (_, idx) = ic.lookup_trace(base + 15, &m).expect("mid-trace lookup");
        assert_eq!(idx, 1);
        assert!(ic.lookup_trace(base + 1, &m).is_none(), "uncovered pcs miss");
    }

    #[test]
    fn backward_jcc_speculates_taken_and_closes_the_loop() {
        use deflection_isa::{CondCode, Reg};
        let m = mem();
        let base = m.layout().code.start;
        let mut ic = ICache::new(&m);
        // cmp (len 10) then jcc back to the cmp (len 6, rel -16).
        let entries = [
            (base, Inst::CmpRI { lhs: Reg::RAX, imm: 3 }, 10u8),
            (base + 10, Inst::Jcc { cc: CondCode::Ne, rel: -16 }, 6),
        ];
        ic.prewarm_traces(&m, &entries);
        let (id, _) = ic.lookup_trace(base, &m).expect("loop trace");
        let t = ic.trace(id);
        // The walk stops when the predicted successor closes the cycle.
        assert_eq!(t.elems.len(), 2);
        let jcc = &t.elems[1];
        assert_eq!(jcc.flags & CHECK_PC, CHECK_PC);
        assert_eq!(jcc.pred, base, "backward branch predicts taken");
        // Falling off the end wraps onto the entry; the fallthrough past
        // the loop is outside the trace, so a mispredict side-exits.
        assert_eq!(t.wrap, 0);
        assert_eq!(jcc.alt, NO_ELEM);
    }

    #[test]
    fn forward_jcc_re_enters_at_its_alt_index_and_the_loop_wraps() {
        use deflection_isa::{CondCode, Reg};
        let m = mem();
        let base = m.layout().code.start;
        let mut ic = ICache::new(&m);
        // jcc +10 (len 6; forward, so predicted not-taken) over a mov
        // (len 10) onto a jmp (len 5) back to the jcc: a diamond whose
        // taken arm and loop head both lie inside the one trace.
        let entries = [
            (base, Inst::Jcc { cc: CondCode::E, rel: 10 }, 6u8),
            (base + 6, Inst::MovRI { dst: Reg::RAX, imm: 1 }, 10),
            (base + 16, Inst::Jmp { rel: -21 }, 5),
        ];
        assert_eq!(ic.prewarm_traces(&m, &entries), vec![3]);
        let (id, _) = ic.lookup_trace(base, &m).expect("diamond trace");
        let t = ic.trace(id);
        assert_eq!(t.elems[0].pred, base + 6, "forward branch predicts not-taken");
        assert_eq!(t.elems[0].alt, 2, "the taken arm re-enters at the jmp");
        assert_eq!((t.elems[1].alt, t.elems[2].alt), (NO_ELEM, NO_ELEM));
        assert_eq!(t.wrap, 0, "the jmp's target is the entry");
        assert_eq!(ic.audit_successor_indices(), Ok(1));
    }

    #[test]
    fn code_write_kills_traces_at_lookup() {
        let mut m = mem();
        let base = m.layout().code.start;
        let mut ic = ICache::new(&m);
        ic.prewarm_traces(&m, &[(base, Inst::Nop, 1), (base + 1, Inst::Halt, 1)]);
        assert!(ic.lookup_trace(base, &m).is_some());
        m.store(base + 64, 8, 0x1234).unwrap();
        assert!(ic.lookup_trace(base, &m).is_none());
        assert_eq!(ic.trace_stats.invalidated, 1);
        // The index was purged with the trace: mid-trace pcs miss too.
        assert!(ic.lookup_trace(base + 1, &m).is_none());
        assert_eq!(ic.trace_stats.invalidated, 1, "a dead trace dies once");
    }

    #[test]
    fn trace_formation_is_length_bounded() {
        let m = mem();
        let base = m.layout().code.start;
        let mut ic = ICache::new(&m);
        let entries: Vec<(u64, Inst, u8)> = (0..200).map(|i| (base + i, Inst::Nop, 1u8)).collect();
        let lens = ic.prewarm_traces(&m, &entries);
        assert_eq!(lens[0], MAX_TRACE_LEN);
        // The greedy cover picks up where the bounded trace stopped.
        assert!(ic.lookup_trace(base + MAX_TRACE_LEN as u64, &m).is_some());
    }

    #[test]
    fn traces_never_cross_an_executable_page_boundary() {
        let m = mem();
        let base = m.layout().code.start;
        let mut ic = ICache::new(&m);
        let start = base + PAGE_SIZE - 2;
        let entries: Vec<(u64, Inst, u8)> = (0..4).map(|i| (start + i, Inst::Nop, 1u8)).collect();
        let lens = ic.prewarm_traces(&m, &entries);
        // Two single-page traces: [.., page end) and [next page, ..).
        assert_eq!(lens, vec![2, 2]);
        let (id, _) = ic.lookup_trace(start, &m).expect("first-page trace");
        assert_eq!(ic.trace(id).elems.len(), 2);
    }

    #[test]
    fn permission_change_invalidates() {
        let mut m = mem();
        let pc = m.layout().code.start;
        let mut ic = ICache::new(&m);
        ic.prewarm_traces(&m, &[(pc, Inst::Halt, 1)]);
        m.set_region_perm(m.layout().code, crate::mem::PagePerm::RW);
        assert!(ic.lookup_trace(pc, &m).is_none());
        assert_eq!(ic.trace_stats.invalidated, 1);
    }
}
