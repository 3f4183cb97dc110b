//! The virtual machine: couples the CPU, memory, AEX injection and a host
//! for OCall service, and runs the target binary under an instruction
//! budget.

use crate::aex::AexInjector;
use crate::cpu::{Cpu, StepEvent};
use crate::icache::{ICache, Trace, TraceStats, CHECK_GEN, CHECK_PC, END, NO_ELEM};
use crate::mem::Memory;
use crate::Fault;
use deflection_isa::{Inst, Reg};
use deflection_telemetry::{LocalHistogram, METRICS};

/// Host services the running enclave can reach.
///
/// Implemented by the bootstrap enclave runtime in `deflection-core`, where
/// OCall wrappers enforce policy P0 (allowed calls only, encryption,
/// fixed-length padding) and the probe runs the HyperRace co-location test.
pub trait VmHost {
    /// Handles OCall `code`; arguments in `rdi`/`rsi`/`rdx`, result in `rax`.
    ///
    /// # Errors
    ///
    /// Returning a [`Fault`] terminates execution (e.g.
    /// [`Fault::OcallDenied`] for calls outside the manifest).
    fn ocall(&mut self, code: u8, cpu: &mut Cpu, mem: &mut Memory) -> Result<(), Fault>;

    /// Runs the co-location probe; `true` means the sibling-thread test
    /// passed (no alarm).
    fn aex_probe(&mut self) -> bool;
}

/// A host that denies every OCall and always passes the probe — the default
/// fail-closed configuration.
#[derive(Debug, Clone, Default)]
pub struct NullHost;

impl VmHost for NullHost {
    fn ocall(&mut self, code: u8, _cpu: &mut Cpu, _mem: &mut Memory) -> Result<(), Fault> {
        Err(Fault::OcallDenied { code })
    }

    fn aex_probe(&mut self) -> bool {
        true
    }
}

/// Counters collected while running.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Instructions executed.
    pub instructions: u64,
    /// AEX events injected.
    pub aex_injected: u64,
    /// OCalls serviced.
    pub ocalls: u64,
    /// Co-location probes executed.
    pub probes: u64,
}

/// Why `run` returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunExit {
    /// `halt` executed; value of `rax` at exit.
    Halted {
        /// The exit value.
        exit: u64,
    },
    /// A security annotation aborted the program (policy violation).
    PolicyAbort {
        /// The policy abort code.
        code: u8,
    },
    /// A hardware-level fault terminated execution.
    Fault(Fault),
    /// The instruction budget was exhausted.
    OutOfFuel,
}

impl RunExit {
    /// Convenience: the exit value if the program halted normally.
    #[must_use]
    pub fn exit_value(&self) -> Option<u64> {
        match self {
            RunExit::Halted { exit } => Some(*exit),
            _ => None,
        }
    }
}

/// How the run loop dispatches instructions. The two modes are proven
/// observationally identical by `tests/icache_differential.rs`; the
/// reference mode exists only as that auditable oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Superblock trace dispatch (the default): predecoded multi-branch
    /// traces with trace-to-trace chaining and in-trace side-exit checks.
    Traced,
    /// Fetch + decode every step from raw bytes, check the AEX schedule
    /// every step — the pre-icache reference semantics.
    Reference,
}

/// How a trace run ended (other than by ending the whole run).
enum TraceEnd {
    /// Ran off the end of the trace (or an `END` element) with `pc` at the
    /// natural successor — eligible for chaining.
    Completed,
    /// A speculated element's pc re-check missed; `pc` holds the actual
    /// successor.
    SideExit,
    /// A stamp re-check caught a write into the trace's own page; the
    /// caller must kill the trace.
    Killed,
    /// The AEX block budget ran out mid-trace.
    Budget,
    /// The run is over.
    Exit(RunExit),
}

/// Heatmap vectors are capped here so a pathological run (every
/// instruction a side exit) cannot grow the profile without bound.
const PROFILE_HEATMAP_CAP: usize = 4096;

/// PC samples and event heatmaps accumulated by the in-run sampling
/// profiler — a plain local buffer, no atomics, never shared while the run
/// is live (the same fold-at-exit discipline as [`LocalHistogram`], see
/// DESIGN.md §5e/§5j): the host retrieves it with [`Vm::take_profile`]
/// after the run returns, at a boundary it already witnesses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmProfile {
    /// `(pc, weight)` samples: each entry attributes `weight` executed
    /// instructions — the gap since the previous sample — to the code at
    /// `pc`. Weights sum to exactly the instructions executed while the
    /// profiler was enabled (the final gap is flushed at run exit), so
    /// per-function aggregation is exact in total, sampled in placement.
    pub samples: Vec<(u64, u64)>,
    /// PCs at trace side exits (mispredicted guards), capped at
    /// `PROFILE_HEATMAP_CAP` (4096).
    pub side_exit_pcs: Vec<u64>,
    /// PCs at guard trips — policy aborts and faults — capped at
    /// `PROFILE_HEATMAP_CAP` (4096).
    pub guard_trip_pcs: Vec<u64>,
}

impl VmProfile {
    /// Total attributed instruction weight.
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.samples.iter().map(|&(_, w)| w).sum()
    }
}

/// A ready-to-run virtual machine.
#[derive(Debug)]
pub struct Vm {
    /// CPU state.
    pub cpu: Cpu,
    /// Memory state.
    pub mem: Memory,
    /// AEX injector.
    pub aex: AexInjector,
    /// Execution counters.
    pub stats: ExecStats,
    /// Superblock trace cache, the VM's only decoded form (see
    /// [`crate::icache`]).
    icache: ICache,
    /// Active dispatch mode.
    mode: ExecMode,
    /// Local block-length accumulator: the dispatch loop records here with
    /// no atomics, and `run` folds it into the collector once at exit.
    block_lens: LocalHistogram,
    /// Local trace-length accumulator, folded like `block_lens`.
    trace_lens: LocalHistogram,
    /// Absolute instruction count at which the next profiler sample is
    /// due; `u64::MAX` means the profiler is off, making the disabled-path
    /// cost of every dispatch loop a single always-false compare.
    sample_due: u64,
    /// Profiler sampling interval in instructions.
    sample_interval: u64,
    /// Instruction count already attributed to a sample.
    last_attributed: u64,
    /// The accumulating profile (empty while the profiler is off).
    profile: VmProfile,
}

impl Vm {
    /// Creates a VM over `mem` with `pc` at `entry` and `rsp` at the top of
    /// the target stack.
    #[must_use]
    pub fn new(mem: Memory, entry: u64) -> Self {
        let mut cpu = Cpu::new(entry);
        cpu.set(Reg::RSP, mem.layout().initial_rsp());
        let icache = ICache::new(&mem);
        Vm {
            cpu,
            mem,
            aex: AexInjector::none(),
            stats: ExecStats::default(),
            icache,
            mode: ExecMode::Traced,
            block_lens: LocalHistogram::new(),
            trace_lens: LocalHistogram::new(),
            sample_due: u64::MAX,
            sample_interval: u64::MAX,
            last_attributed: 0,
            profile: VmProfile::default(),
        }
    }

    /// Turns on instruction-count-triggered PC sampling: every `interval`
    /// executed instructions the profiler attributes the elapsed gap to
    /// the current pc. Purely observational — execution, counters and
    /// exits are bit-identical with the profiler on or off — and wall-
    /// clock-free in-run (the trigger is the architectural instruction
    /// counter, never a timer).
    pub fn enable_profiler(&mut self, interval: u64) {
        let interval = interval.max(1);
        self.sample_interval = interval;
        self.last_attributed = self.stats.instructions;
        self.sample_due = self.stats.instructions.saturating_add(interval);
    }

    /// Whether the sampling profiler is on.
    #[must_use]
    pub fn profiler_enabled(&self) -> bool {
        self.sample_due != u64::MAX
    }

    /// Takes the accumulated profile, leaving an empty one in place. Call
    /// after [`Vm::run`] returns — the profiler flushes its final gap at
    /// run exit, so the taken samples sum to exactly the instructions
    /// executed under the profiler so far.
    pub fn take_profile(&mut self) -> VmProfile {
        std::mem::take(&mut self.profile)
    }

    /// Attributes the instructions executed since the last sample to the
    /// current pc and schedules the next sample.
    #[cold]
    fn profile_sample(&mut self) {
        let gap = self.stats.instructions - self.last_attributed;
        if gap > 0 {
            self.profile.samples.push((self.cpu.pc, gap));
        }
        self.last_attributed = self.stats.instructions;
        self.sample_due = self.stats.instructions.saturating_add(self.sample_interval);
    }

    /// Replaces the AEX injector.
    pub fn set_aex(&mut self, aex: AexInjector) {
        self.aex = aex;
    }

    /// Selects the dispatch mode: [`ExecMode::Reference`] is the oracle
    /// for differential tests and the `ablation_icache` bench.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.mode = mode;
    }

    /// Trace-cache event counters accumulated so far.
    #[must_use]
    pub fn trace_stats(&self) -> TraceStats {
        self.icache.trace_stats
    }

    /// Forms superblock traces over the verifier's disassembly at install
    /// time (greedy cover, one trace per address not already covered), so a
    /// full-policy run needs no demand formations at all — the install path
    /// feeds it the verifier's own decode, patched to the post-rewrite
    /// immediates. Decodes come exclusively from `entries`; install-time
    /// work is accounted as `prewarmed`, never as demand formations.
    pub fn prewarm_traces(&mut self, entries: &[(u64, Inst, u8)]) {
        let lens = self.icache.prewarm_traces(&self.mem, entries);
        // Install time is a host-witnessed boundary: fold directly.
        let mut local = LocalHistogram::new();
        for len in lens {
            local.observe(len as u64);
        }
        METRICS.vm_trace_len.merge(&local);
    }

    /// Checks the successor indices of every live trace (see
    /// [`ICache::audit_successor_indices`]); returns how many were checked.
    ///
    /// # Errors
    ///
    /// Describes the first index that addresses the wrong element.
    pub fn audit_trace_indices(&self) -> Result<usize, String> {
        self.icache.audit_successor_indices()
    }

    /// Runs until halt, abort, fault or fuel exhaustion.
    pub fn run(&mut self, fuel: u64, host: &mut dyn VmHost) -> RunExit {
        let tbefore = self.icache.trace_stats;
        let exit = match self.mode {
            ExecMode::Traced => self.run_traced(fuel, host),
            ExecMode::Reference => self.run_reference(fuel, host),
        };
        // Flush hardware-model counters once per ECall-like boundary; the
        // hot loops above never touch the host metrics plane themselves —
        // block/trace lengths accumulate in local histograms and fold in
        // here, after the run, on the host side (see DESIGN.md §5f).
        let tafter = self.icache.trace_stats;
        METRICS.vm_trace_formed.add(tafter.formed - tbefore.formed);
        METRICS.vm_trace_chained.add(tafter.chained - tbefore.chained);
        METRICS.vm_trace_side_exits.add(tafter.side_exits - tbefore.side_exits);
        METRICS.vm_trace_invalidated.add(tafter.invalidated - tbefore.invalidated);
        METRICS.vm_dispatch_block_len.merge(&self.block_lens);
        self.block_lens.clear();
        METRICS.vm_trace_len.merge(&self.trace_lens);
        self.trace_lens.clear();
        // Profiler fold-at-exit: attribute the instructions since the last
        // sample point to the final pc, so the profile's weights sum to
        // exactly the instructions executed (nothing in-run reads a clock
        // or touches shared state; this flush happens after the run, at
        // the boundary the host already witnesses).
        if self.sample_due != u64::MAX {
            self.profile_sample();
        }
        exit
    }

    /// Superblock trace dispatch: the AEX plan splits the run into blocks
    /// between two fire points, so no per-step schedule check is needed;
    /// within a block execution threads through predecoded traces —
    /// crossing direct branches without re-entering the lookup path,
    /// chaining trace to trace, and falling back to single-step dispatch
    /// only where no trace can form.
    fn run_traced(&mut self, fuel: u64, host: &mut dyn VmHost) -> RunExit {
        let mut remaining = fuel;
        // Whether the previous trace completed onto its successor without
        // leaving trace dispatch — the "chained" transition telemetry.
        let mut completed = false;
        while remaining > 0 {
            let (fire, block) = self.aex.plan(self.stats.instructions, remaining);
            if fire {
                self.aex.deliver(&self.cpu, &mut self.mem);
                self.stats.aex_injected += 1;
            }
            self.block_lens.observe(block);
            let mut budget = block;
            while budget > 0 {
                // Profiler check + budget clamp: the clamp keeps a trace
                // run from sailing past the next sample point, so traced
                // dispatch pays no per-element profiler cost — one compare
                // and one min per trace entry (both no-ops at u64::MAX
                // when the profiler is off).
                if self.stats.instructions >= self.sample_due {
                    self.profile_sample();
                }
                let allow = budget.min(self.sample_due.saturating_sub(self.stats.instructions));
                let found = self.icache.lookup_trace(self.cpu.pc, &self.mem);
                let (id, idx) = match found {
                    Some((id, idx)) => {
                        if completed {
                            self.icache.trace_stats.chained += 1;
                        }
                        (id, idx)
                    }
                    None => match self.icache.form_trace(self.cpu.pc, &self.mem) {
                        Some(id) => {
                            self.trace_lens.observe(self.icache.trace(id).elems.len() as u64);
                            (id, 0)
                        }
                        None => {
                            // Out-of-ELRANGE, straddling or undecodable
                            // entry: single-step it from memory (faults
                            // surface here with reference-identical pc
                            // state).
                            completed = false;
                            self.stats.instructions += 1;
                            budget -= 1;
                            let event = self.cpu.step(&mut self.mem);
                            if let Some(exit) = self.hart().dispatch_event(event, host) {
                                return exit;
                            }
                            continue;
                        }
                    },
                };
                let (mut hart, icache) = self.split();
                let (trace, trace_stats) = icache.trace_and_stats(id);
                let (executed, end) = hart.run_trace(trace, trace_stats, idx, allow, host);
                budget -= executed;
                match end {
                    TraceEnd::Exit(exit) => return exit,
                    TraceEnd::Completed => completed = true,
                    TraceEnd::SideExit => {
                        self.icache.trace_stats.side_exits += 1;
                        if self.sample_due != u64::MAX {
                            profile_heat(&mut self.profile.side_exit_pcs, self.cpu.pc);
                        }
                        completed = false;
                    }
                    TraceEnd::Killed => {
                        self.icache.kill(id);
                        completed = false;
                    }
                    TraceEnd::Budget => completed = false,
                }
            }
            remaining -= block;
        }
        RunExit::OutOfFuel
    }

    /// Every field a run step touches, borrowed apart from the icache.
    fn hart(&mut self) -> Hart<'_> {
        self.split().0
    }

    /// Splits the VM into the run-step state and the icache, so a trace
    /// borrowed from the icache's arena stays live while it runs.
    fn split(&mut self) -> (Hart<'_>, &mut ICache) {
        let hart = Hart {
            cpu: &mut self.cpu,
            mem: &mut self.mem,
            stats: &mut self.stats,
            profile: &mut self.profile,
            profiling: self.sample_due != u64::MAX,
        };
        (hart, &mut self.icache)
    }

    /// Reference semantics: fetch + decode every instruction, check the
    /// AEX schedule every instruction.
    fn run_reference(&mut self, fuel: u64, host: &mut dyn VmHost) -> RunExit {
        for _ in 0..fuel {
            if self.stats.instructions >= self.sample_due {
                self.profile_sample();
            }
            self.stats.instructions += 1;
            if self.aex.should_fire(self.stats.instructions) {
                self.aex.deliver(&self.cpu, &mut self.mem);
                self.stats.aex_injected += 1;
            }
            let event = self.cpu.step(&mut self.mem);
            if let Some(exit) = self.hart().dispatch_event(event, host) {
                return exit;
            }
        }
        RunExit::OutOfFuel
    }
}

/// Records `pc` into a heatmap vector, respecting the cap.
fn profile_heat(v: &mut Vec<u64>, pc: u64) {
    if v.len() < PROFILE_HEATMAP_CAP {
        v.push(pc);
    }
}

/// The run-step view of a [`Vm`]: every field an executed instruction or
/// its host service touches — everything but the icache — borrowed apart,
/// so a trace borrowed from the icache's arena stays live across the run
/// with no handle to clone or drop per transition.
struct Hart<'a> {
    cpu: &'a mut Cpu,
    mem: &'a mut Memory,
    stats: &'a mut ExecStats,
    profile: &'a mut VmProfile,
    /// Whether the sampling profiler is on (its heatmaps record).
    profiling: bool,
}

impl Hart<'_> {
    /// Executes up to `budget` elements of `trace` starting at `idx`,
    /// returning how many instructions ran and why the trace ended.
    fn run_trace(
        &mut self,
        trace: &Trace,
        trace_stats: &mut TraceStats,
        mut idx: usize,
        budget: u64,
        host: &mut dyn VmHost,
    ) -> (u64, TraceEnd) {
        let elems = &trace.elems;
        // The architectural instruction counter is flushed at every exit
        // from this loop rather than bumped per element — nothing inside
        // the loop observes it (hosts see only `Cpu`/`Memory`).
        let base = self.stats.instructions;
        let mut executed = 0u64;
        let end = 'run: loop {
            if executed >= budget {
                break 'run TraceEnd::Budget;
            }
            let elem = &elems[idx];
            debug_assert_eq!(self.cpu.pc, elem.pc, "trace dispatch invariant");
            executed += 1;
            let event = self.cpu.execute_pred(&elem.op, self.mem);
            if !matches!(event, Ok(StepEvent::Continue)) {
                self.stats.instructions = base + executed;
                if let Some(exit) = self.dispatch_event(event, host) {
                    break 'run TraceEnd::Exit(exit);
                }
            }
            let flags = elem.flags;
            if flags != 0 {
                if flags & CHECK_GEN != 0 && !self.mem.stamp_current(trace.page, trace.gen) {
                    break 'run TraceEnd::Killed;
                }
                if flags & END != 0 {
                    break 'run TraceEnd::Completed;
                }
                if flags & CHECK_PC != 0 && self.cpu.pc != elem.pred {
                    // In-trace recovery: a mispredicted branch whose other
                    // successor lies inside this very trace (the common
                    // loop diamond) re-enters at the index formation
                    // stored for it instead of bouncing through the
                    // dispatcher's lookup. Only a `Jcc` has one; any other
                    // mismatch (a host moving pc) side-exits.
                    if elem.alt == NO_ELEM {
                        break 'run TraceEnd::SideExit;
                    }
                    trace_stats.side_exits += 1;
                    if self.profiling {
                        profile_heat(&mut self.profile.side_exit_pcs, self.cpu.pc);
                    }
                    idx = elem.alt as usize;
                    continue;
                }
            }
            idx += 1;
            if idx == elems.len() {
                // The walk ended mid-flow (length bound or a cycle closing
                // back into the trace): chain in place when the last
                // element's successor is one of our own elements — the
                // entry wrap (a loop body that is exactly this trace) is
                // the hot case.
                if trace.wrap == NO_ELEM {
                    break 'run TraceEnd::Completed;
                }
                idx = trace.wrap as usize;
                trace_stats.chained += 1;
            }
        };
        self.stats.instructions = base + executed;
        (executed, end)
    }

    /// Folds one step outcome into counters and host service; `Some` means
    /// the run is over.
    fn dispatch_event(
        &mut self,
        event: Result<StepEvent, Fault>,
        host: &mut dyn VmHost,
    ) -> Option<RunExit> {
        match event {
            Ok(StepEvent::Continue) => None,
            Ok(StepEvent::Halted) => Some(RunExit::Halted { exit: self.cpu.get(Reg::RAX) }),
            Ok(StepEvent::PolicyAbort(code)) => {
                if self.profiling {
                    profile_heat(&mut self.profile.guard_trip_pcs, self.cpu.pc);
                }
                Some(RunExit::PolicyAbort { code })
            }
            Ok(StepEvent::Ocall(code)) => {
                self.stats.ocalls += 1;
                match host.ocall(code, self.cpu, self.mem) {
                    Ok(()) => None,
                    Err(f) => Some(RunExit::Fault(f)),
                }
            }
            Ok(StepEvent::AexProbe) => {
                self.stats.probes += 1;
                let ok = host.aex_probe();
                self.cpu.set(Reg::RAX, ok as u64);
                None
            }
            Err(f) => {
                if self.profiling {
                    profile_heat(&mut self.profile.guard_trip_pcs, self.cpu.pc);
                }
                Some(RunExit::Fault(f))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aex::AexSchedule;
    use crate::layout::{EnclaveLayout, MemConfig};
    use deflection_isa::{encode_program, Inst};

    fn vm_with(prog: &[Inst]) -> Vm {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut mem = Memory::new(layout.clone());
        let (bytes, _) = encode_program(prog);
        mem.poke_bytes(layout.code.start, &bytes).unwrap();
        Vm::new(mem, layout.code.start)
    }

    #[test]
    fn runs_to_halt() {
        let mut vm = vm_with(&[Inst::MovRI { dst: Reg::RAX, imm: 11 }, Inst::Halt]);
        let exit = vm.run(100, &mut NullHost);
        assert_eq!(exit, RunExit::Halted { exit: 11 });
        assert_eq!(vm.stats.instructions, 2);
    }

    #[test]
    fn fuel_limit_enforced() {
        // Infinite loop: jmp -5 (back onto itself).
        let mut vm = vm_with(&[Inst::Jmp { rel: -5 }]);
        let exit = vm.run(1000, &mut NullHost);
        assert_eq!(exit, RunExit::OutOfFuel);
        assert_eq!(vm.stats.instructions, 1000);
    }

    #[test]
    fn null_host_denies_ocalls() {
        let mut vm = vm_with(&[Inst::Ocall { code: 0 }, Inst::Halt]);
        let exit = vm.run(100, &mut NullHost);
        assert_eq!(exit, RunExit::Fault(Fault::OcallDenied { code: 0 }));
    }

    #[test]
    fn probe_result_lands_in_rax() {
        struct AlarmHost;
        impl VmHost for AlarmHost {
            fn ocall(&mut self, code: u8, _: &mut Cpu, _: &mut Memory) -> Result<(), Fault> {
                Err(Fault::OcallDenied { code })
            }
            fn aex_probe(&mut self) -> bool {
                false
            }
        }
        let mut vm = vm_with(&[Inst::AexProbe, Inst::Halt]);
        let exit = vm.run(100, &mut AlarmHost);
        assert_eq!(exit, RunExit::Halted { exit: 0 });
        assert_eq!(vm.stats.probes, 1);
    }

    #[test]
    fn aex_injection_counts_and_clobbers_marker() {
        let mut vm = vm_with(&[
            Inst::Jmp { rel: -5 }, // spin
        ]);
        let layout = vm.mem.layout().clone();
        vm.mem.poke_u64(layout.ssa_marker_slot(), 0x5A5A).unwrap();
        vm.set_aex(AexInjector::new(AexSchedule::Periodic { interval: 10 }));
        let _ = vm.run(100, &mut NullHost);
        assert_eq!(vm.stats.aex_injected, 10);
        assert_ne!(vm.mem.peek_u64(layout.ssa_marker_slot()).unwrap(), 0x5A5A);
    }

    #[test]
    fn traced_and_reference_agree_under_aex() {
        // A loop with periodic AEX: traced and reference dispatch must land
        // on exactly the same counters and exit.
        let build = |rel: i32| {
            vec![
                Inst::AluRI { op: deflection_isa::AluOp::Add, dst: Reg::RBX, imm: 1 },
                Inst::CmpRI { lhs: Reg::RBX, imm: 40 },
                Inst::Jcc { cc: deflection_isa::CondCode::B, rel },
                Inst::MovRI { dst: Reg::RAX, imm: 7 },
                Inst::Halt,
            ]
        };
        let (_, offs) = encode_program(&build(0));
        let prog = build(-(offs[3] as i32)); // back to the add
        let run_mode = |mode: ExecMode| {
            let mut vm = vm_with(&prog);
            vm.set_exec_mode(mode);
            vm.set_aex(AexInjector::new(AexSchedule::Periodic { interval: 13 }));
            let exit = vm.run(10_000, &mut NullHost);
            (exit, vm.stats, vm.trace_stats())
        };
        let (exit_t, stats_t, traces_t) = run_mode(ExecMode::Traced);
        let (exit_r, stats_r, traces_r) = run_mode(ExecMode::Reference);
        assert_eq!(exit_t, RunExit::Halted { exit: 7 });
        assert_eq!(exit_t, exit_r);
        assert_eq!(stats_t, stats_r);
        // Traced mode really traced: the backward Jcc kept the loop inside
        // one trace (wrapping counts as chaining) and the final fallthrough
        // side-exited it exactly once.
        assert!(traces_t.formed >= 1);
        assert!(traces_t.chained > 0);
        assert_eq!(traces_t.side_exits, 1);
        // The oracle never touched the traces.
        assert_eq!(traces_r, TraceStats::default());
    }

    #[test]
    fn page_straddling_instruction_single_steps_identically_under_aex() {
        // Nop padding puts the loop head — a 10-byte MovRI — at code offset
        // 0xffb, so it straddles the first code page. No trace can start on
        // it, so traced dispatch single-steps
        // it on every iteration; the reference interpreter must agree on
        // exit, counters and every register.
        const HEAD: usize = 0xffb;
        let build = |rel: i32| {
            let mut prog = vec![Inst::Nop; HEAD];
            prog.extend([
                Inst::MovRI { dst: Reg::RCX, imm: 0x1122_3344_5566_7788 },
                Inst::AluRI { op: deflection_isa::AluOp::Add, dst: Reg::RBX, imm: 1 },
                Inst::AluRR { op: deflection_isa::AluOp::Add, dst: Reg::RDX, src: Reg::RBX },
                Inst::CmpRI { lhs: Reg::RBX, imm: 40 },
                Inst::Jcc { cc: deflection_isa::CondCode::B, rel },
                Inst::MovRI { dst: Reg::RAX, imm: 7 },
                Inst::Halt,
            ]);
            prog
        };
        let (_, offs) = encode_program(&build(0));
        assert_eq!(offs[HEAD], 0xffb);
        assert_eq!(offs[HEAD + 1] - offs[HEAD], 10, "the loop head must straddle the page");
        let prog = build(-((offs[HEAD + 5] - offs[HEAD]) as i32)); // back to the MovRI
        let run_mode = |mode: ExecMode| {
            let mut vm = vm_with(&prog);
            assert_eq!(vm.mem.layout().code.start % crate::layout::PAGE_SIZE, 0);
            vm.set_exec_mode(mode);
            vm.set_aex(AexInjector::new(AexSchedule::Periodic { interval: 13 }));
            let exit = vm.run(1_000_000, &mut NullHost);
            (exit, vm.stats, (vm.cpu.regs, vm.cpu.flags, vm.cpu.pc))
        };
        let (exit_t, stats_t, cpu_t) = run_mode(ExecMode::Traced);
        let (exit_r, stats_r, cpu_r) = run_mode(ExecMode::Reference);
        assert_eq!(exit_t, RunExit::Halted { exit: 7 });
        assert_eq!(exit_t, exit_r);
        assert_eq!(stats_t, stats_r);
        assert_eq!(stats_t.instructions, HEAD as u64 + 5 * 40 + 2);
        assert_eq!(stats_t.aex_injected, stats_t.instructions / 13);
        assert_eq!(cpu_t, cpu_r);
    }

    #[test]
    fn trace_crosses_direct_branches_in_one_formation() {
        // jmp over a dead mov, then a call/ret pair: Jmp and Call both stay
        // inside one trace; Ret ends it and chains back through the index.
        let build = |jmp_rel: i32, call_rel: i32| {
            vec![
                Inst::Jmp { rel: jmp_rel },             // 0: over the dead mov
                Inst::MovRI { dst: Reg::RAX, imm: 99 }, // 1: dead
                Inst::Call { rel: call_rel },           // 2
                Inst::Halt,                             // 3
                Inst::MovRI { dst: Reg::RAX, imm: 21 }, // 4: callee
                Inst::Ret,                              // 5
            ]
        };
        let (_, offs) = encode_program(&build(0, 0));
        let prog = build(
            (offs[2] - offs[1]) as i32, // jmp → call
            (offs[4] - offs[3]) as i32, // call → callee
        );
        let mut vm = vm_with(&prog);
        vm.set_exec_mode(ExecMode::Traced);
        assert_eq!(vm.run(100, &mut NullHost), RunExit::Halted { exit: 21 });
        let t = vm.trace_stats();
        // One trace covers jmp→call→mov→ret (crossing two direct edges);
        // the Ret ends it and the Halt continuation chains or forms anew.
        assert!(t.formed >= 1);
        assert!(t.formed <= 2, "direct edges must not fragment the trace: {t:?}");
        assert_eq!(vm.stats.instructions, 5);
    }

    #[test]
    fn store_into_own_trace_page_kills_it_mid_run() {
        // A store patches the immediate of the *following* instruction in
        // the same trace. The stamp re-check after the store must kill the
        // trace before the stale successor executes.
        use deflection_isa::MemOperand;
        let layout = EnclaveLayout::new(MemConfig::small());
        let (_, offs) = encode_program(&[
            Inst::MovRI { dst: Reg::RBX, imm: 0 },
            Inst::Store { mem: MemOperand::abs(0), src: Reg::RBX },
            Inst::MovRI { dst: Reg::RAX, imm: 1 },
            Inst::Halt,
        ]);
        // Patch target: the imm field (at +2) of the MovRI after the store.
        let patch = layout.code.start + offs[2] as u64 + 2;
        let prog = [
            Inst::MovRI { dst: Reg::RBX, imm: 77 },
            Inst::Store { mem: MemOperand::abs(patch as i32), src: Reg::RBX },
            Inst::MovRI { dst: Reg::RAX, imm: 1 }, // becomes imm: 77 at runtime
            Inst::Halt,
        ];
        for mode in [ExecMode::Traced, ExecMode::Reference] {
            let mut vm = vm_with(&prog);
            vm.set_exec_mode(mode);
            let exit = vm.run(100, &mut NullHost);
            assert_eq!(exit, RunExit::Halted { exit: 77 }, "{mode:?}");
            if mode == ExecMode::Traced {
                assert!(vm.trace_stats().invalidated >= 1, "store must kill the live trace");
            }
        }
    }

    #[test]
    fn prewarmed_traces_need_no_demand_formation() {
        let prog = [Inst::MovRI { dst: Reg::RAX, imm: 9 }, Inst::Nop, Inst::Nop, Inst::Halt];
        let mut vm = vm_with(&prog);
        vm.set_exec_mode(ExecMode::Traced);
        let (_, offs) = encode_program(&prog);
        let base = vm.mem.layout().code.start;
        let entries: Vec<(u64, Inst, u8)> = prog
            .iter()
            .enumerate()
            .map(|(i, &inst)| {
                let end = if i + 1 < offs.len() { offs[i + 1] } else { offs[i] + 1 };
                (base + offs[i] as u64, inst, (end - offs[i]) as u8)
            })
            .collect();
        vm.prewarm_traces(&entries);
        let warmed = vm.trace_stats();
        assert!(warmed.prewarmed >= 1);
        assert_eq!(warmed.formed, 0);
        assert_eq!(vm.run(100, &mut NullHost), RunExit::Halted { exit: 9 });
        assert_eq!(vm.trace_stats().formed, 0, "prewarmed cover must serve the whole run");
    }

    #[test]
    fn self_modifying_code_re_decodes_through_a_new_trace() {
        // The program patches the immediate of its own first instruction
        // (exactly what the in-enclave rewriter does post-verification, here
        // done by the target itself mid-run) and loops back. A stale trace
        // would spin forever; a coherent one observes the new value.
        use deflection_isa::{CondCode, MemOperand};
        let layout = EnclaveLayout::new(MemConfig::small());
        let patch_addr = layout.code.start + 2; // MovRI imm bytes live at +2
        let build = |jcc_rel: i32, jmp_rel: i32| {
            vec![
                Inst::MovRI { dst: Reg::RAX, imm: 0x11 },
                Inst::CmpRI { lhs: Reg::RAX, imm: 0x22 },
                Inst::Jcc { cc: CondCode::E, rel: jcc_rel },
                Inst::MovRI { dst: Reg::RBX, imm: 0x22 },
                Inst::Store { mem: MemOperand::abs(patch_addr as i32), src: Reg::RBX },
                Inst::Jmp { rel: jmp_rel },
                Inst::Halt,
            ]
        };
        let (_, offs) = encode_program(&build(0, 0));
        let prog = build(
            (offs[6] - offs[3]) as i32,    // Jcc → Halt
            -((offs[6] - offs[0]) as i32), // Jmp → back to the MovRI
        );
        for mode in [ExecMode::Traced, ExecMode::Reference] {
            let mut vm = vm_with(&prog);
            vm.set_exec_mode(mode);
            let exit = vm.run(1000, &mut NullHost);
            assert_eq!(exit, RunExit::Halted { exit: 0x22 }, "{mode:?}");
            if mode == ExecMode::Traced {
                assert!(vm.trace_stats().invalidated >= 1);
            }
        }
    }

    #[test]
    fn profiler_attribution_sums_to_executed_instructions_in_every_mode() {
        let build = |rel: i32| {
            vec![
                Inst::AluRI { op: deflection_isa::AluOp::Add, dst: Reg::RBX, imm: 1 },
                Inst::CmpRI { lhs: Reg::RBX, imm: 200 },
                Inst::Jcc { cc: deflection_isa::CondCode::B, rel },
                Inst::MovRI { dst: Reg::RAX, imm: 7 },
                Inst::Halt,
            ]
        };
        let (_, offs) = encode_program(&build(0));
        let prog = build(-(offs[3] as i32));
        for mode in [ExecMode::Traced, ExecMode::Reference] {
            // Baseline without the profiler: identical exit and stats.
            let mut base = vm_with(&prog);
            base.set_exec_mode(mode);
            let base_exit = base.run(10_000, &mut NullHost);
            let mut vm = vm_with(&prog);
            vm.set_exec_mode(mode);
            vm.enable_profiler(17);
            let exit = vm.run(10_000, &mut NullHost);
            assert_eq!(exit, base_exit, "{mode:?}: profiler changed the exit");
            assert_eq!(vm.stats, base.stats, "{mode:?}: profiler changed the counters");
            let profile = vm.take_profile();
            assert_eq!(
                profile.total_weight(),
                vm.stats.instructions,
                "{mode:?}: attribution must sum to executed instructions"
            );
            assert!(profile.samples.len() > 1, "{mode:?}: interval 17 must sample repeatedly");
            // Sampled pcs land inside the code window.
            let code = vm.mem.layout().code;
            for &(pc, _) in &profile.samples {
                assert!(code.contains(pc), "{mode:?}: sample pc {pc:#x} outside code");
            }
            // A second take is empty (take_profile drains).
            assert_eq!(vm.take_profile(), VmProfile::default());
        }
    }

    #[test]
    fn profiler_records_guard_trip_heatmap_on_abort() {
        let mut vm = vm_with(&[Inst::Abort { code: 9 }]);
        vm.enable_profiler(1000);
        assert_eq!(vm.run(10, &mut NullHost), RunExit::PolicyAbort { code: 9 });
        let profile = vm.take_profile();
        assert_eq!(profile.guard_trip_pcs.len(), 1);
        assert_eq!(profile.total_weight(), vm.stats.instructions);
    }

    #[test]
    fn disabled_profiler_accumulates_nothing() {
        let mut vm = vm_with(&[Inst::MovRI { dst: Reg::RAX, imm: 1 }, Inst::Halt]);
        assert!(!vm.profiler_enabled());
        let _ = vm.run(100, &mut NullHost);
        assert_eq!(vm.take_profile(), VmProfile::default());
    }

    #[test]
    fn policy_abort_surfaces_code() {
        let mut vm = vm_with(&[Inst::Abort { code: 5 }]);
        assert_eq!(vm.run(10, &mut NullHost), RunExit::PolicyAbort { code: 5 });
    }

    #[test]
    fn exit_value_helper() {
        assert_eq!(RunExit::Halted { exit: 3 }.exit_value(), Some(3));
        assert_eq!(RunExit::OutOfFuel.exit_value(), None);
    }
}
