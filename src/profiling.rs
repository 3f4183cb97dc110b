//! Host-side aggregation of the VM sampling profiler (DESIGN.md §5j).
//!
//! The VM collects `(pc, weight)` samples in a local buffer and folds them
//! once at run exit; this module runs a workload under the profiler and
//! attributes the folded samples to functions via [`function_of_offset`]
//! over the verifier's function entries, producing a hot-function table and
//! flamegraph-ready collapsed stacks. Everything here is untrusted host
//! tooling: it consumes the run report and the profile after the ECall
//! returns, and none of it enters the TCB.

use crate::core::consumer::{discover, resolve};
use crate::core::policy::{Manifest, PolicySet};
use crate::core::producer::produce_for_layout;
use crate::core::runtime::BootstrapEnclave;
use crate::isa::Disassembly;
use crate::sgx::layout::{EnclaveLayout, MemConfig};
use crate::sgx::vm::{RunExit, VmProfile};
use crate::workloads::nbench::Kernel;
use std::collections::HashMap;

/// Default sampling interval: one PC sample per this many executed
/// instructions. Small enough to resolve short nBench helpers, large
/// enough that the sample buffer stays tiny.
pub const DEFAULT_INTERVAL: u64 = 64;

/// Self-time attributed to one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionProfile {
    /// Symbol name when the object file has one for the entry, otherwise
    /// `fn_<index>@<offset>`.
    pub name: String,
    /// Code-relative offset of the function entry.
    pub entry: usize,
    /// Instructions attributed to pcs inside this function.
    pub self_weight: u64,
    /// Number of samples that landed in this function.
    pub samples: usize,
}

/// One heatmap entry: a pc that tripped a guard or left a trace early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeatEntry {
    /// Function containing the pc.
    pub function: String,
    /// Code-relative offset of the pc.
    pub offset: usize,
    /// How many times it fired.
    pub count: u64,
}

/// An attributed profile of one workload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Workload name (flamegraph root frame).
    pub kernel: String,
    /// Instructions executed under the profiler (run total minus any
    /// processing-time-blur padding, which is idle by construction).
    pub instructions: u64,
    /// Sum of all sample weights — equals `instructions` by the profiler's
    /// fold-at-exit invariant.
    pub total_weight: u64,
    /// Per-function self-time, heaviest first (ties broken by entry
    /// offset so the table is deterministic).
    pub functions: Vec<FunctionProfile>,
    /// Guard-trip heatmap (policy aborts and faults), hottest first.
    pub guard_trips: Vec<HeatEntry>,
    /// Trace side-exit heatmap, hottest first.
    pub side_exits: Vec<HeatEntry>,
}

impl ProfileReport {
    /// Renders the hot-function table.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>7} {:>8}\n",
            "function", "self instrs", "%", "samples"
        ));
        for f in &self.functions {
            let pct = if self.total_weight == 0 {
                0.0
            } else {
                f.self_weight as f64 / self.total_weight as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<28} {:>12} {:>6.1}% {:>8}\n",
                f.name, f.self_weight, pct, f.samples
            ));
        }
        out.push_str(&format!(
            "{:<28} {:>12} {:>6.1}% {:>8}\n",
            "total",
            self.total_weight,
            100.0,
            self.functions.iter().map(|f| f.samples).sum::<usize>()
        ));
        out
    }

    /// Flamegraph-ready collapsed stacks: one `kernel;function weight`
    /// line per function with self-time (the VM has no call-stack
    /// unwinder, so every stack is the two-frame `root;function` form).
    #[must_use]
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for f in &self.functions {
            if f.self_weight > 0 {
                out.push_str(&format!("{};{} {}\n", self.kernel, f.name, f.self_weight));
            }
        }
        out
    }
}

/// Produces, installs and runs `source` with the sampling profiler armed,
/// then attributes the folded samples to functions.
///
/// # Errors
///
/// Returns a message when the workload fails to build, verify, or halt.
pub fn profile_source(
    name: &str,
    source: &str,
    input: &[u8],
    interval: u64,
) -> Result<ProfileReport, String> {
    let policy = PolicySet::full();
    let mut manifest = Manifest::ccaas();
    manifest.policy = policy;
    let layout = EnclaveLayout::new(MemConfig::small());
    let obj = produce_for_layout(source, &policy, &layout).map_err(|e| format!("producer: {e}"))?;
    let binary = obj.serialize();

    // Host-side attribution context: the resolved text the verifier sees,
    // its function partition, and symbol names for the entries.
    let resolved = resolve(&obj, &layout).map_err(|e| format!("resolve: {e:?}"))?;
    let entry = usize::try_from(resolved.entry_va - layout.code.start)
        .map_err(|e| format!("entry: {e}"))?;
    let verified = discover(&resolved.text, entry, &resolved.ibt_offsets)
        .map_err(|e| format!("discover: {e:?}"))?;
    let mut name_by_offset: HashMap<usize, &str> = HashMap::new();
    for (sym, &va) in &resolved.symbols {
        if let Some(off) = va.checked_sub(layout.code.start) {
            if let Ok(off) = usize::try_from(off) {
                name_by_offset.insert(off, sym);
            }
        }
    }
    let entries = verified.disassembly.function_entries().to_vec();
    let names: Vec<String> = entries
        .iter()
        .enumerate()
        .map(|(i, &e)| {
            name_by_offset.get(&e).map_or_else(|| format!("fn_{i}@{e:#x}"), |s| (*s).to_string())
        })
        .collect();

    let mut enclave = BootstrapEnclave::new(layout.clone(), manifest);
    enclave.set_owner_session([0xAB; 32]);
    enclave.install_plain(&binary).map_err(|e| format!("install: {e}"))?;
    enclave.enable_profiler(interval.max(1));
    if !input.is_empty() {
        enclave.provide_input(input).map_err(|e| format!("input: {e}"))?;
    }
    let report = enclave.run(u64::MAX / 2).map_err(|e| format!("run: {e}"))?;
    if !matches!(report.exit, RunExit::Halted { .. }) {
        return Err(format!("workload did not halt: {:?}", report.exit));
    }
    let profile = enclave.take_profile();
    let executed = report.stats.instructions - report.blur_padding;
    Ok(attribute(name, &profile, executed, &verified.disassembly, &layout, &names))
}

/// [`profile_source`] for one nBench kernel at the given workload scale.
///
/// # Errors
///
/// Same failure modes as [`profile_source`].
pub fn profile_nbench(kernel: &Kernel, scale: u32, interval: u64) -> Result<ProfileReport, String> {
    let source = (kernel.source)();
    let input = (kernel.input)(scale);
    profile_source(kernel.name, &source, &input, interval)
}

/// Index into [`Disassembly::function_entries`] of the function whose
/// address range contains `offset`: the closest entry at or below it
/// (offsets below the first entry belong to the first function).
#[must_use]
pub fn function_of_offset(disasm: &Disassembly, offset: usize) -> usize {
    disasm.function_entries().partition_point(|&e| e <= offset).saturating_sub(1)
}

/// Folds a raw [`VmProfile`] into per-function self-time and heatmaps.
fn attribute(
    kernel: &str,
    profile: &VmProfile,
    instructions: u64,
    disasm: &Disassembly,
    layout: &EnclaveLayout,
    names: &[String],
) -> ProfileReport {
    let func_of_pc = |pc: u64| -> usize {
        let off = usize::try_from(pc.saturating_sub(layout.code.start)).unwrap_or(0);
        function_of_offset(disasm, off)
    };
    let mut weight = vec![0u64; names.len()];
    let mut samples = vec![0usize; names.len()];
    for &(pc, w) in &profile.samples {
        let f = func_of_pc(pc);
        weight[f] += w;
        samples[f] += 1;
    }
    let mut functions: Vec<FunctionProfile> = names
        .iter()
        .enumerate()
        .filter(|&(i, _)| samples[i] > 0)
        .map(|(i, name)| FunctionProfile {
            name: name.clone(),
            entry: disasm.function_entries()[i],
            self_weight: weight[i],
            samples: samples[i],
        })
        .collect();
    functions.sort_by(|a, b| b.self_weight.cmp(&a.self_weight).then(a.entry.cmp(&b.entry)));

    let heat = |pcs: &[u64]| -> Vec<HeatEntry> {
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for &pc in pcs {
            *counts.entry(pc).or_insert(0) += 1;
        }
        let mut out: Vec<HeatEntry> = counts
            .into_iter()
            .map(|(pc, count)| HeatEntry {
                function: names[func_of_pc(pc)].clone(),
                offset: usize::try_from(pc.saturating_sub(layout.code.start)).unwrap_or(0),
                count,
            })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.offset.cmp(&b.offset)));
        out
    };

    ProfileReport {
        kernel: kernel.to_string(),
        instructions,
        total_weight: profile.total_weight(),
        functions,
        guard_trips: heat(&profile.guard_trip_pcs),
        side_exits: heat(&profile.side_exit_pcs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{disassemble, encode_program, Inst, Reg};
    use crate::workloads::nbench;

    #[test]
    fn offsets_map_to_the_closest_function_entry_below() {
        let prog = [
            Inst::Call { rel: 3 },          // 0..5: callee at 8
            Inst::JmpInd { reg: Reg::RAX }, // 5..7
            Inst::Nop,                      // 7 (dead)
            Inst::Ret,                      // 8: direct callee
            Inst::Halt,                     // 9: indirect target
        ];
        let (code, offsets) = encode_program(&prog);
        let d = disassemble(&code, 0, &[offsets[4]]).expect("disassembles");
        assert_eq!(function_of_offset(&d, 0), 0);
        assert_eq!(function_of_offset(&d, offsets[1]), 0);
        assert_eq!(function_of_offset(&d, offsets[3]), 1);
        assert_eq!(function_of_offset(&d, offsets[4]), 2);
    }

    #[test]
    fn profiles_nbench_kernels_with_exact_attribution() {
        // Acceptance: attribution sums to total executed instructions on
        // at least three nBench kernels, through the full pipeline.
        let mut checked = 0;
        for kernel in nbench::all().iter().take(3) {
            let report = profile_nbench(kernel, 1, DEFAULT_INTERVAL).expect("kernel profiles");
            assert_eq!(
                report.total_weight, report.instructions,
                "{}: sample weights must sum to executed instructions",
                kernel.name
            );
            assert!(!report.functions.is_empty(), "{}: no samples attributed", kernel.name);
            let listed: u64 = report.functions.iter().map(|f| f.self_weight).sum();
            assert_eq!(listed, report.total_weight, "{}: table must be lossless", kernel.name);
            assert!(report.table().contains("function"));
            checked += 1;
        }
        assert_eq!(checked, 3);
    }

    #[test]
    fn collapsed_stacks_are_flamegraph_shaped() {
        let kernels = nbench::all();
        let kernel = kernels.iter().find(|k| k.name == "NUMERIC SORT").expect("kernel exists");
        let report = profile_nbench(kernel, 1, DEFAULT_INTERVAL).expect("kernel profiles");
        let collapsed = report.collapsed();
        assert!(!collapsed.is_empty());
        for line in collapsed.lines() {
            let (stack, weight) = line.rsplit_once(' ').expect("weight column");
            assert!(stack.starts_with("NUMERIC SORT;"), "root frame is the kernel: {line}");
            assert!(weight.parse::<u64>().is_ok(), "weight is integral: {line}");
        }
    }
}
