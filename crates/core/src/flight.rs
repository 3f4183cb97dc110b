//! Host-side flight-recorder and profiler plumbing.
//!
//! Everything here observes facts the untrusted host already witnesses —
//! the `RunReport` an ECall returns, the profiler arm/collect toggles of
//! the simulated VM — so it lives outside the counted in-enclave TCB
//! sources (`table1_tcb`; DESIGN.md §5j). The runtime itself contains no
//! flight recording sites; the pool calls [`record_run_report`] at its
//! serve boundary, and verify-phase events are derived inside the telemetry
//! crate from the verifier's existing span instrumentation.

use crate::runtime::{BootstrapEnclave, RunReport};
use deflection_sgx_sim::vm::{RunExit, VmProfile};
use deflection_telemetry::flightrec::{self, EventKind};

/// Records the `Run` (and, when output was sealed, `Seal`) flight events
/// for one completed ECall, attributed to the ambient trace. The payloads
/// are facts of the report the host is holding: cumulative instruction
/// count, exit tag, sealed record count and total sealed bytes.
pub(crate) fn record_run_report(report: &RunReport) {
    let exit_tag = match &report.exit {
        RunExit::Halted { .. } => 0,
        RunExit::PolicyAbort { .. } => 1,
        RunExit::Fault(_) => 2,
        RunExit::OutOfFuel => 3,
    };
    flightrec::record_ambient(EventKind::Run, report.stats.instructions, exit_tag);
    if !report.records.is_empty() {
        let bytes: usize = report.records.iter().map(Vec::len).sum();
        flightrec::record_ambient(EventKind::Seal, report.records.len() as u64, bytes as u64);
    }
}

impl BootstrapEnclave {
    /// Arms the VM sampling profiler: one PC sample per `interval`
    /// executed instructions, accumulated in a VM-local buffer and folded
    /// only at run exit (the same boundary rule the icache counters
    /// follow). Stays armed across subsequent runs until disarmed.
    ///
    /// # Panics
    ///
    /// Panics if no binary is installed.
    pub fn enable_profiler(&mut self, interval: u64) {
        self.vm.as_mut().expect("binary installed").enable_profiler(interval);
    }

    /// Takes (and clears) the profile accumulated since the profiler was
    /// armed; the profiler stays armed for subsequent runs.
    ///
    /// # Panics
    ///
    /// Panics if no binary is installed.
    pub fn take_profile(&mut self) -> VmProfile {
        self.vm.as_mut().expect("binary installed").take_profile()
    }
}
