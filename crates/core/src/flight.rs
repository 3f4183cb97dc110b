//! Host-side telemetry, flight-recorder and profiler plumbing.
//!
//! Everything here observes facts the untrusted host already witnesses —
//! the `RunReport` an ECall returns, the profiler arm/collect toggles of
//! the simulated VM — so it lives outside the counted in-enclave TCB
//! sources (`table1_tcb`; DESIGN.md §5e, §5j). The runtime and the
//! verifier contain no recording sites; the pool calls
//! [`record_run_report`] at its serve boundary.

use crate::runtime::{BootstrapEnclave, RunReport};
use deflection_sgx_sim::vm::{RunExit, VmProfile};
use deflection_sgx_sim::Fault;
use deflection_telemetry::flightrec::{self, EventKind};
use deflection_telemetry::METRICS;

/// Records one completed ECall's run metrics and its `Run` (and, when
/// output was sealed, `Seal`) flight events, attributed to the ambient
/// trace. Every payload is a fact of the report the host is holding:
/// cumulative instruction count, exit tag, sealed record count, total
/// sealed bytes (fixed-length ciphertexts, so the padded-away plaintext
/// length never reaches the metrics plane) and a budget-exhaustion fault.
pub(crate) fn record_run_report(report: &RunReport) {
    let exit_tag = match &report.exit {
        RunExit::Halted { .. } => 0,
        RunExit::PolicyAbort { .. } => 1,
        RunExit::Fault(_) => 2,
        RunExit::OutOfFuel => 3,
    };
    if matches!(&report.exit, RunExit::Fault(Fault::OcallFailed { reason, .. })
        if reason.ends_with("entropy budget exhausted"))
    {
        METRICS.run_budget_exhaustions.add(1);
    }
    let sealed: usize = report.records.iter().map(Vec::len).sum();
    METRICS.run_reports.add(1);
    METRICS.run_sent_bytes.observe(sealed as u64);
    flightrec::record_ambient(EventKind::Run, report.stats.instructions, exit_tag);
    if !report.records.is_empty() {
        flightrec::record_ambient(EventKind::Seal, report.records.len() as u64, sealed as u64);
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
