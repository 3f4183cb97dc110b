//! # deflection-bench
//!
//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (Section VI-B). Each Criterion bench target prints a
//! paper-style table built from deterministic instruction counts and
//! wall-clock measurements, then registers a few representative Criterion
//! measurements.
//!
//! Two measures are reported everywhere:
//!
//! * **instruction overhead** — executed VM instructions relative to the
//!   uninstrumented baseline; deterministic, noise-free, and the primary
//!   basis for comparing the *shape* against the paper's percentages;
//! * **wall time** — end-to-end time of the in-enclave run on this machine.
//!
//! The shielding-runtime comparison (Fig. 11) and the concurrency curves
//! (Fig. 10) additionally use the calibrated cost models in
//! [`runtime_models`] and the closed-loop simulator in [`queueing`] — see
//! DESIGN.md for why those are models rather than measurements.

#![forbid(unsafe_code)]

pub mod queueing;
pub mod runtime_models;
pub mod serving;
pub mod tcb;

use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::{produce, produce_for_layout};
use deflection_core::runtime::{BootstrapEnclave, RunReport};
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_sgx_sim::vm::{ExecMode, RunExit};
use std::time::{Duration, Instant};

/// Result of measuring one workload at one policy level.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Executed VM instructions.
    pub instructions: u64,
    /// Wall time of the run.
    pub wall: Duration,
    /// Loaded binary size in bytes.
    pub binary_len: usize,
}

/// Measures one run of `source` with `input` under `policy`.
///
/// # Panics
///
/// Panics if the workload does not halt cleanly — benchmark fixtures are
/// trusted.
#[must_use]
pub fn measure(source: &str, input: &[u8], policy: &PolicySet, config: &MemConfig) -> Sample {
    measure_exec_mode(source, input, policy, config, ExecMode::Traced)
}

/// [`measure`] pinned to one of the VM's dispatch modes: superblock traces
/// (the production path) or the decode-every-step reference oracle. The
/// `ablation_icache` bench diffs the two; everything else measures the
/// production configuration.
///
/// # Panics
///
/// Panics if the workload does not halt cleanly — benchmark fixtures are
/// trusted.
#[must_use]
pub fn measure_exec_mode(
    source: &str,
    input: &[u8],
    policy: &PolicySet,
    config: &MemConfig,
    mode: ExecMode,
) -> Sample {
    let mut manifest = Manifest::ccaas();
    manifest.policy = *policy;
    let layout = EnclaveLayout::new(*config);
    let obj = if policy.elide_guards {
        produce_for_layout(source, policy, &layout)
    } else {
        produce(source, policy)
    };
    let binary = obj.expect("bench source compiles").serialize();
    // Boxed, as the pool's instances are: on the stack, the VM's speed moves
    // with the stack's per-process offset (EXPERIMENTS.md, icache ablation).
    let mut enclave = Box::new(BootstrapEnclave::new(layout, manifest));
    enclave.set_owner_session([0xBE; 32]);
    enclave.install_plain(&binary).expect("bench binary verifies");
    enclave.set_exec_mode(mode);
    if !input.is_empty() {
        enclave.provide_input(input).expect("installed");
    }
    let start = Instant::now();
    let report = enclave.run(u64::MAX / 2).expect("installed");
    let wall = start.elapsed();
    assert!(
        matches!(report.exit, RunExit::Halted { .. }),
        "bench workload must halt: {:?}",
        report.exit
    );
    Sample { instructions: report.stats.instructions, wall, binary_len: binary.len() }
}

/// Relative overhead in percent (`new` vs `base`).
#[must_use]
pub fn overhead_pct(base: u64, new: u64) -> f64 {
    (new as f64 - base as f64) / base as f64 * 100.0
}

/// Formats a percentage the way the paper's Table II does (`+5.18%`).
#[must_use]
pub fn fmt_pct(pct: f64) -> String {
    format!("{pct:+.2}%")
}

/// Measures a workload at the baseline and all four paper policy levels;
/// returns `(baseline, [p1, p1p2, p1p5, p1p6])`.
#[must_use]
pub fn sweep_levels(source: &str, input: &[u8], config: &MemConfig) -> (Sample, Vec<Sample>) {
    let baseline = measure(source, input, &PolicySet::none(), config);
    let levels =
        PolicySet::levels().iter().map(|(_, p)| measure(source, input, p, config)).collect();
    (baseline, levels)
}

/// The workload of the observability overhead ablations
/// (`ablation_telemetry`, `ablation_flightrec`): a 4096-step loop that
/// sends one record.
pub const OVERHEAD_WORKLOAD: &str = "
    var acc: [int; 64];
    fn main() -> int {
        var n: int = input_len();
        var i: int = 0;
        while (i < 4096) {
            acc[i & 63] = acc[i & 63] + i * n;
            i = i + 1;
        }
        output_byte(0, acc[7] & 0xFF);
        send(1);
        return acc[7];
    }
";

/// One full verify+serve flow through a 1-worker pool: the verifying
/// install (consumer pipeline) plus one served request. The pool is the
/// host side of both ECalls, where every recording site sits, and a
/// 1-worker pool serves on the calling thread.
///
/// # Panics
///
/// Panics if `binary` does not verify or serve — bench fixtures are
/// trusted.
#[must_use]
pub fn verify_and_serve(binary: &[u8]) -> RunReport {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &manifest, 1);
    pool.set_owner_session([0xC4; 32]);
    pool.install_all(binary).expect("bench binary verifies");
    let mut reports = pool.serve_parallel(&[[3u8, 5, 7]], u64::MAX / 2).expect("installed");
    reports.pop().expect("one report per request")
}

/// Median wall time of `runs` repetitions of [`verify_and_serve`].
#[must_use]
pub fn median_flow_time(binary: &[u8], runs: usize) -> Duration {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(verify_and_serve(binary));
            start.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

/// Geometric mean of a set of (1 + overhead) ratios, returned as percent —
/// the aggregation the paper uses for its "20% on average" claim.
#[must_use]
pub fn geomean_overhead_pct(pcts: &[f64]) -> f64 {
    let log_sum: f64 = pcts.iter().map(|p| (1.0 + p / 100.0).ln()).sum();
    ((log_sum / pcts.len() as f64).exp() - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert!((overhead_pct(100, 120) - 20.0).abs() < 1e-9);
        assert_eq!(fmt_pct(5.178), "+5.18%");
        assert_eq!(fmt_pct(-1.0), "-1.00%");
    }

    #[test]
    fn geomean_of_equal_values_is_identity() {
        assert!((geomean_overhead_pct(&[10.0, 10.0, 10.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn measure_and_sweep_smoke() {
        let src = "fn main() -> int { var i: int = 0; var s: int = 0;
                    while (i < 50) { s = s + i; i = i + 1; } return s; }";
        let (base, levels) = sweep_levels(src, b"", &MemConfig::small());
        assert!(base.instructions > 0);
        // Monotone instruction growth across levels.
        assert!(levels[0].instructions >= base.instructions);
        assert!(levels[3].instructions > levels[0].instructions);
    }
}
