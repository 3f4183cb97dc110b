//! Metric records and the benchmark's output: one human-readable line per
//! metric (name, value, unit, sample count), the per-class failure table,
//! then the final JSON line.

use crate::oracle::Tally;
use crate::stats::whole_rate;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Observations the value was computed from.
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric { name, value, unit, samples }
}

/// Prints the report; the JSON object is the last line of stdout.
pub fn emit(workload: &str, metrics: &[Metric], tally: &Tally) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# workload {workload} (available_parallelism {nproc})");
    for m in metrics {
        println!("# {:<28} {:>14.6} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
    }
    tally.print();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted(),
        tally.failed(),
        body.join(", ")
    );
}

/// Prints, beside the best-window `capacity_per_s`, the rate over every
/// completion of the run, so a slowdown that spares some stretches of the
/// run still shows.
pub fn print_whole_run_rate(done: &[Vec<Instant>]) {
    let n: usize = done.iter().map(Vec::len).sum();
    println!("# whole run: capacity_per_s {:>14.6} 1/s (n={n})", whole_rate(done));
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
