//! `trend` — the BENCH trend reporter.
//!
//! ```text
//! trend [--current DIR] [--previous DIR] [--threshold PCT] [--enforce] [-o FILE]
//! ```
//!
//! Reads every `BENCH_*.json` in the *current* directory (default
//! `target/bench-smoke`, where `scripts/ci.sh --smoke` writes them) and the
//! *previous* directory (default `.`, the committed repo-root series), plus
//! any `METRICS_*.json` collector snapshots next to the current series, and
//! prints a markdown trend table. With `--enforce`, exits 1 when any
//! enforceable measurement regressed past the threshold (default 25%), or
//! when a previous bench has no current series.

use deflection::trend::{parse_bench_file, parse_metrics_snapshot, BenchFile, TrendReport};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trend [--current DIR] [--previous DIR] [--threshold PCT] [--enforce] [-o FILE]"
    );
    ExitCode::from(2)
}

/// Loads every file in `dir` whose name matches `prefix*.json`, sorted by
/// name so the report order is stable.
fn load_dir<T>(dir: &Path, prefix: &str, parse: impl Fn(&str) -> Option<T>) -> Vec<(String, T)> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut named: Vec<(String, T)> = entries
        .filter_map(Result::ok)
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            if !name.starts_with(prefix) || !name.ends_with(".json") {
                return None;
            }
            let text = std::fs::read_to_string(e.path()).ok()?;
            Some((name, parse(&text)?))
        })
        .collect();
    named.sort_by(|a, b| a.0.cmp(&b.0));
    named
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut current = String::from("target/bench-smoke");
    let mut previous = String::from(".");
    let mut threshold = 25.0_f64;
    let mut enforce = false;
    let mut output: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--current" => {
                let Some(v) = args.get(i + 1) else { return usage() };
                current = v.clone();
                i += 2;
            }
            "--previous" => {
                let Some(v) = args.get(i + 1) else { return usage() };
                previous = v.clone();
                i += 2;
            }
            "--threshold" => {
                let Some(Ok(v)) = args.get(i + 1).map(|v| v.parse()) else { return usage() };
                threshold = v;
                i += 2;
            }
            "--enforce" => {
                enforce = true;
                i += 1;
            }
            "-o" | "--output" => {
                let Some(v) = args.get(i + 1) else { return usage() };
                output = Some(v.clone());
                i += 2;
            }
            _ => return usage(),
        }
    }

    let curr: Vec<BenchFile> = load_dir(Path::new(&current), "BENCH_", parse_bench_file)
        .into_iter()
        .map(|(_, f)| f)
        .collect();
    let prev: Vec<BenchFile> = load_dir(Path::new(&previous), "BENCH_", parse_bench_file)
        .into_iter()
        .map(|(_, f)| f)
        .collect();
    if curr.is_empty() {
        eprintln!("trend: no BENCH_*.json found in {current}");
        return usage();
    }
    let metrics = load_dir(Path::new(&current), "METRICS_", |t| Some(parse_metrics_snapshot(t)));
    let prev_metrics =
        load_dir(Path::new(&previous), "METRICS_", |t| Some(parse_metrics_snapshot(t)));

    let mut report = TrendReport::build(&curr, &prev, threshold);
    report.attach_tails(&metrics, &prev_metrics);
    let md = report.to_markdown(&metrics);
    if let Some(path) = output {
        if let Err(e) = std::fs::write(&path, &md) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    print!("{md}");
    if report.has_regression() {
        eprintln!(
            "trend: regression past +{threshold:.0}% or a baseline without its bench{}",
            if enforce { "" } else { " (report-only; pass --enforce to gate)" }
        );
        if enforce {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
