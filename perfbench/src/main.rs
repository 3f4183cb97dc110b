//! End-to-end benchmark of the DEFLECTION pipeline on the real system.
//!
//! ```text
//! perfbench --workload <mix_open|https_open|onboard> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --steady <N>
//! ```
//!
//! See `perfbench/NOTES.md` for the workloads, metrics and units.

mod inputs;
mod onboard;
mod oracle;
mod report;
mod rng;
mod serving;
mod stats;

use serving::Spec;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Measurement rounds per run. Each round sets up a fresh system and
/// measures it for `--seconds / ROUNDS`, so `setup_s`, the median set-up,
/// is sampled across the whole run.
pub const ROUNDS: usize = 6;

/// Enclave workers in each pool. The generator side adds a submitter that
/// sleeps until each scheduled send and a collector that blocks on
/// tickets — together at most one busy thread — and the dispatcher blocks
/// while its pool serves a batch, so a run keeps `POOL_WORKERS + 1`
/// threads busy.
pub const POOL_WORKERS: usize = 1;

/// The serving workloads. Each open-loop rate is about a quarter of the
/// lowest rate over whole saturation phases this benchmark measured for
/// the workload on a shared 2-vCPU host (`mix_open` 218/s, `https_open`
/// 929/s; see `NOTES.md`), so the load stays near a quarter of capacity
/// even when the host runs at its slowest.
fn spec(workload: &str) -> Option<Spec> {
    match workload {
        "mix_open" => Some(Spec { traffic: inputs::Traffic::mix, rate: 50.0, warmup: 72 }),
        "https_open" => Some(Spec { traffic: inputs::Traffic::https, rate: 250.0, warmup: 128 }),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Steadiness mode: this many runs, seeds `seed..seed + n`.
    steady: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, steady: None };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val}")),
                }
            }
            "--steady" => a.steady = Some(val.parse().map_err(|e| format!("--steady: {e}"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.steady {
        steady(&args, n);
        return;
    }
    let trace_out = trace_dir().join(format!("{}-seed{}.json", args.workload, args.seed));
    let (metrics, tally) = match (args.workload.as_str(), spec(&args.workload), args.trace) {
        ("onboard", _, false) => onboard::run(args.seed, args.seconds),
        ("onboard", _, true) => onboard::run_traced(args.seed, args.seconds, &trace_out),
        (_, Some(spec), false) => serving::run(&spec, args.seed, args.seconds),
        (_, Some(spec), true) => serving::run_traced(&spec, args.seed, args.seconds, &trace_out),
        (other, None, _) => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    report::emit(&args.workload, &metrics, &tally);
}

/// Where traced runs write their chrome-trace files: under the build
/// directory, so a run writes nothing outside its checkout's build output.
fn trace_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"), PathBuf::from);
    target.join("perfbench-traces")
}

/// Writes a chrome-trace file and names it in the report.
pub fn write_trace(path: &Path, json: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("trace directory");
    }
    std::fs::write(path, json).expect("trace file");
    println!("# chrome trace: {}", path.display());
}

/// Steadiness mode: runs the workload `n` times as child processes with
/// consecutive seeds and prints each metric's median and interquartile
/// spread (quartiles as Python's `statistics.quantiles(values, n=4)`).
fn steady(args: &Args, n: u64) {
    let exe = std::env::current_exe().expect("own executable");
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    for k in 0..n {
        let seed = args.seed + k;
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !out.status.success() || !last.contains("\"correct\": true") {
            eprintln!("perfbench: run with seed {seed} failed:\n{stdout}");
            std::process::exit(1);
        }
        let parsed = parse_metrics(last);
        println!(
            "# seed {seed}: {}",
            parsed.iter().map(|(k, v, _)| format!("{k}={v:.4}")).collect::<Vec<_>>().join(" ")
        );
        for (name, value, unit) in parsed {
            match values.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, _, vs)) => vs.push(value),
                None => values.push((name, unit, vec![value])),
            }
        }
    }
    println!("# {:<28} {:>14} {:>14} {:>14} {:>8}", "metric", "median", "q1", "q3", "spread");
    for (name, unit, vs) in &values {
        let med = stats::median(vs);
        let (q1, q3) = stats::quartiles(vs).unwrap_or((med, med));
        let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med.abs() };
        println!("# {name:<28} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {unit}");
    }
}

/// `(name, value, unit)` of every metric in a result line.
fn parse_metrics(line: &str) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    const VALUE: &str = "\": {\"value\": ";
    let mut rest = line;
    while let Some(at) = rest.find(VALUE) {
        let name_start = rest[..at].rfind('"').map_or(0, |i| i + 1);
        let name = rest[name_start..at].to_string();
        rest = &rest[at + VALUE.len()..];
        let end = rest.find(',').unwrap_or(rest.len());
        let value = rest[..end].trim().parse().unwrap_or(f64::NAN);
        let unit_at = rest.find("\"unit\": \"").map_or(0, |i| i + 9);
        let unit = rest[unit_at..].split('"').next().unwrap_or_default().to_string();
        out.push((name, value, unit));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_threads_never_exceed_nproc() {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let busy = POOL_WORKERS + 1;
        assert!(busy <= nproc, "{busy} busy threads on {nproc} CPUs");
    }

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a.b_ms": {"value": 1.5, "unit": "ms"}, "c": {"value": 2, "unit": "1/s"}}}"#;
        let parsed = parse_metrics(line);
        assert_eq!(
            parsed,
            vec![("a.b_ms".into(), 1.5, "ms".into()), ("c".into(), 2.0, "1/s".into())]
        );
    }
}
