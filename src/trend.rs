//! The BENCH trend reporter: ingests the repo's `BENCH_*.json` series
//! (emitted by `scripts/ci.sh --smoke`) plus `METRICS_*.json` collector
//! snapshots, and renders a markdown trend table — per-measurement mean,
//! delta against the previous run, and host-core gating notes — with an
//! optional regression threshold for CI gating.
//!
//! Everything here is zero-dependency by design (matching the vendored-shim
//! policy): the BENCH files are produced by a pure-shell emitter with a
//! known shape, so a small line-oriented extractor is both sufficient and
//! honest about what it accepts.

use std::fmt::Write as _;

/// Benches whose headline assertions are gated off on hosts with fewer
/// than four cores (see ROADMAP): their numbers are reported but never
/// treated as regressions when either side ran under the gate.
pub const CORE_GATED_BENCHES: &[&str] = &["ablation_parallel_verify", "ablation_pool_resilience"];

/// Host context stamped into a BENCH file by `scripts/ci.sh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostStamp {
    /// `std::thread::available_parallelism` on the emitting host.
    pub available_parallelism: Option<u64>,
    /// Whether the run was a `--smoke` (single-shot `--quick`) run.
    pub smoke: bool,
}

/// One measurement object as the vendored criterion shim prints it:
/// `{"id": …, "min_ns": …, "mean_ns": …, "max_ns": …, "n": …}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark id, e.g. `nbench/numeric_sort/baseline`.
    pub id: String,
    /// Mean duration in integer nanoseconds.
    pub mean_ns: u64,
    /// Sample count.
    pub n: u64,
}

/// One parsed `BENCH_<name>.json` file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Bench name (`table2_nbench`, …).
    pub bench: String,
    /// Emitter status (`ok` when the bench binary exited 0).
    pub status: String,
    /// Host context, absent in files emitted before stamping existed.
    pub host: Option<HostStamp>,
    /// Parsed measurement objects.
    pub measurements: Vec<Measurement>,
}

/// A headline counter pulled from a `METRICS_*.json` collector snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric name.
    pub name: String,
    /// Raw label body.
    pub labels: String,
    /// Counter/gauge value.
    pub value: i64,
}

/// Percentile estimates pulled from one histogram entry of a
/// `METRICS_*.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TailSample {
    /// Histogram name.
    pub name: String,
    /// Raw label body.
    pub labels: String,
    /// Observation count.
    pub count: u64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// One fully parsed `METRICS_*.json` collector snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsFile {
    /// `available_parallelism` of the emitting host, when stamped.
    pub available_parallelism: Option<u64>,
    /// Counter/gauge samples.
    pub samples: Vec<MetricSample>,
    /// Histogram percentile rows.
    pub tails: Vec<TailSample>,
}

/// Floor applied to the tail-regression threshold: the log-2 buckets
/// quantize percentile estimates, so a one-bucket drift (2×, i.e. +100%)
/// is quantization noise — only shifts past the *next* bucket enforce.
pub const TAIL_THRESHOLD_FLOOR_PCT: f64 = 100.0;

/// Minimum observations on both sides before a tail row may enforce: a
/// p99 estimated from a handful of samples is an outlier detector, not a
/// trend.
pub const TAIL_MIN_COUNT: u64 = 4;

/// Extracts the string value of `"key": "value"` from a JSON-shaped line
/// set (first occurrence), honoring backslash escapes — collector
/// snapshots escape label values (e.g. `verdict=\"accept\"`), so the
/// closing quote is the first *unescaped* one.
fn json_string_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let rest = rest.strip_prefix('"')?;
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let code: String = chars.by_ref().take(4).collect();
                    let v = u32::from_str_radix(&code, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
}

/// Extracts a numeric or boolean field value as text.
fn json_raw_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim().to_string())
}

/// Parses one `BENCH_<name>.json` document.
#[must_use]
pub fn parse_bench_file(text: &str) -> Option<BenchFile> {
    let bench = json_string_field(text, "bench")?;
    let status = json_string_field(text, "status").unwrap_or_else(|| "unknown".into());
    let host = text.contains("\"host\":").then(|| HostStamp {
        available_parallelism: json_raw_field(text, "available_parallelism")
            .and_then(|v| v.parse().ok()),
        smoke: json_raw_field(text, "smoke").as_deref() == Some("true"),
    });
    // Measurements are one-line JSON objects, one array element per line.
    let measurements = text
        .lines()
        .filter_map(|l| {
            let l = l.trim().trim_end_matches(',');
            if !l.starts_with('{') || !l.contains("\"mean_ns\"") {
                return None;
            }
            Some(Measurement {
                id: json_string_field(l, "id")?,
                mean_ns: json_raw_field(l, "mean_ns")?.parse().ok()?,
                n: json_raw_field(l, "n")?.parse().ok()?,
            })
        })
        .collect();
    Some(BenchFile { bench, status, host, measurements })
}

/// Parses the counter/gauge samples out of a `METRICS_*.json` snapshot
/// (schema `deflection-metrics-v1`).
#[must_use]
pub fn parse_metrics_file(text: &str) -> Vec<MetricSample> {
    text.lines()
        .filter_map(|l| {
            let l = l.trim().trim_end_matches(',');
            if !l.starts_with('{') || !l.contains("\"name\"") || !l.contains("\"value\"") {
                return None;
            }
            Some(MetricSample {
                name: json_string_field(l, "name")?,
                labels: json_string_field(l, "labels").unwrap_or_default(),
                value: json_raw_field(l, "value")?.parse().ok()?,
            })
        })
        .collect()
}

/// Parses a full `METRICS_*.json` snapshot: host stamp, counter/gauge
/// samples, and the p50/p99 histogram rows the tail gate compares.
#[must_use]
pub fn parse_metrics_snapshot(text: &str) -> MetricsFile {
    let available_parallelism = text
        .lines()
        .find(|l| l.contains("\"host\""))
        .and_then(|l| json_raw_field(l, "available_parallelism"))
        .and_then(|v| v.parse().ok());
    let tails = text
        .lines()
        .filter_map(|l| {
            let l = l.trim().trim_end_matches(',');
            if !l.starts_with('{') || !l.contains("\"p50\"") {
                return None;
            }
            Some(TailSample {
                name: json_string_field(l, "name")?,
                labels: json_string_field(l, "labels").unwrap_or_default(),
                count: json_raw_field(l, "count")?.parse().ok()?,
                p50: json_raw_field(l, "p50")?.parse().ok()?,
                p99: json_raw_field(l, "p99")?.parse().ok()?,
            })
        })
        .collect();
    MetricsFile { available_parallelism, samples: parse_metrics_file(text), tails }
}

/// One row of the trend table: a measurement matched (by bench name and
/// measurement id) between the previous and current series, or a previous
/// bench with no current series at all.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Bench name.
    pub bench: String,
    /// Measurement id.
    pub id: String,
    /// Previous mean in nanoseconds (`None` for a new measurement).
    pub prev_ns: Option<f64>,
    /// Current mean in nanoseconds (`None` for a bench that no longer
    /// emits a series).
    pub curr_ns: Option<f64>,
    /// Percent delta vs. previous (positive = slower), when comparable.
    pub delta_pct: Option<f64>,
    /// Whether this row exceeded the regression threshold *and* was
    /// eligible for enforcement (comparable host stamps, not core-gated),
    /// or is a baseline whose bench is gone.
    pub regressed: bool,
    /// Human-readable annotation (core gating, host mismatch, new, gone).
    pub note: String,
}

/// One row of the tail-latency table: a histogram's p50/p99 matched (by
/// snapshot file, histogram name and labels) between the previous and
/// current metrics series.
#[derive(Debug, Clone, PartialEq)]
pub struct TailRow {
    /// Snapshot file name both sides were read from.
    pub file: String,
    /// Histogram name.
    pub name: String,
    /// Raw label body.
    pub labels: String,
    /// Previous p50/p99 in nanoseconds (`None` for a new histogram).
    pub prev_p50: Option<f64>,
    /// Previous p99 in nanoseconds.
    pub prev_p99: Option<f64>,
    /// Current p50 in nanoseconds.
    pub curr_p50: f64,
    /// Current p99 in nanoseconds.
    pub curr_p99: f64,
    /// Percent delta of the p99 vs. previous, when comparable.
    pub delta_pct: Option<f64>,
    /// Whether this row exceeded the tail threshold *and* was eligible
    /// for enforcement.
    pub regressed: bool,
    /// Human-readable annotation.
    pub note: String,
}

/// The full trend comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Matched rows in current-series order, then one row per previous
    /// bench missing from the current series.
    pub rows: Vec<TrendRow>,
    /// Tail-latency rows (populated by [`TrendReport::attach_tails`]).
    pub tails: Vec<TailRow>,
    /// Regression threshold in percent that was applied.
    pub threshold_pct: f64,
}

impl TrendReport {
    /// Compares the current BENCH series against the previous one.
    ///
    /// A row is only *enforceable* (can set `regressed`) when both sides
    /// carry host stamps with the same `available_parallelism` — numbers
    /// measured on different host shapes are reported but never gate. The
    /// ≥4-core-gated benches ([`CORE_GATED_BENCHES`]) are additionally
    /// exempt when either side ran with fewer than four cores, and noted
    /// as such.
    ///
    /// A previous bench with no current file is one row that always
    /// counts as a regression: a committed baseline whose bench was
    /// deleted would otherwise drop out of gating without notice.
    #[must_use]
    pub fn build(current: &[BenchFile], previous: &[BenchFile], threshold_pct: f64) -> TrendReport {
        let prev_of = |bench: &str, id: &str| -> Option<(&BenchFile, &Measurement)> {
            let f = previous.iter().find(|f| f.bench == bench)?;
            let m = f.measurements.iter().find(|m| m.id == id)?;
            Some((f, m))
        };
        let mut rows = Vec::new();
        for file in current {
            let gated_bench = CORE_GATED_BENCHES.contains(&file.bench.as_str());
            let curr_cores = file.host.and_then(|h| h.available_parallelism);
            for m in &file.measurements {
                let (mut note, mut delta_pct, mut prev_ns) = (String::new(), None, None);
                let mut enforceable = false;
                match prev_of(&file.bench, &m.id) {
                    None => note.push_str("new"),
                    Some((pf, pm)) => {
                        let (curr, prev) = (m.mean_ns as f64, pm.mean_ns as f64);
                        prev_ns = Some(prev);
                        if prev > 0.0 {
                            delta_pct = Some((curr - prev) / prev * 100.0);
                        }
                        let prev_cores = pf.host.and_then(|h| h.available_parallelism);
                        match (curr_cores, prev_cores) {
                            (Some(c), Some(p)) if c == p => enforceable = true,
                            (Some(_), Some(_)) => note.push_str("host cores changed"),
                            _ => note.push_str("unstamped baseline"),
                        }
                    }
                }
                if gated_bench && curr_cores.is_none_or(|c| c < 4) {
                    enforceable = false;
                    if !note.is_empty() {
                        note.push_str("; ");
                    }
                    note.push_str("<4 cores: assertions gated off");
                }
                let regressed = enforceable
                    && delta_pct.is_some_and(|d| d > threshold_pct && threshold_pct >= 0.0);
                rows.push(TrendRow {
                    bench: file.bench.clone(),
                    id: m.id.clone(),
                    prev_ns,
                    curr_ns: Some(m.mean_ns as f64),
                    delta_pct,
                    regressed,
                    note,
                });
            }
        }
        for file in previous.iter().filter(|p| current.iter().all(|c| c.bench != p.bench)) {
            rows.push(TrendRow {
                bench: file.bench.clone(),
                id: format!("{} measurements", file.measurements.len()),
                prev_ns: None,
                curr_ns: None,
                delta_pct: None,
                regressed: true,
                note: format!("no current series: delete BENCH_{}.json with its bench", file.bench),
            });
        }
        TrendReport { rows, tails: Vec::new(), threshold_pct }
    }

    /// Matches p50/p99 histogram rows between the current and previous
    /// metrics snapshots and appends them as tail rows. Enforcement
    /// follows the same host gating as the mean rows — both snapshots
    /// must carry equal `available_parallelism` stamps — plus two
    /// tail-specific rules: only `_ns` latency histograms gate (byte and
    /// length histograms are workload-shaped, not perf-shaped), both
    /// sides need at least [`TAIL_MIN_COUNT`] observations, and the
    /// threshold is floored at [`TAIL_THRESHOLD_FLOOR_PCT`] because the
    /// log-2 buckets quantize the estimate.
    pub fn attach_tails(
        &mut self,
        current: &[(String, MetricsFile)],
        previous: &[(String, MetricsFile)],
    ) {
        let tail_threshold = self.threshold_pct.max(TAIL_THRESHOLD_FLOOR_PCT);
        for (fname, curr) in current {
            let prev_file = previous.iter().find(|(p, _)| p == fname).map(|(_, f)| f);
            for t in &curr.tails {
                let prev_t = prev_file.and_then(|f| {
                    f.tails.iter().find(|p| p.name == t.name && p.labels == t.labels)
                });
                let mut note = String::new();
                let mut enforceable = t.name.ends_with("_ns");
                let (mut prev_p50, mut prev_p99, mut delta_pct) = (None, None, None);
                match prev_t {
                    None => {
                        note.push_str("new");
                        enforceable = false;
                    }
                    Some(p) => {
                        prev_p50 = Some(p.p50);
                        prev_p99 = Some(p.p99);
                        if p.p99 > 0.0 {
                            delta_pct = Some((t.p99 - p.p99) / p.p99 * 100.0);
                        }
                        match (
                            curr.available_parallelism,
                            prev_file.and_then(|f| f.available_parallelism),
                        ) {
                            (Some(c), Some(q)) if c == q => {}
                            (Some(_), Some(_)) => {
                                enforceable = false;
                                note.push_str("host cores changed");
                            }
                            _ => {
                                enforceable = false;
                                note.push_str("unstamped snapshot");
                            }
                        }
                        if t.count < TAIL_MIN_COUNT || p.count < TAIL_MIN_COUNT {
                            enforceable = false;
                            if !note.is_empty() {
                                note.push_str("; ");
                            }
                            note.push_str("sparse");
                        }
                    }
                }
                let regressed = enforceable
                    && delta_pct.is_some_and(|d| d > tail_threshold && self.threshold_pct >= 0.0);
                self.tails.push(TailRow {
                    file: fname.clone(),
                    name: t.name.clone(),
                    labels: t.labels.clone(),
                    prev_p50,
                    prev_p99,
                    curr_p50: t.p50,
                    curr_p99: t.p99,
                    delta_pct,
                    regressed,
                    note,
                });
            }
        }
    }

    /// Whether any enforceable row (mean or tail) exceeded its threshold.
    #[must_use]
    pub fn has_regression(&self) -> bool {
        self.rows.iter().any(|r| r.regressed) || self.tails.iter().any(|r| r.regressed)
    }

    /// Renders the markdown trend table, with tail-latency and
    /// metrics-snapshot sections appended.
    #[must_use]
    pub fn to_markdown(&self, metrics: &[(String, MetricsFile)]) -> String {
        let fmt_ns = |ns: f64| -> String {
            if ns < 1e3 {
                format!("{ns:.0} ns")
            } else if ns < 1e6 {
                format!("{:.2} µs", ns / 1e3)
            } else if ns < 1e9 {
                format!("{:.2} ms", ns / 1e6)
            } else {
                format!("{:.2} s", ns / 1e9)
            }
        };
        let mut out = String::from("# BENCH trend report\n\n");
        let _ = writeln!(
            out,
            "Regression threshold: +{:.0}% on enforceable rows.\n",
            self.threshold_pct
        );
        out.push_str("| bench | measurement | previous | current | delta | note |\n");
        out.push_str("|---|---|---:|---:|---:|---|\n");
        for r in &self.rows {
            let prev = r.prev_ns.map_or_else(|| "—".into(), fmt_ns);
            let delta = r.delta_pct.map_or_else(|| "—".into(), |d| format!("{d:+.1}%"));
            let mark = if r.regressed { " **REGRESSION**" } else { "" };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {}{} | {} |",
                r.bench,
                r.id,
                prev,
                r.curr_ns.map_or_else(|| "—".into(), fmt_ns),
                delta,
                mark,
                r.note
            );
        }
        if !self.tails.is_empty() {
            let _ = writeln!(
                out,
                "\n## Tail latency (p50/p99)\n\nTail threshold: +{:.0}% on the p99 of \
                 enforceable `_ns` rows (floored for log-2 bucket quantization).\n",
                self.threshold_pct.max(TAIL_THRESHOLD_FLOOR_PCT)
            );
            out.push_str("| histogram | labels | p50 | p99 | prev p99 | delta | note |\n");
            out.push_str("|---|---|---:|---:|---:|---:|---|\n");
            for r in &self.tails {
                let prev = r.prev_p99.map_or_else(|| "—".into(), fmt_ns);
                let delta = r.delta_pct.map_or_else(|| "—".into(), |d| format!("{d:+.1}%"));
                let mark = if r.regressed { " **REGRESSION**" } else { "" };
                let _ = writeln!(
                    out,
                    "| {} | {} | {} | {} | {} | {}{} | {} |",
                    r.name,
                    r.labels,
                    fmt_ns(r.curr_p50),
                    fmt_ns(r.curr_p99),
                    prev,
                    delta,
                    mark,
                    r.note
                );
            }
        }
        if !metrics.is_empty() {
            out.push_str("\n## Collector snapshots\n\n");
            for (name, file) in metrics {
                let events: i64 = file
                    .samples
                    .iter()
                    .filter(|s| s.name.ends_with("_total"))
                    .map(|s| s.value)
                    .sum();
                let _ = writeln!(
                    out,
                    "- `{name}`: {} samples, {} histograms, {events} counted events",
                    file.samples.len(),
                    file.tails.len()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_json(bench: &str, host: Option<(u64, bool)>, rows: &[(&str, u64)]) -> String {
        let host = host.map_or(String::new(), |(cores, smoke)| {
            format!("  \"host\": {{\"available_parallelism\": {cores}, \"smoke\": {smoke}}},\n")
        });
        let meas: Vec<String> = rows
            .iter()
            .map(|(id, ns)| {
                format!(
                    "    {{\"id\": \"{id}\", \"min_ns\": {ns}, \"mean_ns\": {ns}, \"max_ns\": {ns}, \"n\": 3}}"
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"{bench}\",\n  \"status\": \"ok\",\n{host}  \"measurements\": [\n{}\n  ]\n}}\n",
            meas.join(",\n")
        )
    }

    #[test]
    fn measurement_lines_parse() {
        // The shim's own line shape, ignoring the file's framing lines and
        // keeping the mean exact to the nanosecond.
        let text = "{\n  \"bench\": \"table2_nbench\",\n  \"measurements\": [\n    \
                    {\"id\": \"nbench/numeric_sort/p1-p6\", \"min_ns\": 6840212, \
                    \"mean_ns\": 7171399, \"max_ns\": 8020004, \"n\": 10},\n    \
                    {\"id\": \"quoted/\\\"id\\\"\", \"min_ns\": 1, \"mean_ns\": 2, \
                    \"max_ns\": 3, \"n\": 1}\n  ]\n}\n";
        let f = parse_bench_file(text).unwrap();
        assert_eq!(
            f.measurements,
            vec![
                Measurement { id: "nbench/numeric_sort/p1-p6".into(), mean_ns: 7_171_399, n: 10 },
                Measurement { id: "quoted/\"id\"".into(), mean_ns: 2, n: 1 },
            ]
        );
        assert!(parse_bench_file("{\"bench\": \"x\", \"measurements\": []}")
            .unwrap()
            .measurements
            .is_empty());
    }

    #[test]
    fn bench_files_roundtrip_with_and_without_host_stamp() {
        let stamped = bench_json("table2_nbench", Some((8, true)), &[("a/b", 1_000_000)]);
        let f = parse_bench_file(&stamped).unwrap();
        assert_eq!(f.bench, "table2_nbench");
        assert_eq!(f.host, Some(HostStamp { available_parallelism: Some(8), smoke: true }));
        assert_eq!(f.measurements.len(), 1);
        let unstamped = bench_json("table2_nbench", None, &[("a/b", 1_000_000)]);
        assert_eq!(parse_bench_file(&unstamped).unwrap().host, None);
    }

    fn file(bench: &str, cores: Option<u64>, id: &str, mean_ns: u64) -> BenchFile {
        parse_bench_file(&bench_json(bench, cores.map(|c| (c, true)), &[(id, mean_ns)])).unwrap()
    }

    #[test]
    fn regression_detected_only_on_comparable_hosts() {
        let prev = [file("fig8_seqgen", Some(4), "seqgen/full", 1_000_000)];
        let slow = [file("fig8_seqgen", Some(4), "seqgen/full", 2_000_000)];
        let report = TrendReport::build(&slow, &prev, 25.0);
        assert!(report.has_regression());
        assert!((report.rows[0].delta_pct.unwrap() - 100.0).abs() < 0.01);
        // Same slowdown, different core counts: reported, not enforced.
        let other_host = [file("fig8_seqgen", Some(2), "seqgen/full", 2_000_000)];
        let report = TrendReport::build(&other_host, &prev, 25.0);
        assert!(!report.has_regression());
        assert!(report.rows[0].note.contains("host cores changed"));
        // Unstamped previous file (pre-stamping era): never enforced.
        let prev_unstamped = [file("fig8_seqgen", None, "seqgen/full", 1_000_000)];
        let report = TrendReport::build(&slow, &prev_unstamped, 25.0);
        assert!(!report.has_regression());
        assert!(report.rows[0].note.contains("unstamped baseline"));
    }

    #[test]
    fn speedups_and_small_drifts_pass() {
        let prev = [file("fig8_seqgen", Some(4), "seqgen/full", 2_000_000)];
        let fast = [file("fig8_seqgen", Some(4), "seqgen/full", 1_000_000)];
        assert!(!TrendReport::build(&fast, &prev, 25.0).has_regression());
        let drift = [file("fig8_seqgen", Some(4), "seqgen/full", 2_200_000)];
        assert!(!TrendReport::build(&drift, &prev, 25.0).has_regression());
    }

    #[test]
    fn core_gated_benches_never_regress_under_four_cores() {
        let prev = [file("ablation_parallel_verify", Some(1), "verify/threads-4", 1_000_000)];
        let slow = [file("ablation_parallel_verify", Some(1), "verify/threads-4", 9_000_000)];
        let report = TrendReport::build(&slow, &prev, 25.0);
        assert!(!report.has_regression());
        assert!(report.rows[0].note.contains("gated off"));
        // On a ≥4-core host the same bench does enforce.
        let prev = [file("ablation_parallel_verify", Some(8), "verify/threads-4", 1_000_000)];
        let slow = [file("ablation_parallel_verify", Some(8), "verify/threads-4", 9_000_000)];
        assert!(TrendReport::build(&slow, &prev, 25.0).has_regression());
    }

    #[test]
    fn icache_bench_enforces_even_on_one_core() {
        // The icache ablation is single-threaded by construction; it must
        // never join CORE_GATED_BENCHES, so a 1-core CI host still gates on
        // it — the property that makes it the first enforceable perf
        // baseline.
        assert!(!CORE_GATED_BENCHES.contains(&"ablation_icache"));
        let prev = [file("ablation_icache", Some(1), "icache/numeric_sort/traced", 1_000_000)];
        let slow = [file("ablation_icache", Some(1), "icache/numeric_sort/traced", 9_000_000)];
        assert!(TrendReport::build(&slow, &prev, 25.0).has_regression());
    }

    #[test]
    fn baseline_without_a_bench_fails_enforcement() {
        // A committed BENCH file whose bench was deleted shows up as one
        // row and gates, instead of silently leaving the comparison.
        let prev = [
            file("ablation_icache", Some(1), "icache/numeric_sort/traced", 1_000_000),
            file("ablation_retired", Some(1), "retired/row", 1_000_000),
        ];
        let curr = [file("ablation_icache", Some(1), "icache/numeric_sort/traced", 1_000_000)];
        let report = TrendReport::build(&curr, &prev, 25.0);
        assert!(report.has_regression());
        assert_eq!(report.rows.len(), 2);
        let gone = &report.rows[1];
        assert_eq!((gone.bench.as_str(), gone.curr_ns), ("ablation_retired", None));
        assert!(gone.regressed && gone.note.contains("BENCH_ablation_retired.json"));
        assert!(report.to_markdown(&[]).contains("| ablation_retired | 1 measurements | — | — |"));
        // Same series on both sides: nothing to flag.
        assert!(!TrendReport::build(&curr, &curr, 25.0).has_regression());
    }

    #[test]
    fn flightrec_bench_enforces_even_on_one_core() {
        // The flight-recorder ablation's verify+serve flow is
        // single-threaded, so it must never join CORE_GATED_BENCHES: a
        // 1-core CI host still gates on the recorder-disabled budget.
        assert!(!CORE_GATED_BENCHES.contains(&"ablation_flightrec"));
        let prev = [file("ablation_flightrec", Some(1), "flightrec/verify_serve/off", 1_000_000)];
        let slow = [file("ablation_flightrec", Some(1), "flightrec/verify_serve/off", 9_000_000)];
        assert!(TrendReport::build(&slow, &prev, 25.0).has_regression());
    }

    #[test]
    fn fig_serving_bench_enforces_even_on_one_core() {
        // The serving bench's headline series, `admission_1w` (the
        // single-worker saturation floor), is single-worker by
        // construction; fig_serving must never join CORE_GATED_BENCHES so
        // a 1-core CI host still gates on it. The >=4-core `admission_4w`
        // series protects itself by not registering (no row, nothing to
        // gate) on smaller hosts.
        assert!(!CORE_GATED_BENCHES.contains(&"fig_serving"));
        let prev = [file("fig_serving", Some(1), "fig_serving/admission_1w", 1_000_000)];
        let slow = [file("fig_serving", Some(1), "fig_serving/admission_1w", 9_000_000)];
        assert!(TrendReport::build(&slow, &prev, 25.0).has_regression());
    }

    #[test]
    fn markdown_renders_rows_and_metrics_sections() {
        let prev = [file("fig8_seqgen", Some(4), "seqgen/full", 1_000_000)];
        let curr = [file("fig8_seqgen", Some(4), "seqgen/full", 2_000_000)];
        let report = TrendReport::build(&curr, &prev, 25.0);
        let metrics = vec![(
            "METRICS_smoke.json".to_string(),
            MetricsFile {
                available_parallelism: Some(4),
                samples: vec![MetricSample {
                    name: "deflection_verify_total".into(),
                    labels: "verdict=\"accept\"".into(),
                    value: 3,
                }],
                tails: Vec::new(),
            },
        )];
        let md = report.to_markdown(&metrics);
        assert!(md.contains(
            "| fig8_seqgen | seqgen/full | 1.00 ms | 2.00 ms | +100.0% **REGRESSION** |"
        ));
        assert!(md.contains("Collector snapshots"));
        assert!(md.contains("METRICS_smoke.json"));
    }

    #[test]
    fn metrics_snapshot_samples_parse() {
        let json = "{\n  \"schema\": \"deflection-metrics-v1\",\n  \"samples\": [\n    {\"name\": \"deflection_verify_total\", \"labels\": \"verdict=\\\"accept\\\"\", \"value\": 5},\n    {\"name\": \"deflection_run_budget_headroom_bytes\", \"labels\": \"\", \"value\": -2}\n  ],\n  \"histograms\": []\n}\n";
        let samples = parse_metrics_file(json);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].labels, "verdict=\"accept\"");
        assert_eq!(samples[0].value, 5);
        assert_eq!(samples[1].value, -2);
    }

    fn metrics_snapshot(cores: Option<u64>, name: &str, count: u64, p50: f64, p99: f64) -> String {
        let host = cores.map_or(String::new(), |c| {
            format!("  \"host\": {{\"available_parallelism\": {c}}},\n")
        });
        format!(
            "{{\n  \"schema\": \"deflection-metrics-v1\",\n{host}  \"samples\": [\n  ],\n  \
             \"histograms\": [\n    {{\"name\": \"{name}\", \"labels\": \"\", \"count\": {count}, \
             \"sum\": 0, \"p50\": {p50:.1}, \"p99\": {p99:.1}, \"buckets\": [0]}}\n  ]\n}}\n"
        )
    }

    #[test]
    fn metrics_snapshot_tails_and_host_stamp_parse() {
        let f = parse_metrics_snapshot(&metrics_snapshot(
            Some(8),
            "deflection_verify_ns",
            12,
            1024.0,
            8192.0,
        ));
        assert_eq!(f.available_parallelism, Some(8));
        assert_eq!(f.tails.len(), 1);
        assert_eq!(f.tails[0].count, 12);
        assert!((f.tails[0].p50 - 1024.0).abs() < 0.01);
        assert!((f.tails[0].p99 - 8192.0).abs() < 0.01);
        assert_eq!(parse_metrics_snapshot("{}").available_parallelism, None);
    }

    fn tail_pair(
        prev: (Option<u64>, u64, f64),
        curr: (Option<u64>, u64, f64),
        name: &str,
    ) -> TrendReport {
        let prev = vec![(
            "METRICS_smoke.json".to_string(),
            parse_metrics_snapshot(&metrics_snapshot(prev.0, name, prev.1, 100.0, prev.2)),
        )];
        let curr = vec![(
            "METRICS_smoke.json".to_string(),
            parse_metrics_snapshot(&metrics_snapshot(curr.0, name, curr.1, 100.0, curr.2)),
        )];
        let mut report = TrendReport::build(&[], &[], 25.0);
        report.attach_tails(&curr, &prev);
        report
    }

    #[test]
    fn tail_regressions_enforce_past_one_bucket_of_drift() {
        // 2.5× past the previous p99 (> one log-2 bucket): regression.
        let r = tail_pair((Some(4), 10, 1000.0), (Some(4), 10, 2500.0), "deflection_verify_ns");
        assert!(r.has_regression());
        assert!(r.to_markdown(&[]).contains("**REGRESSION**"));
        // Exactly one bucket of drift (2×, +100%): quantization noise.
        let r = tail_pair((Some(4), 10, 1000.0), (Some(4), 10, 2000.0), "deflection_verify_ns");
        assert!(!r.has_regression());
    }

    #[test]
    fn tail_rows_gate_on_cores_counts_and_latency_units() {
        // Different host shapes: reported, never enforced.
        let r = tail_pair((Some(2), 10, 1000.0), (Some(4), 10, 9000.0), "deflection_verify_ns");
        assert!(!r.has_regression());
        assert!(r.tails[0].note.contains("host cores changed"));
        // Unstamped side: never enforced.
        let r = tail_pair((None, 10, 1000.0), (Some(4), 10, 9000.0), "deflection_verify_ns");
        assert!(!r.has_regression());
        assert!(r.tails[0].note.contains("unstamped snapshot"));
        // Too few observations: never enforced.
        let r = tail_pair((Some(4), 2, 1000.0), (Some(4), 10, 9000.0), "deflection_verify_ns");
        assert!(!r.has_regression());
        assert!(r.tails[0].note.contains("sparse"));
        // Non-latency histograms (bytes, lengths) are workload-shaped.
        let r = tail_pair((Some(4), 10, 1000.0), (Some(4), 10, 9000.0), "deflection_sent_bytes");
        assert!(!r.has_regression());
        // The same drift on a latency histogram with clean stamps gates.
        let r = tail_pair((Some(4), 10, 1000.0), (Some(4), 10, 9000.0), "deflection_verify_ns");
        assert!(r.has_regression());
    }
}
