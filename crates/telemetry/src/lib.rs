//! # deflection-telemetry
//!
//! A dependency-free (std-only) tracing and metrics substrate for the
//! DEFLECTION pipeline: counters, gauges, fixed-bucket log-2 histograms
//! and RAII span timers behind a process-global [`Collector`].
//!
//! # Trust model
//!
//! This crate is **untrusted-side observability** and is deliberately kept
//! out of the in-enclave TCB count. Everything it aggregates — phase
//! durations, cache hit rates, scheduler decisions — is information the
//! untrusted host can already observe by timing ECalls and watching its own
//! scheduler; recording it adds no new covert channel. Policy-relevant
//! events that the host *cannot* see (guard trips, AEX injections, budget
//! exhaustions inside a run) are recorded exclusively by the in-enclave
//! audit ring (`deflection-core::audit`), which exports only sealed,
//! fixed-size, budget-charged records. See `DESIGN.md` §5e.
//!
//! # Cost model
//!
//! The collector is **off by default**. Every recording operation first
//! loads one relaxed atomic flag and returns immediately when disabled —
//! an `#[inline]` empty path whose cost is a load and a predictable
//! branch. `tests/telemetry_soundness.rs` proves verdicts are bit-identical
//! enabled/disabled/snapshotted, and the `ablation_telemetry` bench bounds
//! the disabled-path overhead at ≤1% of verify+serve.
//!
//! # Example
//!
//! ```
//! use deflection_telemetry::{Collector, METRICS};
//!
//! Collector::enable();
//! METRICS.pool_work_queue_claims.add(1);
//! METRICS.run_sent_bytes.observe(128);
//! let snap = Collector::snapshot();
//! assert!(snap.to_prometheus().contains("deflection_pool_events_total"));
//! Collector::disable();
//! # Collector::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flightrec;

pub use flightrec::{
    chrome_trace, EventKind, FlightEvent, FlightLog, FlightRecorder, Timeline, TimelineLane,
    TraceId,
};

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Escapes a string for inclusion in a JSON string literal: quotes,
/// backslashes, and control characters (the latter as `\u00XX`). Every
/// exporter in this crate routes label values and free-form names through
/// this, so a hostile binary name can never corrupt an exported document.
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A minimal recursive-descent JSON well-formedness check (structure only,
/// no value model): used by the exporter unit tests and by `ci.sh --smoke`
/// to validate `TRACE_smoke.json` before publishing it as an artifact.
#[must_use]
pub fn json_well_formed(s: &str) -> bool {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
        depth: u32,
    }
    impl P<'_> {
        fn ws(&mut self) {
            while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn peek(&self) -> Option<u8> {
            self.b.get(self.i).copied()
        }
        fn eat(&mut self, c: u8) -> bool {
            if self.peek() == Some(c) {
                self.i += 1;
                true
            } else {
                false
            }
        }
        fn string(&mut self) -> bool {
            if !self.eat(b'"') {
                return false;
            }
            while let Some(c) = self.peek() {
                self.i += 1;
                match c {
                    b'"' => return true,
                    b'\\' => {
                        let Some(e) = self.peek() else { return false };
                        self.i += 1;
                        match e {
                            b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                            b'u' => {
                                for _ in 0..4 {
                                    let Some(h) = self.peek() else { return false };
                                    if !h.is_ascii_hexdigit() {
                                        return false;
                                    }
                                    self.i += 1;
                                }
                            }
                            _ => return false,
                        }
                    }
                    c if c < 0x20 => return false,
                    _ => {}
                }
            }
            false
        }
        fn number(&mut self) -> bool {
            let start = self.i;
            let _ = self.eat(b'-');
            let digits = self.i;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
            if self.i == digits {
                return false;
            }
            if self.eat(b'.') {
                let frac = self.i;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
                if self.i == frac {
                    return false;
                }
            }
            if self.peek() == Some(b'e') || self.peek() == Some(b'E') {
                self.i += 1;
                if self.peek() == Some(b'+') || self.peek() == Some(b'-') {
                    self.i += 1;
                }
                let exp = self.i;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
                if self.i == exp {
                    return false;
                }
            }
            self.i > start
        }
        fn lit(&mut self, word: &[u8]) -> bool {
            if self.b[self.i..].starts_with(word) {
                self.i += word.len();
                true
            } else {
                false
            }
        }
        fn value(&mut self) -> bool {
            if self.depth > 128 {
                return false;
            }
            self.ws();
            match self.peek() {
                Some(b'"') => self.string(),
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b't') => self.lit(b"true"),
                Some(b'f') => self.lit(b"false"),
                Some(b'n') => self.lit(b"null"),
                Some(_) => self.number(),
                None => false,
            }
        }
        fn object(&mut self) -> bool {
            self.depth += 1;
            if !self.eat(b'{') {
                return false;
            }
            self.ws();
            if self.eat(b'}') {
                self.depth -= 1;
                return true;
            }
            loop {
                self.ws();
                if !self.string() {
                    return false;
                }
                self.ws();
                if !self.eat(b':') || !self.value() {
                    return false;
                }
                self.ws();
                if self.eat(b',') {
                    continue;
                }
                let ok = self.eat(b'}');
                self.depth -= 1;
                return ok;
            }
        }
        fn array(&mut self) -> bool {
            self.depth += 1;
            if !self.eat(b'[') {
                return false;
            }
            self.ws();
            if self.eat(b']') {
                self.depth -= 1;
                return true;
            }
            loop {
                if !self.value() {
                    return false;
                }
                self.ws();
                if self.eat(b',') {
                    continue;
                }
                let ok = self.eat(b']');
                self.depth -= 1;
                return ok;
            }
        }
    }
    let mut p = P { b: s.as_bytes(), i: 0, depth: 0 };
    if !p.value() {
        return false;
    }
    p.ws();
    p.i == p.b.len()
}

/// Number of log-2 histogram buckets: bucket 0 holds exact zeros, bucket
/// `k >= 1` holds values in `[2^(k-1), 2^k)`, and the last bucket absorbs
/// everything larger.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Process-global enable flag. All metric operations are no-ops while this
/// is false.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Count of metric *operations* executed while enabled (one `add`, one
/// `observe`, one `merge` — regardless of how many events the operation
/// carries). This is what the telemetry-overhead budget multiplies by the
/// disabled per-op cost: a counter flushed as `add(delta)` crosses the
/// collector once, not `delta` times.
static OPS: AtomicU64 = AtomicU64::new(0);

/// A monotonically increasing event counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    labels: &'static str,
    hits: AtomicU64,
}

impl Counter {
    /// Declares a counter. `labels` is a raw Prometheus label body such as
    /// `event="work_queue_claim"` (empty for none).
    #[must_use]
    pub const fn new(name: &'static str, labels: &'static str) -> Self {
        Counter { name, labels, hits: AtomicU64::new(0) }
    }

    /// Adds `n` to the counter; no-op while the collector is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        OPS.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins signed gauge.
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    labels: &'static str,
    value: AtomicI64,
}

impl Gauge {
    /// Declares a gauge.
    #[must_use]
    pub const fn new(name: &'static str, labels: &'static str) -> Self {
        Gauge { name, labels, value: AtomicI64::new(0) }
    }

    /// Sets the gauge; no-op while the collector is disabled.
    #[inline]
    pub fn set(&self, v: i64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        OPS.fetch_add(1, Ordering::Relaxed);
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket log-2 histogram: 64 buckets cover the full `u64` range,
/// so recording never allocates and bucket boundaries are stable across
/// runs (a requirement for the trend reporter's deltas).
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    labels: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Declares a histogram.
    #[must_use]
    pub const fn new(name: &'static str, labels: &'static str) -> Self {
        Histogram {
            name,
            labels,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Bucket index for a value: 0 for 0, otherwise `floor(log2 v) + 1`,
    /// clamped into the last bucket.
    #[must_use]
    pub fn bucket_index(v: u64) -> usize {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one observation; no-op while the collector is disabled.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        OPS.fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a [`LocalHistogram`] accumulator in — one collector crossing
    /// for an entire hot loop's worth of observations. No-op while the
    /// collector is disabled or when the accumulator is empty.
    pub fn merge(&self, local: &LocalHistogram) {
        if local.count == 0 || !ENABLED.load(Ordering::Relaxed) {
            return;
        }
        OPS.fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
        for (bucket, &n) in self.buckets.iter().zip(&local.buckets) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of recorded observations (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A plain, non-atomic histogram accumulator for hot loops that must not
/// cross the collector per observation (e.g. the VM's per-block dispatch
/// length): observe locally — three integer adds, no atomics, no enable
/// check — then fold the whole loop into a [`Histogram`] with one
/// [`Histogram::merge`] at a boundary the host already witnesses.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    count: u64,
    sum: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl LocalHistogram {
    /// An empty accumulator.
    #[must_use]
    pub const fn new() -> Self {
        LocalHistogram { count: 0, sum: 0, buckets: [0; HISTOGRAM_BUCKETS] }
    }

    /// Records one observation locally.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.buckets[Histogram::bucket_index(v)] += 1;
    }

    /// Number of locally recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Drops all local observations.
    pub fn clear(&mut self) {
        *self = LocalHistogram::new();
    }
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram::new()
    }
}

/// An RAII span: starts a wall-clock timer on construction (only when the
/// collector is enabled — the disabled path never reads the clock) and
/// records the elapsed nanoseconds into its histogram on drop.
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    hist: &'static Histogram,
}

impl Span {
    /// Opens a span feeding `hist`.
    #[inline]
    #[must_use]
    pub fn start(hist: &'static Histogram) -> Span {
        let start = if ENABLED.load(Ordering::Relaxed) { Some(Instant::now()) } else { None };
        // The flight recorder derives verifier phase events from span
        // identity (one relaxed load when it is disabled).
        flightrec::span_phase_marker(hist);
        Span { start, hist }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.observe(ns);
        }
    }
}

/// Every metric the DEFLECTION pipeline records, declared centrally so the
/// exposition order is stable and the whole set is enumerable without a
/// runtime registry (no allocation on any hot path).
#[derive(Debug)]
#[allow(missing_docs)] // field names are the documentation; see DESIGN.md §5e
pub struct Metrics {
    // -- untrusted producer (produce_for_layout two-pass pipeline) --------
    pub produce_ns: Histogram,
    pub produce_analysis_ns: Histogram,
    pub produce_self_verify_ns: Histogram,
    pub produce_elision_fallbacks: Counter,
    pub produce_guards_elided: Counter,
    // -- producer MIR optimizer (per-pass rewrite counts) ------------------
    pub producer_opt_peephole: Counter,
    pub producer_opt_const_fold: Counter,
    pub producer_opt_loop_bound: Counter,
    pub producer_opt_addr_canon: Counter,
    pub producer_opt_dce: Counter,
    // -- in-enclave verifier phases (host-observable timings) -------------
    pub verify_ns: Histogram,
    pub verify_disasm_ns: Histogram,
    pub verify_discovery_ns: Histogram,
    pub verify_checks_ns: Histogram,
    pub verify_accepts: Counter,
    pub verify_rejects: Counter,
    // -- abstract interpreter (guard elision) ------------------------------
    pub analysis_run_ns: Histogram,
    // -- enclave pool ------------------------------------------------------
    pub pool_install_cache_hits: Counter,
    pub pool_install_cache_misses: Counter,
    pub pool_sealed_exports: Counter,
    pub pool_sealed_imports: Counter,
    /// Claims taken from the shared work queue in the work-stealing serve
    /// loop. Every served request is one claim — including a worker's own
    /// first claims — so this is a throughput count, not a count of
    /// requests stolen from another worker's share.
    pub pool_work_queue_claims: Counter,
    pub pool_round_robin_assignments: Counter,
    pub pool_contained_faults: Counter,
    pub pool_lost_instances: Counter,
    pub pool_respawns: Counter,
    pub pool_quarantines: Counter,
    pub pool_stranded_retries: Counter,
    /// Prepared-image LRU evictions from the pool's bounded install cache.
    pub pool_prepared_evictions: Counter,
    pub pool_serve_batch_ns: Histogram,
    // -- admission frontend (untrusted host-side serving layer) -----------
    // Queue depth, shed decisions and batch shapes are host scheduling
    // state the untrusted dispatcher computes itself; exposing them leaks
    // nothing an enclave ever witnessed (DESIGN.md §5k).
    pub admission_enqueued: Counter,
    pub admission_admitted: Counter,
    pub admission_shed_queue_full: Counter,
    pub admission_shed_tenant_in_flight: Counter,
    pub admission_shed_lifetime_budget: Counter,
    pub admission_queue_depth: Gauge,
    pub admission_batch_size: Histogram,
    pub admission_wait_ns: Histogram,
    // -- bootstrap-enclave runtime (per-run P0 accounting) -----------------
    pub run_reports: Counter,
    pub run_sent_bytes: Histogram,
    pub run_budget_headroom: Gauge,
    pub run_budget_exhaustions: Counter,
    /// Audit events *decoded by the owner* from an authenticated export —
    /// never bumped on the in-enclave record path, which must not feed the
    /// host-visible metrics plane (see the trust model above).
    pub audit_events: Counter,
    pub audit_exports: Counter,
    // -- simulated hardware (trace cache / dispatch) -----------------------
    // Hardware-model counters: the events they count (decode-cache
    // behaviour, interrupt-to-interrupt run lengths) are exactly what real
    // silicon exposes to the host through performance counters and AEX
    // itself, so surfacing them adds no covert channel (DESIGN.md §5f).
    pub vm_dispatch_block_len: Histogram,
    // Superblock trace cache: formation/chaining/side-exit/kill events and
    // the length distribution of formed traces (trace formation is decode
    // activity the host can already time).
    pub vm_trace_formed: Counter,
    pub vm_trace_chained: Counter,
    pub vm_trace_side_exits: Counter,
    pub vm_trace_invalidated: Counter,
    pub vm_trace_len: Histogram,
}

impl Metrics {
    const fn new() -> Metrics {
        Metrics {
            produce_ns: Histogram::new("deflection_produce_ns", r#"phase="total""#),
            produce_analysis_ns: Histogram::new("deflection_produce_ns", r#"phase="analysis""#),
            produce_self_verify_ns: Histogram::new(
                "deflection_produce_ns",
                r#"phase="self_verify""#,
            ),
            produce_elision_fallbacks: Counter::new(
                "deflection_produce_events_total",
                r#"event="elision_fallback""#,
            ),
            produce_guards_elided: Counter::new(
                "deflection_produce_events_total",
                r#"event="guard_elided""#,
            ),
            producer_opt_peephole: Counter::new(
                "deflection_producer_opt_rewrites_total",
                r#"pass="peephole""#,
            ),
            producer_opt_const_fold: Counter::new(
                "deflection_producer_opt_rewrites_total",
                r#"pass="const_fold""#,
            ),
            producer_opt_loop_bound: Counter::new(
                "deflection_producer_opt_rewrites_total",
                r#"pass="loop_bound""#,
            ),
            producer_opt_addr_canon: Counter::new(
                "deflection_producer_opt_rewrites_total",
                r#"pass="addr_canon""#,
            ),
            producer_opt_dce: Counter::new(
                "deflection_producer_opt_rewrites_total",
                r#"pass="dce""#,
            ),
            verify_ns: Histogram::new("deflection_verify_ns", r#"phase="total""#),
            verify_disasm_ns: Histogram::new("deflection_verify_ns", r#"phase="disasm""#),
            verify_discovery_ns: Histogram::new("deflection_verify_ns", r#"phase="discovery""#),
            verify_checks_ns: Histogram::new("deflection_verify_ns", r#"phase="checks""#),
            verify_accepts: Counter::new("deflection_verify_total", r#"verdict="accept""#),
            verify_rejects: Counter::new("deflection_verify_total", r#"verdict="reject""#),
            analysis_run_ns: Histogram::new("deflection_analysis_run_ns", ""),
            pool_install_cache_hits: Counter::new(
                "deflection_pool_events_total",
                r#"event="install_cache_hit""#,
            ),
            pool_install_cache_misses: Counter::new(
                "deflection_pool_events_total",
                r#"event="install_cache_miss""#,
            ),
            pool_sealed_exports: Counter::new(
                "deflection_pool_events_total",
                r#"event="sealed_export""#,
            ),
            pool_sealed_imports: Counter::new(
                "deflection_pool_events_total",
                r#"event="sealed_import""#,
            ),
            pool_work_queue_claims: Counter::new(
                "deflection_pool_events_total",
                r#"event="work_queue_claim""#,
            ),
            pool_round_robin_assignments: Counter::new(
                "deflection_pool_events_total",
                r#"event="round_robin_assignment""#,
            ),
            pool_contained_faults: Counter::new(
                "deflection_pool_events_total",
                r#"event="contained_fault""#,
            ),
            pool_lost_instances: Counter::new(
                "deflection_pool_events_total",
                r#"event="lost_instance""#,
            ),
            pool_respawns: Counter::new("deflection_pool_events_total", r#"event="respawn""#),
            pool_quarantines: Counter::new("deflection_pool_events_total", r#"event="quarantine""#),
            pool_stranded_retries: Counter::new(
                "deflection_pool_events_total",
                r#"event="stranded_retry""#,
            ),
            pool_prepared_evictions: Counter::new(
                "deflection_pool_events_total",
                r#"event="prepared_eviction""#,
            ),
            pool_serve_batch_ns: Histogram::new("deflection_pool_serve_batch_ns", ""),
            admission_enqueued: Counter::new(
                "deflection_admission_events_total",
                r#"event="enqueue""#,
            ),
            admission_admitted: Counter::new(
                "deflection_admission_events_total",
                r#"event="admit""#,
            ),
            admission_shed_queue_full: Counter::new(
                "deflection_admission_events_total",
                r#"event="shed_queue_full""#,
            ),
            admission_shed_tenant_in_flight: Counter::new(
                "deflection_admission_events_total",
                r#"event="shed_tenant_in_flight""#,
            ),
            admission_shed_lifetime_budget: Counter::new(
                "deflection_admission_events_total",
                r#"event="shed_lifetime_budget""#,
            ),
            admission_queue_depth: Gauge::new("deflection_admission_queue_depth", ""),
            admission_batch_size: Histogram::new("deflection_admission_batch_size", ""),
            admission_wait_ns: Histogram::new("deflection_admission_wait_ns", ""),
            run_reports: Counter::new("deflection_run_total", ""),
            run_sent_bytes: Histogram::new("deflection_run_sent_bytes", ""),
            run_budget_headroom: Gauge::new("deflection_run_budget_headroom_bytes", ""),
            run_budget_exhaustions: Counter::new(
                "deflection_run_events_total",
                r#"event="budget_exhausted""#,
            ),
            audit_events: Counter::new("deflection_audit_total", r#"event="decoded""#),
            audit_exports: Counter::new("deflection_audit_total", r#"event="exported""#),
            vm_dispatch_block_len: Histogram::new("deflection_vm_dispatch_block_len", ""),
            vm_trace_formed: Counter::new("deflection_vm_trace_events_total", r#"event="formed""#),
            vm_trace_chained: Counter::new(
                "deflection_vm_trace_events_total",
                r#"event="chained""#,
            ),
            vm_trace_side_exits: Counter::new(
                "deflection_vm_trace_events_total",
                r#"event="side_exit""#,
            ),
            vm_trace_invalidated: Counter::new(
                "deflection_vm_trace_events_total",
                r#"event="invalidated""#,
            ),
            vm_trace_len: Histogram::new("deflection_vm_trace_len", ""),
        }
    }

    fn counters(&self) -> [&Counter; 16] {
        [
            &self.produce_elision_fallbacks,
            &self.produce_guards_elided,
            &self.verify_accepts,
            &self.verify_rejects,
            &self.pool_install_cache_hits,
            &self.pool_install_cache_misses,
            &self.pool_sealed_exports,
            &self.pool_sealed_imports,
            &self.pool_work_queue_claims,
            &self.pool_round_robin_assignments,
            &self.pool_contained_faults,
            &self.pool_lost_instances,
            &self.pool_respawns,
            &self.pool_quarantines,
            &self.pool_stranded_retries,
            &self.run_reports,
        ]
    }

    fn more_counters(&self) -> [&Counter; 18] {
        [
            &self.admission_enqueued,
            &self.admission_admitted,
            &self.admission_shed_queue_full,
            &self.admission_shed_tenant_in_flight,
            &self.admission_shed_lifetime_budget,
            &self.run_budget_exhaustions,
            &self.audit_events,
            &self.audit_exports,
            &self.vm_trace_formed,
            &self.vm_trace_chained,
            &self.vm_trace_side_exits,
            &self.vm_trace_invalidated,
            &self.producer_opt_peephole,
            &self.producer_opt_const_fold,
            &self.producer_opt_loop_bound,
            &self.producer_opt_addr_canon,
            &self.producer_opt_dce,
            &self.pool_prepared_evictions,
        ]
    }

    fn gauges(&self) -> [&Gauge; 2] {
        [&self.run_budget_headroom, &self.admission_queue_depth]
    }

    fn histograms(&self) -> [&Histogram; 10] {
        [
            &self.admission_wait_ns,
            &self.produce_ns,
            &self.produce_analysis_ns,
            &self.produce_self_verify_ns,
            &self.verify_ns,
            &self.verify_disasm_ns,
            &self.verify_discovery_ns,
            &self.verify_checks_ns,
            &self.analysis_run_ns,
            &self.pool_serve_batch_ns,
        ]
    }

    fn all_histograms(&self) -> Vec<&Histogram> {
        let mut v: Vec<&Histogram> = self.histograms().to_vec();
        v.push(&self.run_sent_bytes);
        v.push(&self.vm_dispatch_block_len);
        v.push(&self.vm_trace_len);
        // Batch sizes are workload-shaped, not timings: excluded from the
        // `_ns` tail gating like the other value histograms here.
        v.push(&self.admission_batch_size);
        v
    }

    fn all_counters(&self) -> Vec<&Counter> {
        let mut v: Vec<&Counter> = self.counters().to_vec();
        v.extend(self.more_counters());
        v
    }
}

/// The global metric set every instrumentation site records into.
pub static METRICS: Metrics = Metrics::new();

/// One counter or gauge sample in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (Prometheus conventions).
    pub name: &'static str,
    /// Raw label body (`key="value"`), possibly empty.
    pub labels: &'static str,
    /// Sampled value.
    pub value: i64,
}

/// One histogram sample in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: &'static str,
    /// Raw label body, possibly empty.
    pub labels: &'static str,
    /// Observation count.
    pub count: u64,
    /// Observation sum.
    pub sum: u64,
    /// Non-cumulative per-bucket counts (log-2 boundaries, see
    /// [`Histogram::bucket_index`]); trailing empty buckets are trimmed.
    pub buckets: Vec<u64>,
}

impl HistogramSample {
    /// Estimates the `q`-quantile (`0.0..=1.0`) from the log-2 buckets by
    /// linear interpolation inside the target bucket: bucket 0 is exactly
    /// 0, bucket `k` spans `[2^(k-1), 2^k)`, and the saturated last bucket
    /// reports its lower bound (no finite upper bound is truthful for it —
    /// the same honesty rule as the `+Inf`-only exposition). Returns 0 for
    /// an empty histogram.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= rank {
                if i == 0 {
                    return 0.0;
                }
                if i == HISTOGRAM_BUCKETS - 1 {
                    return (1u64 << (i - 1)) as f64;
                }
                let lo = (1u64 << (i - 1)) as f64;
                let hi = (1u64 << i) as f64;
                let frac = (rank - cum as f64) / n as f64;
                return lo + (hi - lo) * frac.clamp(0.0, 1.0);
            }
            cum = next;
        }
        // Unreachable when buckets sum to count; be conservative if not.
        self.buckets.len().checked_sub(1).map_or(0.0, |i| (1u64 << i.min(63)) as f64)
    }

    /// Median estimate (see [`HistogramSample::percentile`]).
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// Tail estimate (see [`HistogramSample::percentile`]).
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// A point-in-time copy of every metric, decoupled from the live atomics.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Counters and gauges.
    pub samples: Vec<Sample>,
    /// Histograms.
    pub histograms: Vec<HistogramSample>,
}

impl Snapshot {
    /// Total recorded events: counter hits plus histogram observations.
    /// This is the operation count the `ablation_telemetry` bench uses to
    /// bound the disabled-path overhead.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        let c: u64 = self
            .samples
            .iter()
            .filter(|s| s.name.ends_with("_total"))
            .map(|s| s.value.max(0) as u64)
            .sum();
        let h: u64 = self.histograms.iter().map(|h| h.count).sum();
        c + h
    }

    /// Renders the stable Prometheus-style text exposition:
    /// `name{label="v"} value` lines, histograms as `_count`/`_sum` plus
    /// cumulative `_bucket{le="..."}` lines.
    ///
    /// The final histogram bucket saturates: it holds everything from
    /// `2^62` up, including values past `2^63`, so it gets no numeric `le`
    /// line (which would claim a bound some of its values exceed) — only
    /// the `+Inf` line covers it.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let fmt_labels = |labels: &str, extra: Option<&str>| -> String {
            match (labels.is_empty(), extra) {
                (true, None) => String::new(),
                (true, Some(e)) => format!("{{{e}}}"),
                (false, None) => format!("{{{labels}}}"),
                (false, Some(e)) => format!("{{{labels},{e}}}"),
            }
        };
        for s in &self.samples {
            out.push_str(&format!("{}{} {}\n", s.name, fmt_labels(s.labels, None), s.value));
        }
        for h in &self.histograms {
            out.push_str(&format!("{}_count{} {}\n", h.name, fmt_labels(h.labels, None), h.count));
            out.push_str(&format!("{}_sum{} {}\n", h.name, fmt_labels(h.labels, None), h.sum));
            if h.count > 0 {
                out.push_str(&format!(
                    "{}_p50{} {:.1}\n",
                    h.name,
                    fmt_labels(h.labels, None),
                    h.p50()
                ));
                out.push_str(&format!(
                    "{}_p99{} {:.1}\n",
                    h.name,
                    fmt_labels(h.labels, None),
                    h.p99()
                ));
            }
            let mut cum = 0u64;
            for (i, &b) in h.buckets.iter().enumerate() {
                cum += b;
                // The last bucket absorbs all values >= 2^62 (bucket_index
                // clamps), so no finite le bound is truthful for it; the
                // +Inf line below is its only exposition.
                if b == 0 || i == HISTOGRAM_BUCKETS - 1 {
                    continue;
                }
                let le = if i == 0 { "0".to_string() } else { format!("{}", 1u128 << i) };
                let extra = format!("le=\"{le}\"");
                out.push_str(&format!(
                    "{}_bucket{} {}\n",
                    h.name,
                    fmt_labels(h.labels, Some(&extra)),
                    cum
                ));
            }
            let extra = "le=\"+Inf\"".to_string();
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                h.name,
                fmt_labels(h.labels, Some(&extra)),
                h.count
            ));
        }
        out
    }

    /// Renders the snapshot as a self-describing JSON document (schema
    /// `deflection-metrics-v1`), the format `METRICS_*.json` files use and
    /// the trend reporter ingests. Label bodies are properly escaped (they
    /// contain quotes by construction — `event="claim"` — and may embed
    /// arbitrary caller strings), so the output is always well-formed.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_stamped(None)
    }

    /// [`Snapshot::to_json`] with an optional host stamp
    /// (`available_parallelism`), which the trend reporter requires before
    /// it will *enforce* p50/p99 tail regressions — numbers measured on
    /// different host shapes are reported but never gate.
    #[must_use]
    pub fn to_json_stamped(&self, available_parallelism: Option<u64>) -> String {
        let mut out = String::from("{\n  \"schema\": \"deflection-metrics-v1\",\n");
        if let Some(cores) = available_parallelism {
            out.push_str(&format!("  \"host\": {{\"available_parallelism\": {cores}}},\n"));
        }
        out.push_str("  \"samples\": [");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"labels\": \"{}\", \"value\": {}}}",
                escape_json(s.name),
                escape_json(s.labels),
                s.value
            ));
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h.buckets.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"labels\": \"{}\", \"count\": {}, \"sum\": {}, \
                 \"p50\": {:.1}, \"p99\": {:.1}, \"buckets\": [{}]}}",
                escape_json(h.name),
                escape_json(h.labels),
                h.count,
                h.sum,
                h.p50(),
                h.p99(),
                buckets.join(", ")
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// The process-global collector: enable/disable switch, snapshotting and
/// reset over [`METRICS`].
#[derive(Debug)]
pub struct Collector;

impl Collector {
    /// Turns recording on.
    pub fn enable() {
        ENABLED.store(true, Ordering::SeqCst);
    }

    /// Turns recording off (the default). Already-recorded values are kept
    /// until [`Collector::reset`].
    pub fn disable() {
        ENABLED.store(false, Ordering::SeqCst);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled() -> bool {
        ENABLED.load(Ordering::Relaxed)
    }

    /// Copies every metric out of the live atomics. Safe to call while
    /// instrumented code runs concurrently (each value is read atomically;
    /// the snapshot is not a cross-metric transaction).
    #[must_use]
    pub fn snapshot() -> Snapshot {
        let m = &METRICS;
        let mut samples: Vec<Sample> = m
            .all_counters()
            .iter()
            .map(|c| Sample {
                name: c.name,
                labels: c.labels,
                value: i64::try_from(c.get()).unwrap_or(i64::MAX),
            })
            .collect();
        samples.extend(m.gauges().iter().map(|g| Sample {
            name: g.name,
            labels: g.labels,
            value: g.get(),
        }));
        let histograms = m
            .all_histograms()
            .iter()
            .map(|h| {
                let mut buckets: Vec<u64> =
                    h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
                while buckets.last() == Some(&0) {
                    buckets.pop();
                }
                HistogramSample {
                    name: h.name,
                    labels: h.labels,
                    count: h.count(),
                    sum: h.sum(),
                    buckets,
                }
            })
            .collect();
        Snapshot { samples, histograms }
    }

    /// Number of metric operations executed while enabled since the last
    /// [`Collector::reset`] — `add(delta)` and `merge(local)` each count
    /// once, however many events they carry. This is the multiplicand for
    /// the disabled-cost budget (`ablation_telemetry`): every one of these
    /// operations is exactly one relaxed-load-and-return when disabled.
    #[must_use]
    pub fn op_count() -> u64 {
        OPS.load(Ordering::Relaxed)
    }

    /// Zeroes every metric (test/bench isolation). Does not change the
    /// enabled flag.
    pub fn reset() {
        OPS.store(0, Ordering::SeqCst);
        let m = &METRICS;
        for c in m.all_counters() {
            c.reset();
        }
        for g in m.gauges() {
            g.reset();
        }
        for h in m.all_histograms() {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global collector is shared by every test in this binary; the
    /// lock keeps enable/reset windows from interleaving.
    fn with_collector<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::{Mutex, OnceLock};
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        let _guard = LOCK.get_or_init(|| Mutex::new(())).lock().unwrap();
        Collector::reset();
        Collector::enable();
        let r = f();
        Collector::disable();
        Collector::reset();
        r
    }

    #[test]
    fn local_histogram_merge_matches_direct_observation() {
        with_collector(|| {
            static DIRECT: Histogram = Histogram::new("test_merge_direct", "");
            static MERGED: Histogram = Histogram::new("test_merge_folded", "");
            let values = [0u64, 1, 7, 1024, u64::MAX];
            let mut local = LocalHistogram::new();
            for &v in &values {
                DIRECT.observe(v);
                local.observe(v);
            }
            assert_eq!(local.count(), values.len() as u64);
            MERGED.merge(&local);
            assert_eq!(MERGED.count(), DIRECT.count());
            assert_eq!(MERGED.sum(), DIRECT.sum());
            for (a, b) in MERGED.buckets.iter().zip(&DIRECT.buckets) {
                assert_eq!(a.load(Ordering::Relaxed), b.load(Ordering::Relaxed));
            }
            local.clear();
            assert_eq!(local.count(), 0);
            MERGED.merge(&local); // empty merge is a no-op
            assert_eq!(MERGED.count(), values.len() as u64);
        });
    }

    #[test]
    fn merge_is_a_no_op_while_disabled() {
        static H: Histogram = Histogram::new("test_merge_disabled", "");
        let mut local = LocalHistogram::new();
        local.observe(42);
        Collector::disable();
        H.merge(&local);
        assert_eq!(H.count(), 0);
    }

    #[test]
    fn op_count_tracks_operations_not_events() {
        with_collector(|| {
            static C: Counter = Counter::new("test_ops_counter", "");
            static H: Histogram = Histogram::new("test_ops_hist", "");
            let base = Collector::op_count();
            // One add carrying many events is ONE op — the property the
            // telemetry-overhead budget depends on.
            C.add(100_000);
            let mut local = LocalHistogram::new();
            for v in 0..1_000 {
                local.observe(v); // local: crosses no collector
            }
            H.merge(&local);
            assert_eq!(Collector::op_count() - base, 2);
        });
    }

    #[test]
    fn disabled_collector_records_nothing() {
        let c = Counter::new("t", "");
        let h = Histogram::new("t", "");
        let g = Gauge::new("t", "");
        assert!(!Collector::is_enabled());
        c.add(5);
        h.observe(7);
        g.set(9);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn enabled_collector_records_and_snapshots() {
        with_collector(|| {
            METRICS.pool_work_queue_claims.add(3);
            METRICS.run_sent_bytes.observe(100);
            METRICS.run_budget_headroom.set(-4);
            let snap = Collector::snapshot();
            let claims = snap
                .samples
                .iter()
                .find(|s| s.labels.contains("work_queue_claim"))
                .expect("work-queue claim counter present");
            assert_eq!(claims.value, 3);
            let sent = snap
                .histograms
                .iter()
                .find(|h| h.name == "deflection_run_sent_bytes")
                .expect("sent-bytes histogram present");
            assert_eq!(sent.count, 1);
            assert_eq!(sent.sum, 100);
            assert!(snap.total_events() >= 4);
            let text = snap.to_prometheus();
            assert!(text.contains("deflection_pool_events_total{event=\"work_queue_claim\"} 3"));
            assert!(text.contains("deflection_run_budget_headroom_bytes -4"));
            assert!(text.contains("deflection_run_sent_bytes_bucket{le=\"128\"} 1"));
            let json = snap.to_json();
            assert!(json.contains("\"schema\": \"deflection-metrics-v1\""));
            assert!(json.contains("\"sum\": 100"));
        });
    }

    #[test]
    fn bucket_boundaries_are_log2() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn saturated_last_bucket_renders_only_as_inf() {
        with_collector(|| {
            // u64::MAX lands in the clamped final bucket, which conflates
            // [2^62, 2^63) with everything larger — no finite le bound is
            // truthful for it, so only the +Inf line may expose it.
            METRICS.run_sent_bytes.observe(u64::MAX);
            let text = Collector::snapshot().to_prometheus();
            assert!(!text.contains(&format!("le=\"{}\"", 1u128 << 63)));
            assert!(text.contains("deflection_run_sent_bytes_bucket{le=\"+Inf\"} 1"));
        });
    }

    #[test]
    fn span_times_only_when_enabled() {
        with_collector(|| {
            {
                let _s = Span::start(&METRICS.verify_ns);
            }
            assert_eq!(METRICS.verify_ns.count(), 1);
        });
        // Disabled: no observation, and the clock is never read.
        {
            let s = Span::start(&METRICS.verify_ns);
            assert!(s.start.is_none());
        }
        assert_eq!(METRICS.verify_ns.count(), 0);
    }

    #[test]
    fn json_export_escapes_hostile_strings_and_stays_well_formed() {
        with_collector(|| {
            METRICS.verify_accepts.add(1);
            METRICS.verify_ns.observe(1000);
            let json = Collector::snapshot().to_json();
            assert!(json_well_formed(&json), "snapshot JSON must be well-formed:\n{json}");
            // Label bodies contain quotes by construction; they must arrive
            // escaped, not smuggled or mangled into single quotes.
            assert!(json.contains(r#""labels": "verdict=\"accept\"""#));
            let stamped = Collector::snapshot().to_json_stamped(Some(8));
            assert!(json_well_formed(&stamped));
            assert!(stamped.contains("\"available_parallelism\": 8"));
        });
        // A hostile name (quotes, backslashes, control chars) cannot break
        // the document.
        let snap = Snapshot {
            samples: vec![],
            histograms: vec![HistogramSample {
                name: "deflection_test_ns",
                labels: "bin=\"a\\b\"c\n\u{1}\"",
                count: 1,
                sum: 7,
                buckets: vec![0, 0, 0, 1],
            }],
        };
        assert!(json_well_formed(&snap.to_json()), "hostile label leaked:\n{}", snap.to_json());
    }

    #[test]
    fn escape_json_handles_quotes_backslashes_and_control_chars() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b"), "a\\\"b");
        assert_eq!(escape_json("a\\b"), "a\\\\b");
        assert_eq!(escape_json("a\nb\tc\rd"), "a\\nb\\tc\\rd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn json_well_formed_accepts_valid_and_rejects_broken_documents() {
        assert!(json_well_formed("{}"));
        assert!(json_well_formed("[1, 2.5, -3e2, \"x\\n\", true, false, null, {\"a\": []}]"));
        assert!(json_well_formed("  {\"k\": \"v\"}  "));
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\": }",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "{\"a\": \"raw\nnewline\"}",
            "01e",
            "nulle",
        ] {
            assert!(!json_well_formed(bad), "accepted broken JSON: {bad:?}");
        }
    }

    #[test]
    fn percentiles_interpolate_log2_buckets() {
        let h = |count: u64, buckets: Vec<u64>| HistogramSample {
            name: "t",
            labels: "",
            count,
            sum: 0,
            buckets,
        };
        // Empty histogram: both quantiles are 0.
        assert_eq!(h(0, vec![]).p50(), 0.0);
        // All zeros: bucket 0 is exactly 0.
        assert_eq!(h(4, vec![4]).p50(), 0.0);
        // 100 observations spread evenly in [8, 16) (bucket 4): p50 lands
        // mid-bucket, p99 near the top.
        let mid = h(100, vec![0, 0, 0, 0, 100]);
        assert!((mid.p50() - 12.0).abs() < 0.5, "p50={}", mid.p50());
        assert!(mid.p99() > 15.0 && mid.p99() <= 16.0, "p99={}", mid.p99());
        // Skewed tail: 99 fast (bucket 1 = [1,2)) + 1 slow (bucket 11 =
        // [1024, 2048)); p50 stays fast, p99 crosses into... the 99th of
        // 100 is still the last fast observation, p99.5 would be slow.
        let skew = h(100, vec![0, 99, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1]);
        assert!(skew.p50() < 2.0);
        assert!(skew.percentile(0.995) >= 1024.0);
        // The saturated last bucket reports its lower bound.
        let mut sat_buckets = vec![0u64; HISTOGRAM_BUCKETS];
        sat_buckets[HISTOGRAM_BUCKETS - 1] = 10;
        let sat = h(10, sat_buckets);
        assert_eq!(sat.p99(), (1u64 << 62) as f64);
        // Monotone in q.
        let m = h(10, vec![1, 2, 3, 4]);
        assert!(m.percentile(0.1) <= m.percentile(0.5));
        assert!(m.percentile(0.5) <= m.percentile(0.9));
    }

    #[test]
    fn prometheus_exposition_includes_percentile_lines() {
        with_collector(|| {
            for v in [10u64, 12, 14, 1000] {
                METRICS.verify_ns.observe(v);
            }
            let text = Collector::snapshot().to_prometheus();
            assert!(text.contains("deflection_verify_ns_p50{phase=\"total\"}"));
            assert!(text.contains("deflection_verify_ns_p99{phase=\"total\"}"));
            // Histograms with no observations emit no percentile lines.
            assert!(!text.contains("deflection_produce_ns_p50"));
        });
    }

    #[test]
    fn reset_zeroes_everything() {
        with_collector(|| {
            METRICS.verify_accepts.add(2);
            METRICS.verify_ns.observe(10);
            Collector::reset();
            assert_eq!(METRICS.verify_accepts.get(), 0);
            assert_eq!(METRICS.verify_ns.count(), 0);
        });
    }
}
