//! The flight recorder: a bounded, lock-cheap structured event ring with a
//! logical monotonic clock and causal request IDs.
//!
//! Where the metric plane (`crates/telemetry` counters/histograms) answers
//! *how many* and *how long on average*, the flight recorder answers *what
//! happened to this request*: every lifecycle stage — enqueue, work-queue
//! claim, install, install replay, run, seal, fault, respawn — emits
//! one fixed-size record stamped with a process-global logical clock and the
//! request's [`TraceId`], so a drained ring reconstructs into per-request
//! causal timelines ([`Timeline`]) and exports as chrome://tracing JSON
//! ([`chrome_trace`], schema `deflection-trace-v1`).
//!
//! # Trust model
//!
//! Same rule as the metric plane (DESIGN.md §5e/§5j): every recording site
//! sits at a host-witnessed boundary — pool scheduling decisions, ECall
//! entry/exit, install replay — never inside a run. The in-enclave paths
//! (the verifier, `HostState`, the VM dispatch loops) do not touch the
//! ring, and no event is derived from inside one, so recording adds no
//! covert channel beyond the ECall timing the host already sees, and the
//! exporters never enter the TCB.
//!
//! # Cost model
//!
//! Disabled (the default), [`record`] is one relaxed atomic load and a
//! return — the same budget as a disabled [`crate::Counter::add`], bounded
//! to ≤1% of verify+serve by the `ablation_flightrec` bench. Enabled, a
//! record is one clock `fetch_add` plus five relaxed stores into a fixed
//! ring slot: no locks, no allocation, no syscalls.
//!
//! # Ring semantics
//!
//! The ring holds the newest [`RING_SLOTS`] records; older ones are
//! overwritten in place and counted exactly: `drain().dropped` is the
//! logical-clock total minus the retained records (exact whenever no writer
//! races the drain). Slots are stamped seqlock-style — a drain racing a
//! writer skips the torn slot instead of reading a half-written record.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Ring capacity in records. 8192 slots × 5 words ≈ 320 KiB of static
/// storage — enough for several pooled serve batches of full lifecycles.
pub const RING_SLOTS: usize = 8192;

/// Process-global recorder switch; all recording is a no-op while false.
static FLIGHT_ENABLED: AtomicBool = AtomicBool::new(false);

/// Count of record/mint operations executed while enabled — the
/// multiplicand for the `ablation_flightrec` disabled-cost budget (each of
/// these is exactly one relaxed load-and-return when disabled).
static FLIGHT_OPS: AtomicU64 = AtomicU64::new(0);

/// The logical monotonic clock: one tick per recorded event. Event
/// sequence numbers ARE clock readings, so "totally ordered by logical
/// clock" and "totally ordered by seq" are the same statement.
static CLOCK: AtomicU64 = AtomicU64::new(0);

/// Next causal ID to mint. Starts at 1; 0 is reserved for
/// [`TraceId::NONE`] (events not attributed to any request).
static NEXT_TRACE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The ambient causal ID for this thread: pool workers set it around a
    /// claimed request so boundary events recorded further down the stack
    /// (runtime, verifier) inherit the request's identity without
    /// signature changes.
    static AMBIENT: Cell<u64> = const { Cell::new(0) };
}

/// A causal identifier minted once per request or install and threaded
/// through the whole lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// "No attribution": events recorded outside any request context.
    pub const NONE: TraceId = TraceId(0);

    /// Mints a fresh nonzero ID. Returns [`TraceId::NONE`] while the
    /// recorder is disabled so the disabled path stays one atomic load.
    #[inline]
    #[must_use]
    pub fn mint() -> TraceId {
        if !FLIGHT_ENABLED.load(Ordering::Relaxed) {
            return TraceId::NONE;
        }
        FLIGHT_OPS.fetch_add(1, Ordering::Relaxed);
        TraceId(NEXT_TRACE.fetch_add(1, Ordering::Relaxed))
    }

    /// Whether this is the unattributed ID.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// What happened. The `a`/`b` payload words are kind-specific; see
/// [`FlightEvent::describe`] for the field names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum EventKind {
    /// A request entered a serve batch (`a` = request index, `b` = batch
    /// size).
    Enqueue = 1,
    /// A worker claimed a request from the work queue (`a` = request
    /// index, `b` = worker slot).
    Claim = 2,
    /// A prepared install was replayed into a worker (`a` = worker slot).
    InstallReplay = 3,
    /// An ECall run returned (`a` = instructions executed, `b` = exit tag:
    /// 0 halt, 1 policy abort, 2 fault, 3 out of fuel).
    Run = 5,
    /// Sealed records were produced by a run (`a` = record count, `b` =
    /// sealed bytes: fixed-length ciphertexts, never the plaintext length).
    Seal = 6,
    /// A worker fault during a run (`a` = worker slot, `b` = reason:
    /// 0 contained fault, 1 lost instance).
    Fault = 7,
    /// A quarantined worker was respawned (`a` = worker slot).
    Respawn = 8,
    /// A worker entered quarantine (`a` = worker slot).
    Quarantine = 9,
    /// A stranded request was retried after respawn (`a` = request index).
    StrandedRetry = 10,
    /// The untrusted producer emitted an instrumented binary (`a` = binary
    /// bytes).
    Produce = 11,
    /// A verified image was installed across the pool (`a` = worker count,
    /// `b` = 1 when served from the prepared-install cache).
    Install = 12,
    /// The admission dispatcher drained a queued request into a batch
    /// (`a` = global request id, `b` = batch size).
    Admit = 13,
    /// The admission frontend rejected a request under backpressure
    /// (`a` = queue depth at the decision, `b` = reason: 0 queue past the
    /// high-water mark, 1 tenant in-flight cap, 2 tenant lifetime budget).
    Shed = 14,
}

impl EventKind {
    /// Stable lowercase name (used by exporters and the timeline demo).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Claim => "claim",
            EventKind::InstallReplay => "install_replay",
            EventKind::Run => "run",
            EventKind::Seal => "seal",
            EventKind::Fault => "fault",
            EventKind::Respawn => "respawn",
            EventKind::Quarantine => "quarantine",
            EventKind::StrandedRetry => "stranded_retry",
            EventKind::Produce => "produce",
            EventKind::Install => "install",
            EventKind::Admit => "admit",
            EventKind::Shed => "shed",
        }
    }

    fn from_u64(v: u64) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Enqueue,
            2 => EventKind::Claim,
            3 => EventKind::InstallReplay,
            5 => EventKind::Run,
            6 => EventKind::Seal,
            7 => EventKind::Fault,
            8 => EventKind::Respawn,
            9 => EventKind::Quarantine,
            10 => EventKind::StrandedRetry,
            11 => EventKind::Produce,
            12 => EventKind::Install,
            13 => EventKind::Admit,
            14 => EventKind::Shed,
            _ => return None,
        })
    }
}

/// One drained flight record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Logical-clock reading (globally unique, totally ordered).
    pub seq: u64,
    /// Causal ID ([`TraceId::NONE`] when unattributed).
    pub trace: TraceId,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (kind-specific).
    pub a: u64,
    /// Second payload word (kind-specific).
    pub b: u64,
}

impl FlightEvent {
    /// Renders the event with kind-specific field names, e.g.
    /// `claim(request=3, worker=1)`.
    #[must_use]
    pub fn describe(&self) -> String {
        let k = self.kind;
        match k {
            EventKind::Enqueue => format!("{}(request={}, batch={})", k.name(), self.a, self.b),
            EventKind::Claim => format!("{}(request={}, worker={})", k.name(), self.a, self.b),
            EventKind::InstallReplay | EventKind::Quarantine | EventKind::Respawn => {
                format!("{}(worker={})", k.name(), self.a)
            }
            EventKind::Run => {
                let exit = match self.b {
                    0 => "halt",
                    1 => "policy_abort",
                    2 => "fault",
                    _ => "out_of_fuel",
                };
                format!("{}(instructions={}, exit={exit})", k.name(), self.a)
            }
            EventKind::Seal => format!("{}(records={}, bytes={})", k.name(), self.a, self.b),
            EventKind::Fault => {
                let reason = if self.b == 0 { "contained" } else { "lost" };
                format!("{}(worker={}, reason={reason})", k.name(), self.a)
            }
            EventKind::StrandedRetry => format!("{}(request={})", k.name(), self.a),
            EventKind::Produce => format!("{}(bytes={})", k.name(), self.a),
            EventKind::Install => {
                format!("{}(workers={}, cached={})", k.name(), self.a, self.b)
            }
            EventKind::Admit => format!("{}(request={}, batch={})", k.name(), self.a, self.b),
            EventKind::Shed => {
                let reason = match self.b {
                    0 => "queue_full",
                    1 => "tenant_in_flight",
                    _ => "lifetime_budget",
                };
                format!("{}(depth={}, reason={reason})", k.name(), self.a)
            }
        }
    }
}

/// One ring slot: a seqlock-style stamp plus the record words. `stamp` is
/// 0 while empty or mid-write, `seq + 1` once the record is published.
#[derive(Debug)]
struct Slot {
    stamp: AtomicU64,
    trace: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

static RING: [Slot; RING_SLOTS] = [const { Slot::new() }; RING_SLOTS];

/// Records one event. Disabled path: one relaxed load, one branch, return.
/// Enabled path: one clock tick plus five relaxed stores into a fixed slot
/// (the publish stamp is a release store so a racing drain never observes
/// a half-written record as valid).
#[inline]
pub fn record(kind: EventKind, trace: TraceId, a: u64, b: u64) {
    if !FLIGHT_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    FLIGHT_OPS.fetch_add(1, Ordering::Relaxed);
    let seq = CLOCK.fetch_add(1, Ordering::Relaxed);
    let slot = &RING[(seq as usize) % RING_SLOTS];
    // Invalidate first so a drain racing this overwrite skips the slot
    // rather than pairing the old stamp with new payload words.
    slot.stamp.store(0, Ordering::Release);
    slot.trace.store(trace.0, Ordering::Relaxed);
    slot.kind.store(kind as u64, Ordering::Relaxed);
    slot.a.store(a, Ordering::Relaxed);
    slot.b.store(b, Ordering::Relaxed);
    slot.stamp.store(seq + 1, Ordering::Release);
}

/// Records one event attributed to the thread's ambient [`TraceId`].
#[inline]
pub fn record_ambient(kind: EventKind, a: u64, b: u64) {
    if !FLIGHT_ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let trace = AMBIENT.with(Cell::get);
    record(kind, TraceId(trace), a, b);
}

/// The thread's ambient causal ID ([`TraceId::NONE`] when unset).
#[must_use]
pub fn ambient() -> TraceId {
    TraceId(AMBIENT.with(Cell::get))
}

/// Runs `f` with `trace` as the thread's ambient causal ID, restoring the
/// previous ambient on exit (panics included — the restore is RAII).
pub fn with_trace<R>(trace: TraceId, f: impl FnOnce() -> R) -> R {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(AMBIENT.with(|c| c.replace(trace.0)));
    f()
}

/// A drained copy of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightLog {
    /// Retained records, sorted by logical clock.
    pub events: Vec<FlightEvent>,
    /// Records overwritten before this drain (exact when no writer raced
    /// the drain; racing writers can only make this an undercount of at
    /// most the in-flight writes).
    pub dropped: u64,
    /// Total events ever recorded (the logical-clock reading).
    pub total: u64,
}

impl FlightLog {
    /// Events attributed to `trace`, in clock order.
    #[must_use]
    pub fn of_trace(&self, trace: TraceId) -> Vec<FlightEvent> {
        self.events.iter().filter(|e| e.trace == trace).copied().collect()
    }
}

/// The process-global flight recorder switchboard (enable/disable, drain,
/// reset), mirroring [`crate::Collector`].
#[derive(Debug)]
pub struct FlightRecorder;

impl FlightRecorder {
    /// Turns recording on.
    pub fn enable() {
        FLIGHT_ENABLED.store(true, Ordering::SeqCst);
    }

    /// Turns recording off (the default). The ring keeps its contents
    /// until [`FlightRecorder::reset`].
    pub fn disable() {
        FLIGHT_ENABLED.store(false, Ordering::SeqCst);
    }

    /// Whether recording is on.
    #[must_use]
    pub fn is_enabled() -> bool {
        FLIGHT_ENABLED.load(Ordering::Relaxed)
    }

    /// Record/mint operations executed while enabled since the last reset
    /// (the `ablation_flightrec` budget multiplicand).
    #[must_use]
    pub fn op_count() -> u64 {
        FLIGHT_OPS.load(Ordering::Relaxed)
    }

    /// Copies every live record out of the ring, sorted by logical clock.
    /// Non-destructive: records stay in the ring (drain twice, get the
    /// same log). Safe against concurrent writers — torn slots are
    /// skipped, never misread.
    #[must_use]
    pub fn drain() -> FlightLog {
        let total = CLOCK.load(Ordering::SeqCst);
        let mut events = Vec::with_capacity(RING_SLOTS.min(total as usize));
        for slot in &RING {
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == 0 {
                continue;
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            // Seqlock re-check: a writer that raced us invalidated or
            // restamped the slot; either way the words above may be torn.
            if slot.stamp.load(Ordering::Acquire) != stamp {
                continue;
            }
            let Some(kind) = EventKind::from_u64(kind) else { continue };
            events.push(FlightEvent { seq: stamp - 1, trace: TraceId(trace), kind, a, b });
        }
        events.sort_unstable_by_key(|e| e.seq);
        let dropped = total.saturating_sub(events.len() as u64);
        FlightLog { events, dropped, total }
    }

    /// Clears the ring, the logical clock, the op counter and the ID
    /// minter (test/bench isolation). Does not change the enabled flag.
    pub fn reset() {
        CLOCK.store(0, Ordering::SeqCst);
        FLIGHT_OPS.store(0, Ordering::SeqCst);
        NEXT_TRACE.store(1, Ordering::SeqCst);
        for slot in &RING {
            slot.stamp.store(0, Ordering::SeqCst);
        }
    }
}

/// Per-request causal timelines reconstructed from a [`FlightLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// One lane per causal ID, ordered by each lane's first event; the
    /// unattributed lane ([`TraceId::NONE`]) sorts with the rest.
    pub lanes: Vec<TimelineLane>,
}

/// All events of one causal ID, in clock order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineLane {
    /// The causal ID.
    pub trace: TraceId,
    /// The lane's events, sorted by logical clock.
    pub events: Vec<FlightEvent>,
}

impl Timeline {
    /// Groups a drained log into per-trace lanes.
    #[must_use]
    pub fn build(log: &FlightLog) -> Timeline {
        let mut lanes: Vec<TimelineLane> = Vec::new();
        for &e in &log.events {
            match lanes.iter_mut().find(|l| l.trace == e.trace) {
                Some(lane) => lane.events.push(e),
                None => lanes.push(TimelineLane { trace: e.trace, events: vec![e] }),
            }
        }
        // log.events is clock-sorted, so each lane is too; order lanes by
        // first appearance.
        lanes.sort_by_key(|l| l.events[0].seq);
        Timeline { lanes }
    }

    /// The lane for `trace`, if any of its events survived the ring.
    #[must_use]
    pub fn lane(&self, trace: TraceId) -> Option<&TimelineLane> {
        self.lanes.iter().find(|l| l.trace == trace)
    }

    /// Renders the timelines as indented text (the `metrics_snapshot`
    /// demo format).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for lane in &self.lanes {
            let head = if lane.trace.is_none() {
                "trace -".to_string()
            } else {
                format!("trace {}", lane.trace.0)
            };
            out.push_str(&head);
            out.push('\n');
            for e in &lane.events {
                out.push_str(&format!("  @{:<6} {}\n", e.seq, e.describe()));
            }
        }
        out
    }
}

/// Exports a drained log as chrome://tracing "Trace Event Format" JSON
/// (schema `deflection-trace-v1`): one complete event per record, `ts` in
/// logical-clock ticks, one row (`tid`) per causal ID. Load via
/// `chrome://tracing` or <https://ui.perfetto.dev>.
#[must_use]
pub fn chrome_trace(log: &FlightLog) -> String {
    let mut out = String::from("{\n\"schema\": \"deflection-trace-v1\",\n");
    out.push_str(&format!("\"dropped\": {},\n\"total\": {},\n", log.dropped, log.total));
    out.push_str("\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [");
    for (i, e) in log.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\": \"{}\", \"cat\": \"flight\", \"ph\": \"X\", \"ts\": {}, \"dur\": 1, \
             \"pid\": 1, \"tid\": {}, \"args\": {{\"a\": {}, \"b\": {}, \"detail\": \"{}\"}}}}",
            crate::escape_json(e.kind.name()),
            e.seq,
            e.trace.0,
            e.a,
            e.b,
            crate::escape_json(&e.describe()),
        ));
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

    /// The recorder is process-global; tests serialize on this lock.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn with_recorder<R>(f: impl FnOnce() -> R) -> R {
        let _guard = lock();
        FlightRecorder::reset();
        FlightRecorder::enable();
        let r = f();
        FlightRecorder::disable();
        FlightRecorder::reset();
        r
    }

    #[test]
    fn disabled_recorder_records_and_mints_nothing() {
        let _guard = lock();
        FlightRecorder::disable();
        FlightRecorder::reset();
        record(EventKind::Run, TraceId(7), 1, 2);
        record_ambient(EventKind::Seal, 3, 4);
        assert_eq!(TraceId::mint(), TraceId::NONE);
        let log = FlightRecorder::drain();
        assert!(log.events.is_empty());
        assert_eq!(log.total, 0);
        assert_eq!(log.dropped, 0);
        assert_eq!(FlightRecorder::op_count(), 0);
    }

    #[test]
    fn events_are_totally_ordered_by_the_logical_clock() {
        with_recorder(|| {
            let t1 = TraceId::mint();
            let t2 = TraceId::mint();
            assert_ne!(t1, t2);
            record(EventKind::Enqueue, t1, 0, 2);
            record(EventKind::Enqueue, t2, 1, 2);
            record(EventKind::Claim, t1, 0, 0);
            let log = FlightRecorder::drain();
            assert_eq!(log.events.len(), 3);
            assert_eq!(log.total, 3);
            assert_eq!(log.dropped, 0);
            let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
            assert_eq!(seqs, vec![0, 1, 2]);
            assert_eq!(log.of_trace(t1).len(), 2);
            assert_eq!(log.of_trace(t2).len(), 1);
        });
    }

    #[test]
    fn wraparound_keeps_newest_ring_slots_with_exact_dropped_count() {
        with_recorder(|| {
            let extra = 100u64;
            let total = RING_SLOTS as u64 + extra;
            for i in 0..total {
                record(EventKind::Run, TraceId::NONE, i, 0);
            }
            let log = FlightRecorder::drain();
            assert_eq!(log.total, total);
            assert_eq!(log.events.len(), RING_SLOTS);
            assert_eq!(log.dropped, extra);
            // Exactly the newest RING_SLOTS survive, still clock-ordered.
            assert_eq!(log.events.first().unwrap().seq, extra);
            assert_eq!(log.events.last().unwrap().seq, total - 1);
            assert!(log.events.windows(2).all(|w| w[0].seq < w[1].seq));
        });
    }

    #[test]
    fn ambient_trace_nests_and_restores() {
        with_recorder(|| {
            assert!(ambient().is_none());
            let outer = TraceId::mint();
            let inner = TraceId::mint();
            with_trace(outer, || {
                record_ambient(EventKind::Run, 1, 0);
                with_trace(inner, || record_ambient(EventKind::Seal, 2, 0));
                record_ambient(EventKind::Fault, 3, 0);
            });
            assert!(ambient().is_none());
            let log = FlightRecorder::drain();
            assert_eq!(log.of_trace(outer).len(), 2);
            assert_eq!(log.of_trace(inner).len(), 1);
        });
    }

    #[test]
    fn drain_is_non_destructive_and_concurrent_safe() {
        with_recorder(|| {
            record(EventKind::Produce, TraceId::NONE, 10, 0);
            let first = FlightRecorder::drain();
            let second = FlightRecorder::drain();
            assert_eq!(first, second);
            // A writer racing the drain only ever adds whole records.
            let writer = std::thread::spawn(|| {
                for i in 0..50_000u64 {
                    record(EventKind::Run, TraceId(1), i, 0);
                }
            });
            for _ in 0..50 {
                let log = FlightRecorder::drain();
                for e in &log.events {
                    assert!(EventKind::from_u64(e.kind as u64).is_some());
                }
                assert!(log.events.windows(2).all(|w| w[0].seq < w[1].seq));
            }
            writer.join().unwrap();
        });
    }

    #[test]
    fn timeline_groups_lanes_in_first_seen_order() {
        with_recorder(|| {
            let t1 = TraceId::mint();
            let t2 = TraceId::mint();
            record(EventKind::Enqueue, t2, 0, 2);
            record(EventKind::Enqueue, t1, 1, 2);
            record(EventKind::Run, t2, 5, 0);
            let timeline = Timeline::build(&FlightRecorder::drain());
            assert_eq!(timeline.lanes.len(), 2);
            assert_eq!(timeline.lanes[0].trace, t2);
            assert_eq!(timeline.lanes[1].trace, t1);
            assert_eq!(timeline.lane(t2).unwrap().events.len(), 2);
            let text = timeline.render();
            assert!(text.contains("enqueue(request=0, batch=2)"));
            assert!(text.contains("run(instructions=5, exit=halt)"));
        });
    }

    #[test]
    fn chrome_trace_is_well_formed_json_with_schema() {
        with_recorder(|| {
            let t = TraceId::mint();
            record(EventKind::Enqueue, t, 0, 1);
            record(EventKind::Claim, t, 0, 3);
            let json = chrome_trace(&FlightRecorder::drain());
            assert!(crate::json_well_formed(&json), "not well-formed: {json}");
            assert!(json.contains("\"schema\": \"deflection-trace-v1\""));
            assert!(json.contains("\"name\": \"claim\""));
            assert!(json.contains(&format!("\"tid\": {}", t.0)));
        });
    }

    #[test]
    fn describe_names_every_kind() {
        // Tag 4 is retired (it named an in-enclave verifier phase).
        for k in (1..=14).filter(|&k| k != 4) {
            let kind = EventKind::from_u64(k).unwrap();
            let e = FlightEvent { seq: 0, trace: TraceId::NONE, kind, a: 1, b: 2 };
            assert!(e.describe().starts_with(kind.name()), "{kind:?}");
        }
        assert!(EventKind::from_u64(0).is_none());
        assert!(EventKind::from_u64(4).is_none());
        assert!(EventKind::from_u64(15).is_none());
    }
}
