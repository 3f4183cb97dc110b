//! Flight-recorder soundness: the recorder must be an *observer*. Whether
//! it is disabled, enabled, or drained mid-batch, every verification
//! verdict, every serving result, and every telemetry snapshot delta must
//! be bit-identical — recording can never steer a decision. On top of the
//! differential suite, the causal-timeline tests pin the reconstruction
//! contract: a pooled batch with faults and a respawn yields one complete,
//! totally ordered lane per request with no orphan spans.

use deflection::core::annotations::Instance;
use deflection::core::attack::{corpus, elision_corpus};
use deflection::core::consumer::{load, verify_with_layout, VerifyError};
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::pool::EnclavePool;
use deflection::core::producer::produce;
use deflection::isa::Inst;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::Memory;
use deflection::telemetry::{Collector, EventKind, FlightRecorder, Timeline};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The recorder (and the collector it rides along with) is process-global,
/// so tests that toggle it must not interleave.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default).lock().unwrap_or_else(PoisonError::into_inner)
}

type Verdict = Result<(Vec<(usize, Inst, usize)>, Vec<Instance>), VerifyError>;

/// Loads and verifies `binary` the way `install` does; `None` when the
/// loader rejects it before verification runs.
fn verdict(binary: &[u8], policy: &PolicySet) -> Option<Verdict> {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut mem = Memory::new(layout.clone());
    let program = load(binary, &mut mem).ok()?;
    let code =
        mem.peek_bytes(layout.code.start, program.code_len).expect("loader wrote the code window");
    let entry = (program.entry_va - layout.code.start) as usize;
    let result = verify_with_layout(&code, entry, &program.ibt_offsets, policy, &layout);
    Some(result.map(|v| (v.disassembly.insts().to_vec(), v.instances)))
}

/// The three recorder states under test: off, on, and on with a drain
/// racing the measurement.
fn verdict_under_all_recorder_states(binary: &[u8], policy: &PolicySet) -> [Option<Verdict>; 3] {
    FlightRecorder::disable();
    let off = verdict(binary, policy);
    FlightRecorder::reset();
    FlightRecorder::enable();
    let on = verdict(binary, policy);
    let _mid = FlightRecorder::drain();
    let after_drain = verdict(binary, policy);
    FlightRecorder::disable();
    [off, on, after_drain]
}

#[test]
fn attack_corpus_verdicts_unchanged_by_recorder_state() {
    let _guard = lock();
    for (attacks, policy) in
        [(corpus(), PolicySet::full()), (elision_corpus(), PolicySet::full().with_elision())]
    {
        for attack in attacks {
            let [off, on, drained] =
                verdict_under_all_recorder_states(&attack.binary.serialize(), &policy);
            assert_eq!(off, on, "{}: verdict changed when recorder enabled", attack.name);
            assert_eq!(off, drained, "{}: verdict changed by mid-batch drain", attack.name);
        }
    }
}

const HONEST: &str = "
var data: [int; 16];
fn main() -> int {
    var n: int = input_len();
    var i: int = 0;
    while (i < 16) {
        data[i] = i * 7 + n;
        i = i + 1;
    }
    output_byte(0, data[15] & 0xFF);
    send(1);
    return data[15];
}
";

/// Serves one fixed batch on a fresh two-worker pool and digests everything
/// observable about the outcome. Round-robin keeps the request→worker (and
/// hence sealed-record nonce channel) assignment deterministic, so the
/// digests are comparable across pools.
fn serve_digest(binary: &[u8]) -> String {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &manifest, 2);
    pool.set_owner_session([0x5E; 32]);
    pool.install_all(binary).expect("honest binary installs");
    let requests: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i, 2 * i, 100]).collect();
    let reports = pool.serve_parallel_round_robin(&requests, 10_000_000).expect("batch serves");
    reports.iter().map(|r| format!("{r:?}\n")).collect()
}

/// A work-stealing chaos batch: every worker loses its instance on its
/// first claim, so the fault→respawn→retry machinery runs no matter how
/// the claim race lands. Only scheduling-independent facts go into the
/// digest — per-request exits and write counters are deterministic, while
/// sealed-record nonces and cumulative per-worker stats are not.
fn chaos_digest(binary: &[u8]) -> String {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &manifest, 2);
    pool.set_owner_session([0x5E; 32]);
    pool.install_all(binary).expect("honest binary installs");
    pool.chaos_kill_after(0, 0);
    pool.chaos_kill_after(1, 0);
    let requests: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i, 2 * i, 100]).collect();
    let reports = pool.serve_parallel(&requests, 10_000_000).expect("batch serves");
    let mut digest = format!("served={}\n", reports.len());
    for r in &reports {
        digest.push_str(&format!(
            "exit={:?} untrusted_writes={} records={}\n",
            r.exit,
            r.untrusted_writes,
            r.records.len()
        ));
    }
    digest
}

/// Strips wall-clock timing lines from a Prometheus exposition: `_ns`
/// histograms measure elapsed time and are never bit-stable run to run;
/// everything else (event counters, value histograms) is deterministic.
fn deterministic_lines(prometheus: &str) -> String {
    prometheus.lines().filter(|l| !l.contains("_ns")).map(|l| format!("{l}\n")).collect()
}

#[test]
fn serving_results_and_snapshot_deltas_unchanged_by_recorder_state() {
    let _guard = lock();
    let policy = PolicySet::full();
    let binary = produce(HONEST, &policy).expect("compiles").serialize();

    // The collector stays ON throughout: the recorder must not perturb
    // what the metrics plane sees either, so each serve's deterministic
    // snapshot delta is part of the digest.
    Collector::enable();
    let delta_digest = |binary: &[u8]| {
        Collector::reset();
        let serve = serve_digest(binary);
        // Snapshot the delta before the chaos batch: how many workers the
        // claim race lets fault is scheduling-dependent, so its counters
        // (lost instances, respawns) are not digest material.
        let snap = Collector::snapshot();
        let chaos = chaos_digest(binary);
        format!("{serve}{chaos}snapshot:\n{}", deterministic_lines(&snap.to_prometheus()))
    };

    FlightRecorder::disable();
    let off = delta_digest(&binary);
    FlightRecorder::reset();
    FlightRecorder::enable();
    let on = delta_digest(&binary);
    let _mid = FlightRecorder::drain();
    let drained = delta_digest(&binary);
    FlightRecorder::disable();
    Collector::disable();

    assert_eq!(off, on, "serving results changed when recorder enabled");
    assert_eq!(off, drained, "serving results changed by mid-batch drain");
}

#[test]
fn pooled_batch_with_faults_reconstructs_complete_causal_timelines() {
    let _guard = lock();
    let policy = PolicySet::full();
    let binary = produce(HONEST, &policy).expect("compiles").serialize();

    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &manifest, 2);
    pool.set_owner_session([0x5E; 32]);

    FlightRecorder::reset();
    FlightRecorder::enable();
    pool.install_all(&binary).expect("honest binary installs");
    // Every worker loses its instance on its first claim, so however the
    // work-stealing race shakes out, each thread that serves anything
    // walks the full fault→respawn→retry path.
    pool.chaos_kill_after(0, 0);
    pool.chaos_kill_after(1, 0);
    let requests: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i, 2 * i, 100]).collect();
    let reports = pool.serve_parallel(&requests, 10_000_000).expect("batch serves");
    let flight = FlightRecorder::drain();
    FlightRecorder::disable();

    assert_eq!(reports.len(), requests.len());
    assert!(pool.health().total_faulted() >= 1, "chaos workers must actually fault");
    assert!(pool.health().total_respawned() >= 1, "faulted workers must respawn");
    assert_eq!(flight.dropped, 0, "a small batch must fit the ring");

    // Total order: the logical clock never ties and the drain sorts by it.
    for pair in flight.events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "logical clock must be strictly monotonic");
    }

    let timeline = Timeline::build(&flight);
    // One lane per request plus one for the install flow.
    assert_eq!(timeline.lanes.len(), requests.len() + 1, "{}", timeline.render());

    let install_lanes = timeline
        .lanes
        .iter()
        .filter(|l| l.events.iter().any(|e| e.kind == EventKind::Install))
        .count();
    assert_eq!(install_lanes, 1, "install mints exactly one causal lane");

    let mut faults_seen = 0;
    for lane in &timeline.lanes {
        // No orphan spans: every event in a lane carries the lane's trace.
        assert!(lane.events.iter().all(|e| e.trace == lane.trace));
        assert!(!lane.events.is_empty(), "no empty lanes");
        if lane.events.iter().any(|e| e.kind == EventKind::Install) {
            // The install lane: verify phases and one replay per worker.
            assert!(lane.events.iter().any(|e| e.kind == EventKind::VerifyPhase));
            let replays = lane.events.iter().filter(|e| e.kind == EventKind::InstallReplay).count();
            assert_eq!(replays, pool.len(), "one replay event per worker");
            continue;
        }
        // A request lane: Enqueue first, then at least one Claim, and the
        // request ends with a successful Run (every report here succeeded).
        assert_eq!(lane.events[0].kind, EventKind::Enqueue, "{}", timeline.render());
        assert!(lane.events.iter().any(|e| e.kind == EventKind::Claim));
        assert!(lane.events.iter().any(|e| e.kind == EventKind::Run));
        assert!(lane.events.iter().any(|e| e.kind == EventKind::Seal));
        // A fault inside a request lane must be followed by a respawn and
        // then by the run that completed the request on the fresh worker.
        if let Some(fault_at) =
            lane.events.iter().position(|e| e.kind == EventKind::Fault && e.b == 1)
        {
            faults_seen += 1;
            let tail = &lane.events[fault_at..];
            assert!(
                tail.iter().any(|e| e.kind == EventKind::Respawn),
                "lost instance without respawn: {}",
                timeline.render()
            );
            assert!(
                tail.iter().any(|e| e.kind == EventKind::Run),
                "request did not complete after its fault: {}",
                timeline.render()
            );
        }
    }
    assert!(faults_seen >= 1, "chaos faults must land in request lanes");
}

#[test]
fn admission_lanes_show_enqueue_admit_claim_ordering() {
    use deflection::core::admission::{AdmissionConfig, AdmissionFrontend, Overloaded};
    use deflection::core::tenant::{TenantConfig, TenantRegistry};

    let _guard = lock();
    let policy = PolicySet::full();
    let binary = produce(HONEST, &policy).expect("compiles").serialize();
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();

    FlightRecorder::reset();
    FlightRecorder::enable();

    let fe = AdmissionFrontend::new(
        AdmissionConfig { queue_capacity: 8, high_water: 4, batch_max: 4 },
        TenantRegistry::new(&manifest),
    );
    let tenant = fe
        .register(TenantConfig {
            name: "honest".to_string(),
            binary,
            manifest: manifest.clone(),
            max_in_flight: 8,
            lifetime_output_budget: None,
        })
        .expect("tenant registers");

    // Four accepted requests — each trace is minted at enqueue, before any
    // dispatcher or worker has touched the request.
    let tickets: Vec<_> = (0..4u8)
        .map(|i| fe.submit(tenant, vec![i, 2 * i, 100]).expect("below high water"))
        .collect();
    // Depth is now at the high-water mark: the fifth submission is shed,
    // which must surface as an *unattributed* Shed event (no trace was
    // ever minted for it).
    assert!(matches!(fe.submit(tenant, vec![9, 9, 9]), Err(Overloaded::QueueFull { .. })));
    fe.close();

    let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &manifest, 2);
    pool.set_owner_session([0x5E; 32]);
    let report = fe.run_dispatcher(&mut pool, 10_000_000);
    let flight = FlightRecorder::drain();
    FlightRecorder::disable();

    assert_eq!(report.served, 4);
    assert_eq!(flight.dropped, 0, "a small batch must fit the ring");
    let timeline = Timeline::build(&flight);

    for t in tickets {
        let (trace, global_id) = (t.trace, t.global_id);
        let lane = timeline.lane(trace).expect("every accepted request has a lane");
        let pos = |kind: EventKind| lane.events.iter().position(|e| e.kind == kind);
        let enqueue = pos(EventKind::Enqueue).expect("lane records its enqueue");
        let admit = pos(EventKind::Admit).expect("lane records its admission");
        let claim = pos(EventKind::Claim).expect("lane records its worker claim");
        // Minted at enqueue means the lane *begins* in the queue: the
        // Enqueue→Admit gap is the request's queueing delay, rendered as
        // its own leading segment.
        assert_eq!(enqueue, 0, "{}", timeline.render());
        assert!(
            enqueue < admit && admit < claim,
            "lane must order Enqueue -> Admit -> Claim: {}",
            timeline.render()
        );
        // Both admission events carry the global request id.
        assert_eq!(lane.events[enqueue].a, global_id);
        assert_eq!(lane.events[admit].a, global_id);
        t.wait().expect("request serves");
    }

    // Exactly one shed decision, unattributed, at the high-water depth,
    // with the queue-full reason code.
    let sheds: Vec<_> = flight.events.iter().filter(|e| e.kind == EventKind::Shed).collect();
    assert_eq!(sheds.len(), 1);
    assert_eq!(sheds[0].trace, deflection::telemetry::TraceId::NONE);
    assert_eq!(sheds[0].a, 4, "depth observed at the shed decision");
    assert_eq!(sheds[0].b, 0, "reason code 0 = queue full");
}

#[test]
fn ring_wraparound_keeps_newest_events_with_exact_drop_count() {
    let _guard = lock();
    FlightRecorder::reset();
    FlightRecorder::enable();
    // Overfill the ring well past capacity from the serve-side record
    // paths, then check the drain keeps the newest window and accounts
    // for every displaced record.
    let total = 3 * 8192u64;
    for i in 0..total {
        deflection::telemetry::flightrec::record(
            EventKind::Enqueue,
            deflection::telemetry::TraceId::NONE,
            i,
            0,
        );
    }
    let flight = FlightRecorder::drain();
    FlightRecorder::disable();
    assert_eq!(flight.total, total);
    assert_eq!(flight.dropped + flight.events.len() as u64, total);
    assert!(flight.dropped > 0, "overfill must displace the oldest records");
    // The survivors are exactly the newest payloads, still in order.
    let first = flight.events.first().expect("ring retains events").a;
    for (i, e) in flight.events.iter().enumerate() {
        assert_eq!(e.a, first + i as u64, "retained window must be the newest, gap-free");
    }
    assert_eq!(flight.events.last().expect("non-empty").a, total - 1);
}
