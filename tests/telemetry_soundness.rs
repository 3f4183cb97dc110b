//! Telemetry soundness: the collector must be an *observer*. Whether it is
//! disabled, enabled, or snapshotted mid-batch, every verification verdict
//! (accept lists, instances, and exact rejection errors with their indices)
//! and every serving result must be bit-identical. This is the property
//! that keeps the instrumentation out of the trust argument: metrics can
//! never steer a policy decision.

use deflection::core::annotations::Instance;
use deflection::core::attack::{corpus, elision_corpus};
use deflection::core::consumer::{load, verify_with_layout, VerifyError};
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::pool::EnclavePool;
use deflection::core::producer::{produce, produce_for_layout};
use deflection::core::runtime::BootstrapEnclave;
use deflection::isa::Inst;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::Memory;
use deflection::telemetry::{Collector, FlightRecorder, Snapshot, METRICS};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// The collector is process-global and these tests toggle it, so they must
/// not interleave with each other.
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

/// The three collector states under test: off, on, and on with a snapshot
/// racing the measurement (taken between verifications of the batch).
fn verdict_under_all_collector_states(binary: &[u8], policy: &PolicySet) -> [Option<Verdict>; 3] {
    Collector::disable();
    let off = verdict(binary, policy);
    Collector::enable();
    Collector::reset();
    let on = verdict(binary, policy);
    let _mid = Collector::snapshot();
    let after_snapshot = verdict(binary, policy);
    Collector::disable();
    [off, on, after_snapshot]
}

#[test]
fn attack_corpus_verdicts_unchanged_by_collector_state() {
    let _guard = lock();
    for (attacks, policy) in
        [(corpus(), PolicySet::full()), (elision_corpus(), PolicySet::full().with_elision())]
    {
        for attack in attacks {
            let [off, on, snap] =
                verdict_under_all_collector_states(&attack.binary.serialize(), &policy);
            assert_eq!(off, on, "{}: verdict changed when collector enabled", attack.name);
            assert_eq!(off, snap, "{}: verdict changed by mid-batch snapshot", attack.name);
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

#[test]
fn serving_results_unchanged_by_collector_state() {
    let _guard = lock();
    let policy = PolicySet::full();
    let binary = produce(HONEST, &policy).expect("compiles").serialize();
    Collector::disable();
    let off = serve_digest(&binary);
    Collector::enable();
    Collector::reset();
    let on = serve_digest(&binary);
    let _mid = Collector::snapshot();
    let snap = serve_digest(&binary);
    Collector::disable();
    assert_eq!(off, on, "serving results changed when collector enabled");
    assert_eq!(off, snap, "serving results changed by mid-batch snapshot");
}

/// Every sample of a snapshot with wall-clock readings dropped: an `_ns`
/// histogram keeps only its count, since two runs never take the same
/// nanoseconds.
fn untimed(snapshot: &Snapshot) -> Vec<String> {
    let samples =
        snapshot.samples.iter().map(|s| format!("{} {{{}}} {}", s.name, s.labels, s.value));
    let histograms = snapshot.histograms.iter().map(|h| {
        if h.name.ends_with("_ns") {
            format!("{} {{{}}} count={}", h.name, h.labels, h.count)
        } else {
            format!("{} {{{}}} count={} sum={} {:?}", h.name, h.labels, h.count, h.sum, h.buckets)
        }
    });
    samples.chain(histograms).collect()
}

/// The counted in-enclave code records nothing (DESIGN.md §5e): a direct
/// verification leaves the collector and the flight recorder untouched,
/// and a direct install and run moves only the hardware model's `vm_*`
/// counters (DESIGN.md §5f). Every other metric is recorded by the host at
/// its side of an ECall.
#[test]
fn counted_code_records_nothing() {
    let _guard = lock();
    let policy = PolicySet::full().with_elision();
    let layout = EnclaveLayout::new(MemConfig::small());
    // The producer is host code and records; build before enabling.
    let binary = produce_for_layout(HONEST, &policy, &layout).expect("compiles").serialize();
    Collector::reset();
    FlightRecorder::reset();
    Collector::enable();
    FlightRecorder::enable();

    let verdict = verdict(&binary, &policy);
    let (metric_ops, flight_ops) = (Collector::op_count(), FlightRecorder::op_count());

    let mut manifest = Manifest::ccaas();
    manifest.policy = policy;
    let mut enclave = BootstrapEnclave::new(layout, manifest);
    enclave.set_owner_session([0x5E; 32]);
    enclave.install_plain(&binary).expect("honest binary installs");
    enclave.provide_input(&[1, 2, 3]).expect("installed");
    let report = enclave.run(10_000_000).expect("installed");
    let snapshot = Collector::snapshot();
    let flight_ops_after_run = FlightRecorder::op_count();
    Collector::disable();
    FlightRecorder::disable();

    assert!(verdict.expect("loads").is_ok(), "the elided binary verifies");
    assert_eq!(metric_ops, 0, "the verifier recorded into the collector");
    assert_eq!(flight_ops, 0, "the verifier recorded into the flight recorder");
    assert_eq!(report.records.len(), 1, "the run sealed its record");
    assert_eq!(flight_ops_after_run, 0, "install or run recorded into the flight recorder");
    let moved: Vec<String> = untimed(&snapshot)
        .into_iter()
        .filter(|s| !s.starts_with("deflection_vm_"))
        .filter(|s| !(s.ends_with(" 0") || s.contains("count=0")))
        .collect();
    assert!(moved.is_empty(), "counted code moved non-hardware metrics: {moved:?}");
}

/// Guards the suite against vacuous passes: the host-side ECall boundary
/// does record, so the equality tests above compare real observations.
#[test]
fn pooled_install_and_serve_record_at_the_ecall_boundary() {
    let _guard = lock();
    let policy = PolicySet::full();
    let binary = produce(HONEST, &policy).expect("compiles").serialize();
    let mut manifest = Manifest::ccaas();
    manifest.policy = policy;
    let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &manifest, 1);
    pool.set_owner_session([0x5E; 32]);
    Collector::reset();
    Collector::enable();
    pool.install_all(&binary).expect("honest binary installs");
    pool.serve_parallel(&[vec![1u8, 2, 3]], 10_000_000).expect("batch serves");
    Collector::disable();
    assert_eq!(METRICS.verify_ns.count(), 1, "the install ECall is timed once");
    assert_eq!(METRICS.verify_accepts.get(), 1);
    assert_eq!(METRICS.verify_rejects.get(), 0);
    assert_eq!(METRICS.run_reports.get(), 1, "the served report is counted once");
    Collector::reset();
}

/// P0 pads every record to the manifest's fixed length, so the host learns
/// how many records a run sent, never how many plaintext bytes. The
/// metrics plane must not undo that: a run sending 1 byte and one sending
/// 100 leave the same snapshot.
#[test]
fn metrics_hide_the_padded_plaintext_length() {
    let _guard = lock();
    let program = |n: usize| {
        format!(
            "fn main() -> int {{
                var i: int = 0;
                while (i < 100) {{
                    output_byte(i, 7);
                    i = i + 1;
                }}
                send({n});
                return 0;
            }}"
        )
    };
    let snapshot_of = |sent: usize| {
        let policy = PolicySet::full();
        let binary = produce(&program(sent), &policy).expect("compiles").serialize();
        let mut manifest = Manifest::ccaas();
        manifest.policy = policy;
        let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &manifest, 1);
        pool.set_owner_session([0x5E; 32]);
        Collector::reset();
        Collector::enable();
        pool.install_all(&binary).expect("installs");
        let reports = pool.serve_parallel(&[[0u8]], 10_000_000).expect("batch serves");
        Collector::disable();
        assert_eq!(reports[0].records.len(), 1, "one sealed record");
        let snapshot = untimed(&Collector::snapshot());
        Collector::reset();
        snapshot
    };
    assert_eq!(snapshot_of(1), snapshot_of(100), "metrics reveal the plaintext length");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random byte flips over an honest instrumented binary: whatever the
    /// verifier decides — accept, or reject with a specific error at a
    /// specific index — the decision must not depend on collector state.
    #[test]
    fn mutated_binaries_verify_identically_under_all_collector_states(
        positions in proptest::collection::vec((0usize..20_000, any::<u8>()), 1..6)
    ) {
        let _guard = lock();
        let policy = PolicySet::full().with_elision();
        let mut binary = produce(HONEST, &policy).expect("compiles").serialize();
        for (pos, xor) in positions {
            let idx = pos % binary.len();
            binary[idx] ^= xor;
        }
        let [off, on, snap] = verdict_under_all_collector_states(&binary, &policy);
        // Mutants the loader rejects never reach the verifier; skip them.
        prop_assume!(off.is_some());
        prop_assert_eq!(&off, &on, "verdict changed when collector enabled");
        prop_assert_eq!(&off, &snap, "verdict changed by mid-batch snapshot");
    }
}
