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
use deflection::core::producer::produce;
use deflection::isa::Inst;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::Memory;
use deflection::telemetry::Collector;
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
/// racing the measurement (taken between verifier phases of the batch).
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

#[test]
fn enabled_collector_actually_observes_the_verifier() {
    // Guards the suite against vacuous passes: if instrumentation were
    // compiled out entirely, the equality tests above would prove nothing.
    let _guard = lock();
    let policy = PolicySet::full();
    let binary = produce(HONEST, &policy).expect("compiles").serialize();
    Collector::enable();
    Collector::reset();
    assert!(verdict(&binary, &policy).expect("loads").is_ok());
    let snapshot = Collector::snapshot();
    Collector::disable();
    assert!(snapshot.total_events() > 0, "enabled collector recorded nothing");
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
