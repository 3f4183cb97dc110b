//! Tenant switches on a shared pool must not leak one tenant's state into
//! another's, nor lose a tenant's own state.
//!
//! * A stateful (KV) tenant keeps its session across runs on one worker,
//!   even when other tenants run on that worker in between.
//! * A request left unconsumed by one tenant (a binary without an I/O
//!   block cannot read its input) must never become the next tenant's
//!   input.
//! * A binary that calls `recv` without an I/O block gets a typed fault as
//!   its verdict; the enclave runtime never panics on it, and the pool keeps
//!   serving.

use deflection::core::admission::{AdmissionConfig, AdmissionFrontend, Ticket};
use deflection::core::attack::{corpus, Expected};
use deflection::core::policy::Manifest;
use deflection::core::pool::EnclavePool;
use deflection::core::producer::{produce, produce_from_mir};
use deflection::core::tenant::{TenantConfig, TenantRegistry};
use deflection::isa::{Inst, OcallCode};
use deflection::lang::mir::{MFunction, MirProgram};
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::vm::RunExit;
use deflection::sgx::Fault;
use deflection::workloads::kv::{self, KvSession};

const FUEL: u64 = 50_000_000;
const OWNER_KEY: [u8; 32] = [0x5A; 32];

const ECHO_SUM: &str = "
    fn main() -> int {
        var n: int = input_len();
        var s: int = 0;
        var i: int = 0;
        while (i < n) { s = s + input_byte(i); i = i + 1; }
        return s;
    }
";

fn one_worker_pool(manifest: &Manifest) -> EnclavePool {
    let mut pool = EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), manifest, 1);
    pool.set_owner_session(OWNER_KEY);
    pool
}

/// `source` with an unused function appended, so tenants running the same
/// program still have distinct code hashes.
fn tagged(source: &str, tag: u64) -> String {
    format!("{source}\nfn __tenant_tag() -> int {{ return {tag}; }}\n")
}

#[test]
fn interleaved_kv_sessions_through_admission_match_their_mirrors() {
    const TENANTS: usize = 3;
    const ROUNDS: i64 = 6;
    let manifest = Manifest::ccaas();
    // One request per batch: every request is a tenant switch on the
    // single worker.
    let fe = AdmissionFrontend::new(
        AdmissionConfig { batch_max: 1, ..AdmissionConfig::default() },
        TenantRegistry::new(&manifest),
    );
    let ids: Vec<_> = (0..TENANTS)
        .map(|t| {
            let binary =
                produce(&tagged(&kv::source(), t as u64), &manifest.policy).unwrap().serialize();
            fe.register(TenantConfig {
                name: format!("kv{t}"),
                binary,
                manifest: manifest.clone(),
                max_in_flight: 64,
                lifetime_output_budget: None,
            })
            .unwrap()
        })
        .collect();
    let mut sent: Vec<(usize, Vec<u8>, Ticket)> = Vec::new();
    for i in 0..ROUNDS {
        for (t, &id) in ids.iter().enumerate() {
            let payload = kv::session_request(t as i64 + 1, i);
            let ticket = fe.submit(id, payload.clone()).unwrap();
            sent.push((t, payload, ticket));
        }
    }
    fe.close();
    let mut pool = one_worker_pool(&manifest);
    let report = fe.run_dispatcher(&mut pool, FUEL);
    assert_eq!(report.served, (TENANTS as u64) * ROUNDS as u64);

    let mut mirrors = vec![KvSession::new(); TENANTS];
    for (n, (t, payload, ticket)) in sent.into_iter().enumerate() {
        let want = mirrors[t].apply(&payload);
        let got = ticket.wait().unwrap();
        assert_eq!(got.exit.exit_value(), Some(want), "request {n} (tenant {t})");
    }
    assert_eq!(pool.verification_count(), TENANTS, "each tenant verified exactly once");
}

#[test]
fn honest_tenant_after_a_runtime_abort_binary_reads_its_own_input() {
    let manifest = Manifest::ccaas();
    let honest = produce(ECHO_SUM, &manifest.policy).unwrap().serialize();
    let aborts: Vec<_> =
        corpus().into_iter().filter(|a| matches!(a.expected, Expected::RuntimeAbort(_))).collect();
    assert!(!aborts.is_empty());
    for attack in aborts {
        let mut pool = one_worker_pool(&manifest);
        // The attack binary has no I/O block: its request cannot be read.
        pool.install_all(&attack.binary.serialize()).unwrap();
        let contained = pool.serve_parallel(&[b"stale request".as_slice()], FUEL).unwrap();
        assert!(
            matches!(contained[0].exit, RunExit::PolicyAbort { .. }),
            "{}: {:?}",
            attack.name,
            contained[0].exit
        );
        // The next tenant on the same worker sees its own input.
        pool.install_all(&honest).unwrap();
        let served = pool.serve_parallel(&[[1u8, 2, 3]], FUEL).unwrap();
        assert_eq!(served[0].exit.exit_value(), Some(6), "after {}", attack.name);
    }
}

/// `Ocall { Recv }; Halt` — a program that asks for input but has no I/O
/// block to receive it into.
fn recv_without_io_block(manifest: &Manifest) -> Vec<u8> {
    let mut start = MFunction::new("__start");
    start.real(Inst::Ocall { code: OcallCode::Recv as u8 });
    start.real(Inst::Halt);
    let mir = MirProgram {
        entry: start.name.clone(),
        functions: vec![start],
        data: vec![],
        indirect_targets: vec![],
    };
    produce_from_mir(&mir, &manifest.policy).unwrap().serialize()
}

#[test]
fn recv_without_io_block_is_a_fault_verdict_and_the_pool_keeps_serving() {
    let manifest = Manifest::ccaas();
    let mut pool = one_worker_pool(&manifest);
    pool.install_all(&recv_without_io_block(&manifest)).unwrap();
    for _ in 0..2 {
        let reports = pool.serve_parallel(&[b"abc".as_slice()], FUEL).unwrap();
        assert!(
            matches!(reports[0].exit, RunExit::Fault(Fault::OcallFailed { .. })),
            "{:?}",
            reports[0].exit
        );
    }
    assert_eq!(pool.health().total_faulted(), 2);
    assert_eq!(pool.health().quarantined(), 0);
    // The same worker goes on to serve an honest tenant correctly.
    pool.install_all(&produce(ECHO_SUM, &manifest.policy).unwrap().serialize()).unwrap();
    let served = pool.serve_parallel(&[[4u8, 5]], FUEL).unwrap();
    assert_eq!(served[0].exit.exit_value(), Some(9));
}
