//! Chaos/fault-injection tests for the serving pool: workers are killed or
//! faulted mid-batch and the pool must still complete every request with
//! results identical to a serial single-worker pool, reporting what
//! happened through `PoolHealth`.

use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::produce;
use deflection_core::runtime::EcallError;
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_sgx_sim::vm::RunExit;

const FUEL: u64 = 10_000_000;

const ECHO_SUM: &str = "
    fn main() -> int {
        var n: int = input_len();
        var s: int = 0;
        var i: int = 0;
        while (i < n) { s = s + input_byte(i); i = i + 1; }
        return s;
    }
";

fn manifest() -> Manifest {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    manifest
}

fn echo_pool(workers: usize) -> EnclavePool {
    let manifest = manifest();
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut pool = EnclavePool::new(&layout, &manifest, workers);
    let binary = produce(ECHO_SUM, &manifest.policy).unwrap().serialize();
    pool.set_owner_session([1; 32]);
    pool.install_all(&binary).unwrap();
    pool
}

fn requests(n: u8) -> Vec<Vec<u8>> {
    (0..n).map(|i| vec![i, i.wrapping_mul(3), 7]).collect()
}

/// Serial ground truth: the same batch served one-by-one on a 1-worker
/// pool. Exit values are what we compare — record ciphertexts legitimately
/// differ because each worker seals under its own monotonic counter.
fn serial_exits(batch: &[Vec<u8>]) -> Vec<RunExit> {
    let mut pool = echo_pool(1);
    batch.iter().map(|req| pool.serve_on(0, req, FUEL).unwrap().exit).collect()
}

#[test]
fn chaos_kills_mid_batch_results_identical_to_serial() {
    let batch = requests(32);
    let expected = serial_exits(&batch);
    let mut pool = echo_pool(2);
    // Each worker dies on its 3rd request. Work stealing decides how many
    // requests each worker claims, but with 32 requests over 2 workers at
    // least one worker makes 3 claims, so at least one kill always fires
    // mid-batch.
    pool.chaos_kill_after(0, 2);
    pool.chaos_kill_after(1, 2);
    let reports = pool.serve_parallel(&batch, FUEL).unwrap();
    assert_eq!(reports.len(), batch.len(), "every request completes");
    for (report, expect) in reports.iter().zip(&expected) {
        assert_eq!(report.exit, *expect);
    }
    let health = pool.health();
    let respawned = health.total_respawned();
    assert!((1..=2).contains(&respawned), "at least one kill fired, got {respawned}");
    assert_eq!(health.total_faulted(), respawned, "every kill was respawned");
    assert_eq!(health.quarantined(), 0, "respawns succeeded within budget");
    // Respawns reinstalled from the cache: still exactly one verification.
    assert_eq!(pool.verification_count(), 1);
}

#[test]
fn every_worker_killed_batch_still_completes() {
    let batch = requests(16);
    let expected = serial_exits(&batch);
    let mut pool = echo_pool(4);
    for w in 0..4 {
        pool.chaos_kill_after(w, 1);
    }
    let reports = pool.serve_parallel(&batch, FUEL).unwrap();
    for (report, expect) in reports.iter().zip(&expected) {
        assert_eq!(report.exit, *expect);
    }
    let health = pool.health();
    let respawned = health.total_respawned();
    // 16 claims over 4 workers: at least one worker reaches its 2nd
    // request and dies; every fired kill must have been healed.
    assert!((1..=4).contains(&respawned), "got {respawned}");
    assert_eq!(health.total_faulted(), respawned);
    assert_eq!(health.quarantined(), 0);
}

#[test]
fn exhausted_respawn_budget_surfaces_quarantine_error() {
    let batch = requests(4);
    let mut pool = echo_pool(1);
    pool.set_respawn_budget(0);
    pool.chaos_kill_after(0, 0);
    // The single worker dies on the first claimed request and cannot
    // respawn: that lowest request index surfaces the quarantine error.
    let err = pool.serve_parallel(&batch, FUEL).unwrap_err();
    assert_eq!(err, EcallError::WorkerQuarantined);
    assert_eq!(pool.health().quarantined(), 1);
}

#[test]
fn empty_batch_is_a_noop() {
    for workers in [1, 2, 4] {
        let mut pool = echo_pool(workers);
        let batch: Vec<Vec<u8>> = Vec::new();
        let reports = pool.serve_parallel(&batch, FUEL).unwrap();
        assert!(reports.is_empty());
        assert_eq!(pool.health().total_served(), 0);
    }
}

#[test]
fn fewer_requests_than_workers() {
    let batch = requests(2);
    let expected = serial_exits(&batch);
    let mut pool = echo_pool(8);
    let reports = pool.serve_parallel(&batch, FUEL).unwrap();
    assert_eq!(reports.len(), 2);
    for (report, expect) in reports.iter().zip(&expected) {
        assert_eq!(report.exit, *expect);
    }
    // Idle workers served nothing and nothing faulted.
    assert_eq!(pool.health().total_served(), 2);
    assert_eq!(pool.health().total_faulted(), 0);
}

#[test]
fn batch_of_all_errors_is_deterministic_across_worker_counts() {
    // No binary installed: every request fails with the same ECall error,
    // and the lowest-request-index rule makes the batch verdict
    // deterministic at every worker count.
    let batch = requests(9);
    for workers in [1, 2, 4, 8] {
        let manifest = manifest();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, workers);
        let err = pool.serve_parallel(&batch, FUEL).unwrap_err();
        assert_eq!(err, EcallError::NotInstalled, "{workers} workers");
    }
}

#[test]
fn batch_of_all_faults_matches_serial_at_every_worker_count() {
    // `send` without an owner session faults every single request; the
    // fault report is still each request's deterministic result.
    let src = "fn main() -> int { return send(1); }";
    let manifest = manifest();
    let layout = EnclaveLayout::new(MemConfig::small());
    let binary = produce(src, &manifest.policy).unwrap().serialize();
    let batch = requests(8);
    for workers in [1, 2, 4, 8] {
        let mut pool = EnclavePool::new(&layout, &manifest, workers);
        pool.install_all(&binary).unwrap();
        let reports = pool.serve_parallel(&batch, FUEL).unwrap();
        assert_eq!(reports.len(), batch.len(), "{workers} workers");
        for report in &reports {
            assert!(matches!(report.exit, RunExit::Fault(_)), "{workers} workers");
        }
        let health = pool.health();
        assert_eq!(health.total_served(), 8, "{workers} workers");
        assert_eq!(health.total_faulted(), 8, "{workers} workers");
        // Every fault quarantined-and-respawned the slot that hit it.
        assert_eq!(health.total_respawned(), 8, "{workers} workers");
    }
}

#[test]
fn install_all_fails_closed_on_mismatched_worker() {
    let mut pool = echo_pool(4);
    // Misdeploy slot 2: a fresh enclave over a different layout, hence a
    // different measurement.
    pool.chaos_replace_worker(2, &EnclaveLayout::new(MemConfig::paper()));
    let manifest = manifest();
    let other = produce("fn main() -> int { return 7; }", &manifest.policy).unwrap().serialize();
    let err = pool.install_all(&other).unwrap_err();
    assert_eq!(err, EcallError::PreparedMismatch);
    // Fail closed: the mismatched slot is quarantined, every other worker
    // holds the *new* image uniformly.
    let health = pool.health();
    assert!(health.workers[2].quarantined);
    assert_eq!(health.quarantined(), 1);
    for w in [0usize, 1, 3] {
        assert_eq!(pool.serve_on(w, b"", FUEL).unwrap().exit.exit_value(), Some(7), "worker {w}");
    }
    // Serving on the quarantined slot respawns it over the pool's own
    // layout and reinstalls from the cache — full recovery.
    assert_eq!(pool.serve_on(2, b"", FUEL).unwrap().exit.exit_value(), Some(7));
    assert_eq!(pool.health().quarantined(), 0);
}

#[test]
fn killed_workers_under_sustained_admission_load_lose_no_verdicts() {
    use deflection_core::admission::{AdmissionConfig, AdmissionFrontend, Overloaded, Ticket};
    use deflection_core::tenant::{TenantConfig, TenantRegistry};
    use std::time::Duration;

    // Sustained load through the admission frontend while every worker is
    // chaos-killed mid-stream: every accepted request must receive exactly
    // one verdict, every shed submission exactly one typed `Overloaded`,
    // at every pool width.
    const PER_THREAD: usize = 60;
    const THREADS: usize = 3;
    for workers in [1usize, 2, 4] {
        let fe = AdmissionFrontend::new(
            AdmissionConfig {
                queue_capacity: 32,
                // A small high-water mark so sustained submission actually
                // outruns the pool and sheds fire alongside the kills.
                high_water: 8,
                batch_max: 8,
            },
            TenantRegistry::new(&manifest()),
        );
        let binary = produce(ECHO_SUM, &manifest().policy).unwrap().serialize();
        let tenant = fe
            .register(TenantConfig {
                name: "sustained".to_string(),
                binary,
                manifest: manifest(),
                max_in_flight: 32,
                lifetime_output_budget: None,
            })
            .unwrap();

        let mut pool =
            EnclavePool::new(&EnclaveLayout::new(MemConfig::small()), &manifest(), workers);
        pool.set_owner_session([1; 32]);
        // Every worker dies after its 2nd claimed request, so the
        // fault→respawn→retry machinery runs under live admission traffic.
        for w in 0..workers {
            pool.chaos_kill_after(w, 2);
        }

        let pool_ref = &mut pool;
        let fe_ref = &fe;
        let (tickets, shed_count, report) = std::thread::scope(|s| {
            let submitters: Vec<_> = (0..THREADS)
                .map(|t| {
                    s.spawn(move || {
                        let mut tickets: Vec<(usize, usize, Ticket)> = Vec::new();
                        let mut shed = 0usize;
                        for i in 0..PER_THREAD {
                            match fe_ref.submit(tenant, vec![t as u8, i as u8, 7]) {
                                Ok(ticket) => tickets.push((t, i, ticket)),
                                Err(
                                    Overloaded::QueueFull { .. }
                                    | Overloaded::TenantInFlight { .. },
                                ) => {
                                    shed += 1;
                                    // Closed-loop-ish backoff before the
                                    // next (distinct) submission.
                                    std::thread::sleep(Duration::from_micros(50));
                                }
                                Err(other) => panic!("unexpected shed reason: {other}"),
                            }
                        }
                        (tickets, shed)
                    })
                })
                .collect();
            let dispatcher = s.spawn(move || fe_ref.run_dispatcher(pool_ref, FUEL));
            let mut tickets = Vec::new();
            let mut shed_count = 0usize;
            for sub in submitters {
                let (t, shed) = sub.join().expect("submitter thread");
                tickets.extend(t);
                shed_count += shed;
            }
            fe_ref.close();
            (tickets, shed_count, dispatcher.join().expect("dispatcher thread"))
        });

        let accepted = tickets.len();
        assert_eq!(accepted + shed_count, PER_THREAD * THREADS, "{workers} workers");
        assert_eq!(report.served, accepted as u64, "{workers} workers");
        // Exactly one verdict per accepted request, and the right one:
        // the echo sum is deterministic per payload, kills or not.
        for (t, i, ticket) in tickets {
            let run = ticket.wait().unwrap_or_else(|e| {
                panic!("{workers} workers: request ({t},{i}) lost its verdict: {e:?}")
            });
            assert_eq!(run.exit.exit_value(), Some((t + i + 7) as u64), "{workers} workers");
        }
        let stats = fe.tenant_stats(tenant).unwrap();
        assert_eq!(stats.admitted, accepted as u64, "{workers} workers");
        assert_eq!(stats.completed, accepted as u64, "{workers} workers");
        assert_eq!(stats.shed, shed_count as u64, "{workers} workers");
        // The kills actually fired and every one was healed.
        let health = pool.health();
        assert!(health.total_faulted() >= 1, "{workers} workers: no chaos kill fired");
        assert_eq!(health.total_respawned(), health.total_faulted(), "{workers} workers");
        assert_eq!(health.quarantined(), 0, "{workers} workers");
    }
}

#[test]
fn output_budget_is_per_request_on_a_pool_worker() {
    // Regression: the P0 budget used to accumulate across runs, so a
    // long-lived worker spuriously faulted after budget/len requests.
    let mut manifest = manifest();
    manifest.output_budget = 450;
    let layout = EnclaveLayout::new(MemConfig::small());
    let send100 =
        produce("fn main() -> int { return send(100); }", &manifest.policy).unwrap().serialize();
    let mut pool = EnclavePool::new(&layout, &manifest, 1);
    pool.set_owner_session([1; 32]);
    pool.install_all(&send100).unwrap();
    // budget/len + 1 = 5 requests on the one worker; plus one for margin.
    for i in 0..6 {
        let report = pool.serve_on(0, b"", FUEL).unwrap();
        assert_eq!(report.exit, RunExit::Halted { exit: 100 }, "request {i}");
    }
    assert_eq!(pool.health().total_faulted(), 0);
    // With the optional lifetime cap set, the never-reset ledger bounds
    // cumulative output across runs — and survives a respawn, so a killed
    // worker cannot launder its leakage history.
    let mut capped = manifest.clone();
    capped.lifetime_output_budget = Some(250);
    let mut capped_pool = EnclavePool::new(&layout, &capped, 1);
    capped_pool.set_owner_session([1; 32]);
    capped_pool.install_all(&send100).unwrap();
    for i in 0..2 {
        let report = capped_pool.serve_on(0, b"", FUEL).unwrap();
        assert_eq!(report.exit, RunExit::Halted { exit: 100 }, "request {i}");
    }
    capped_pool.chaos_kill_after(0, 0);
    // The respawned instance inherits the 200-byte ledger: its send would
    // cross the 250-byte lifetime cap and faults, contained.
    let report = capped_pool.serve_on(0, b"", FUEL).unwrap();
    assert!(matches!(report.exit, RunExit::Fault(_)), "lifetime cap must survive the respawn");
    // Two respawns: one for the kill, one quarantining the contained fault.
    assert_eq!(capped_pool.health().workers[0].respawned, 2);
    // A single over-budget run still faults.
    let burst = "
        fn main() -> int {
            var i: int = 0;
            while (i < 5) { send(100); i = i + 1; }
            return 0;
        }
    ";
    let burst = produce(burst, &manifest.policy).unwrap().serialize();
    pool.install_all(&burst).unwrap();
    let report = pool.serve_on(0, b"", FUEL).unwrap();
    assert!(matches!(report.exit, RunExit::Fault(_)));
}

/// Per-request verdicts of one batch, in request order: the exit of each
/// report or the request's own error.
fn verdicts(pool: &mut EnclavePool, batch: &[Vec<u8>]) -> Vec<Result<RunExit, EcallError>> {
    use deflection_telemetry::flightrec::TraceId;
    let traces: Vec<TraceId> = batch.iter().map(|_| TraceId::mint()).collect();
    pool.serve_parallel_each_traced(batch, &traces, FUEL)
        .into_iter()
        .map(|r| r.map(|report| report.exit))
        .collect()
}

#[test]
fn slot_zero_killed_on_the_calling_thread_matches_a_healthy_pool() {
    // Slot 0 drains the queue on the caller's thread. Kill it mid-batch,
    // with no respawn left and with one, and the batch must come out as a
    // healthy pool's: same verdict per request, in request order, and the
    // same lowest-index error — except on a 1-worker pool that cannot
    // respawn, where nothing is left to serve what slot 0 dropped.
    let batch = requests(12);
    for workers in [1usize, 2] {
        let healthy = verdicts(&mut echo_pool(workers), &batch);
        assert!(healthy.iter().all(Result::is_ok), "{workers} workers");
        for budget in [0usize, 1] {
            for k in [0usize, 3] {
                let case = format!("{workers} workers, budget {budget}, kill after {k}");
                let chaos = || {
                    let mut pool = echo_pool(workers);
                    pool.set_respawn_budget(budget);
                    pool.chaos_kill_after(0, k);
                    pool
                };
                let mut pool = chaos();
                let got = verdicts(&mut pool, &batch);
                let collapsed = chaos()
                    .serve_parallel(&batch, FUEL)
                    .map(|reports| reports.into_iter().map(|r| r.exit).collect::<Vec<RunExit>>());
                // The lowest-index rule: the batch verdict is the first
                // per-request error, or every exit.
                assert_eq!(collapsed, got.iter().cloned().collect(), "{case}");
                let health = pool.health();
                if workers == 1 && budget == 0 {
                    // Slot 0 is the only slot, so the kill fires on request
                    // k; the stranded pass finds no slot for the rest.
                    assert_eq!(got[..k], healthy[..k], "{case}");
                    assert!(
                        got[k..].iter().all(|v| *v == Err(EcallError::WorkerQuarantined)),
                        "{case}: {got:?}"
                    );
                    assert_eq!(health.quarantined(), 1, "{case}");
                    continue;
                }
                assert_eq!(got, healthy, "{case}");
                // Whatever slot 0 dropped was served once elsewhere: by its
                // respawn, by slot 1, or by the stranded pass.
                assert_eq!(health.total_served(), batch.len(), "{case}");
                let fired = health.workers[0].faulted;
                assert!(fired <= 1, "{case}");
                if workers == 1 {
                    assert_eq!(fired, 1, "{case}: the caller-thread slot serves every claim");
                }
                assert_eq!(health.workers[0].quarantined, fired == 1 && budget == 0, "{case}");
            }
        }
    }
}
