//! Multi-tenant admission frontend: a bounded request queue with
//! work-conserving batching and typed load shedding in front of
//! [`crate::pool::EnclavePool`].
//!
//! ```text
//!   clients (any thread)                 dispatcher (owns &mut pool)
//!  ┌─────────────────────┐   bounded    ┌─────────────────────────────┐
//!  │ submit(tenant, req) │──▶ queue ───▶│ on wake drain ≤ batch_max,  │
//!  │   → Ticket | Shed   │  (VecDeque)  │ group by tenant, switch to  │
//!  │ ticket.wait()       │◀── slots ────│ its image, serve_parallel,  │
//!  └─────────────────────┘              │ deliver verdicts            │
//!                                       └─────────────────────────────┘
//! ```
//!
//! Everything in this module runs **outside** the enclave: admission,
//! queueing, batching and shedding decisions add zero TCB lines (see
//! `table1_tcb` — this file is deliberately absent from its source
//! list). A malicious host already controls scheduling, so the only
//! thing shedding can do is deny service, which the threat model always
//! permitted; it can never forge a verdict, because every report still
//! comes sealed from an enclave worker.
//!
//! Backpressure model: `submit` never blocks. Past the queue's
//! high-water mark — or past a tenant's `max_in_flight` or lifetime
//! output budget — it returns a typed [`Overloaded`] immediately, so
//! callers see bounded tail latency instead of a collapsing queue. Each
//! accepted request gets its [`TraceId`] minted *at enqueue*, so the
//! flight recorder shows queueing delay as its own lane segment
//! (Enqueue → Admit → Claim).
//!
//! Dispatch is work-conserving: the dispatcher never holds a request back
//! to fill a batch. It serves whatever is queued (up to `batch_max`) the
//! moment it wakes, so a lone request costs its run, while under
//! saturation the queue refills during each batch and batches still come
//! out full.

use crate::pool::EnclavePool;
use crate::runtime::{EcallError, RunReport};
use crate::tenant::{Tenant, TenantConfig, TenantId, TenantRegistry, TenantRejected, TenantStats};
use deflection_telemetry::flightrec::{self, EventKind, TraceId};
use deflection_telemetry::METRICS;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Tuning knobs for the admission frontend.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Hard capacity of the bounded queue; `submit` sheds at
    /// `high_water` which must be ≤ this.
    pub queue_capacity: usize,
    /// Queue depth at (and beyond) which new submissions are shed with
    /// [`Overloaded::QueueFull`]. Keeping this below `queue_capacity`
    /// leaves headroom so depth metrics can distinguish "shedding" from
    /// "hard full".
    pub high_water: usize,
    /// Largest batch the dispatcher hands to the pool at once. Batches
    /// are never held back to fill: under load they reach `batch_max`
    /// because the queue refills while the previous batch is served.
    pub batch_max: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { queue_capacity: 1024, high_water: 896, batch_max: 64 }
    }
}

/// Typed shed verdict: the request never entered the queue. Host-side
/// only — deliberately **not** an [`EcallError`] variant, because no
/// enclave was involved in the decision.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Overloaded {
    /// Queue depth was at or past the high-water mark.
    QueueFull {
        /// Depth observed at the shed decision.
        depth: usize,
    },
    /// The tenant already has `limit` requests queued or executing.
    TenantInFlight {
        /// The tenant's `max_in_flight`.
        limit: usize,
    },
    /// The tenant's host-side lifetime output ledger is exhausted.
    TenantBudget,
    /// The tenant id was never registered.
    UnknownTenant,
    /// The frontend was closed; no further submissions are accepted.
    Closed,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Overloaded::QueueFull { depth } => {
                write!(f, "admission queue past high-water mark (depth {depth})")
            }
            Overloaded::TenantInFlight { limit } => {
                write!(f, "tenant at max in-flight requests ({limit})")
            }
            Overloaded::TenantBudget => write!(f, "tenant lifetime output budget exhausted"),
            Overloaded::UnknownTenant => write!(f, "unknown tenant"),
            Overloaded::Closed => write!(f, "admission frontend closed"),
        }
    }
}

impl std::error::Error for Overloaded {}

/// Where a client's verdict is delivered: a one-shot slot the dispatcher
/// fills and the ticket holder waits on.
#[derive(Debug, Default)]
struct ResultSlot {
    cell: Mutex<Option<Result<RunReport, EcallError>>>,
    ready: Condvar,
}

/// Receipt for an accepted request. Exactly one verdict will arrive:
/// the dispatcher serves every queued request before
/// [`AdmissionFrontend::run_dispatcher`] returns, even for requests it
/// drained after `close()`.
#[derive(Debug)]
pub struct Ticket {
    /// Global request id, assigned in admission order across all tenants.
    /// This is the id batch errors are reported under (see
    /// [`BatchOutcome::first_error`]).
    pub global_id: u64,
    /// The request's causal trace, minted at enqueue.
    pub trace: TraceId,
    slot: Arc<ResultSlot>,
}

impl Ticket {
    /// Blocks until the dispatcher delivers this request's verdict.
    ///
    /// # Errors
    ///
    /// Returns the per-request [`EcallError`] when the run failed —
    /// including a clone of the install error when the tenant's own
    /// binary failed verification mid-stream.
    ///
    /// # Panics
    ///
    /// Panics if the delivering dispatcher thread panicked (poisoned
    /// slot), which would otherwise deadlock this wait forever.
    pub fn wait(self) -> Result<RunReport, EcallError> {
        let mut cell = self.slot.cell.lock().expect("slot not poisoned");
        loop {
            if let Some(verdict) = cell.take() {
                return verdict;
            }
            cell = self.slot.ready.wait(cell).expect("slot not poisoned");
        }
    }

    /// Non-blocking probe: the verdict if it has already been delivered.
    ///
    /// # Errors
    ///
    /// Same per-request error contract as [`Ticket::wait`].
    ///
    /// # Panics
    ///
    /// Panics if the delivering dispatcher thread panicked.
    pub fn try_wait(&self) -> Option<Result<RunReport, EcallError>> {
        self.slot.cell.lock().expect("slot not poisoned").take()
    }
}

/// One queued request.
struct Pending {
    global_id: u64,
    tenant: TenantId,
    payload: Vec<u8>,
    trace: TraceId,
    enqueued_at: Instant,
    slot: Arc<ResultSlot>,
}

/// Everything behind the frontend mutex.
struct QueueState {
    queue: VecDeque<Pending>,
    registry: TenantRegistry,
    next_global: u64,
    closed: bool,
}

/// Outcome of one dispatcher batch, in global-request-id terms.
///
/// Restates [`EnclavePool::serve_parallel`]'s deterministic
/// lowest-request-index error rule per admission batch: indices inside a
/// drained batch are batch-relative, so the rule is re-expressed as "the
/// error of the **lowest global request id** that failed in this batch".
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Global ids served in this batch, in drain (admission) order.
    pub global_ids: Vec<u64>,
    /// `(global_id, error)` of the failed request with the lowest global
    /// id in the batch — the batch-level error a batch-granular caller
    /// would see, independent of worker count and thread timing.
    pub first_error: Option<(u64, EcallError)>,
}

/// Summary returned by [`AdmissionFrontend::run_dispatcher`].
#[derive(Debug, Clone, Default)]
pub struct DispatcherReport {
    /// Batches formed, in service order.
    pub batches: Vec<BatchOutcome>,
    /// Total requests served (every one delivered exactly one verdict).
    pub served: u64,
}

/// The bounded multi-tenant admission queue. Share it via reference (or
/// `Arc`) across any number of submitting threads; exactly one thread at
/// a time runs [`AdmissionFrontend::run_dispatcher`], because the
/// dispatcher needs `&mut` access to the pool it feeds.
pub struct AdmissionFrontend {
    state: Mutex<QueueState>,
    /// Signaled on enqueue and on close, waking the dispatcher.
    items: Condvar,
    config: AdmissionConfig,
}

impl AdmissionFrontend {
    /// Creates a frontend for a pool built with `pool_manifest`.
    ///
    /// # Panics
    ///
    /// Panics if `high_water` exceeds `queue_capacity` or `batch_max`
    /// is 0 — configuration bugs, not load conditions.
    #[must_use]
    pub fn new(config: AdmissionConfig, registry: TenantRegistry) -> Self {
        assert!(
            config.high_water <= config.queue_capacity,
            "high_water must not exceed queue_capacity"
        );
        assert!(config.batch_max > 0, "batch_max must be at least 1");
        AdmissionFrontend {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(config.queue_capacity),
                registry,
                next_global: 0,
                closed: false,
            }),
            items: Condvar::new(),
            config,
        }
    }

    /// Registers a tenant after construction (the registry is otherwise
    /// sealed behind the frontend's lock).
    ///
    /// # Errors
    ///
    /// Propagates [`TenantRejected`] from
    /// [`TenantRegistry::register`].
    pub fn register(&self, config: TenantConfig) -> Result<TenantId, TenantRejected> {
        self.state.lock().expect("admission lock").registry.register(config)
    }

    /// A snapshot of a tenant's serving counters.
    #[must_use]
    pub fn tenant_stats(&self, id: TenantId) -> Option<TenantStats> {
        self.state.lock().expect("admission lock").registry.get(id).map(|t| t.stats.clone())
    }

    /// Current queue depth (diagnostics; racy by nature).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.state.lock().expect("admission lock").queue.len()
    }

    /// Submits one request for `tenant`. Never blocks: either the request
    /// is accepted (trace minted, Enqueue recorded, dispatcher woken) and
    /// a [`Ticket`] is returned, or it is shed immediately with a typed
    /// [`Overloaded`].
    ///
    /// # Errors
    ///
    /// [`Overloaded`] when the frontend is closed, the tenant is unknown,
    /// the tenant's lifetime output ledger or in-flight cap is exhausted,
    /// or queue depth is at the high-water mark. Shed decisions are
    /// counted per reason in `METRICS` and recorded as
    /// [`EventKind::Shed`] flight events.
    pub fn submit(&self, tenant: TenantId, payload: Vec<u8>) -> Result<Ticket, Overloaded> {
        let mut state = self.state.lock().expect("admission lock");
        if state.closed {
            return Err(Overloaded::Closed);
        }
        let depth = state.queue.len();
        let Some(t) = state.registry.get_mut(tenant) else {
            return Err(Overloaded::UnknownTenant);
        };
        if let Some(budget) = t.config.lifetime_output_budget {
            if t.stats.output_bytes >= budget {
                t.stats.shed += 1;
                METRICS.admission_shed_lifetime_budget.add(1);
                flightrec::record(EventKind::Shed, TraceId::NONE, depth as u64, 2);
                return Err(Overloaded::TenantBudget);
            }
        }
        if t.in_flight >= t.config.max_in_flight {
            let limit = t.config.max_in_flight;
            t.stats.shed += 1;
            METRICS.admission_shed_tenant_in_flight.add(1);
            flightrec::record(EventKind::Shed, TraceId::NONE, depth as u64, 1);
            return Err(Overloaded::TenantInFlight { limit });
        }
        if depth >= self.config.high_water {
            t.stats.shed += 1;
            METRICS.admission_shed_queue_full.add(1);
            flightrec::record(EventKind::Shed, TraceId::NONE, depth as u64, 0);
            return Err(Overloaded::QueueFull { depth });
        }
        t.in_flight += 1;
        t.stats.admitted += 1;
        let global_id = state.next_global;
        state.next_global += 1;
        // The trace is minted HERE, at enqueue — not when a worker claims
        // the request — so the Enqueue→Admit gap is visible queueing
        // delay in the timeline.
        let trace = TraceId::mint();
        flightrec::record(EventKind::Enqueue, trace, global_id, (depth + 1) as u64);
        METRICS.admission_enqueued.add(1);
        let slot = Arc::new(ResultSlot::default());
        state.queue.push_back(Pending {
            global_id,
            tenant,
            payload,
            trace,
            enqueued_at: Instant::now(),
            slot: Arc::clone(&slot),
        });
        METRICS.admission_queue_depth.set(state.queue.len() as i64);
        drop(state);
        self.items.notify_one();
        Ok(Ticket { global_id, trace, slot })
    }

    /// Closes the frontend: subsequent `submit`s shed with
    /// [`Overloaded::Closed`], and the dispatcher drains what is already
    /// queued and returns.
    pub fn close(&self) {
        self.state.lock().expect("admission lock").closed = true;
        self.items.notify_all();
    }

    /// Runs the dispatcher loop until the frontend is closed **and** the
    /// queue is drained. Exactly one thread may run this at a time (it
    /// borrows the pool mutably); every request accepted by `submit` —
    /// before or during the loop — is served and has its verdict
    /// delivered before this returns, so no ticket ever waits forever.
    ///
    /// Dispatch is work-conserving: the dispatcher sleeps until a request
    /// arrives, then drains whatever is queued, up to `batch_max`, without
    /// waiting for more. Each drained batch is grouped by tenant
    /// (first-occurrence order, deterministic in admission order); each
    /// tenant group switches the pool to the tenant's image — a swap of
    /// resident instances once the pool holds it — and is served through
    /// [`EnclavePool::serve_parallel_each_traced`] with the traces minted
    /// at enqueue.
    ///
    /// # Panics
    ///
    /// Panics if a submitting thread panicked while holding the admission
    /// lock.
    pub fn run_dispatcher(&self, pool: &mut EnclavePool, fuel: u64) -> DispatcherReport {
        let mut report = DispatcherReport::default();
        loop {
            let drained = {
                let mut state = self.state.lock().expect("admission lock");
                // Sleep until there is work or we are closed.
                while state.queue.is_empty() && !state.closed {
                    state = self.items.wait(state).expect("admission lock");
                }
                if state.queue.is_empty() && state.closed {
                    return report;
                }
                let take = state.queue.len().min(self.config.batch_max);
                let drained: Vec<Pending> = state.queue.drain(..take).collect();
                METRICS.admission_queue_depth.set(state.queue.len() as i64);
                drained
            };
            let now = Instant::now();
            for p in &drained {
                flightrec::record(EventKind::Admit, p.trace, p.global_id, drained.len() as u64);
                METRICS.admission_admitted.add(1);
                METRICS
                    .admission_wait_ns
                    .observe(now.duration_since(p.enqueued_at).as_nanos() as u64);
            }
            METRICS.admission_batch_size.observe(drained.len() as u64);
            report.batches.push(self.serve_drained(pool, fuel, drained));
            report.served += report.batches.last().map_or(0, |b| b.global_ids.len() as u64);
        }
    }

    /// Serves one drained batch: group by tenant, switch to each tenant's
    /// image, serve, deliver.
    fn serve_drained(
        &self,
        pool: &mut EnclavePool,
        fuel: u64,
        drained: Vec<Pending>,
    ) -> BatchOutcome {
        let global_ids: Vec<u64> = drained.iter().map(|p| p.global_id).collect();
        // Group batch positions by tenant, preserving first-occurrence
        // order so the grouping is a pure function of admission order.
        let mut groups: Vec<(TenantId, Vec<usize>)> = Vec::new();
        for (pos, p) in drained.iter().enumerate() {
            match groups.iter_mut().find(|(t, _)| *t == p.tenant) {
                Some((_, idxs)) => idxs.push(pos),
                None => groups.push((p.tenant, vec![pos])),
            }
        }
        let mut first_error: Option<(u64, EcallError)> = None;
        for (tenant, idxs) in groups {
            let code_hash = self.with_tenant(tenant, |t| t.code_hash);
            // One switch keyed by the tenant's registered code hash:
            // nothing to do when its image is live, a swap of resident
            // instances when the pool holds it, and a verifying install
            // (the only case that needs the binary) otherwise.
            let switched = if pool.active_code_hash() == Some(code_hash) {
                Ok(code_hash)
            } else {
                pool.activate(&code_hash).unwrap_or_else(|| {
                    pool.install_all(&self.with_tenant(tenant, |t| t.config.binary.clone()))
                })
            };
            let verdicts: Vec<Result<RunReport, EcallError>> = match switched {
                Ok(_) => {
                    let payloads: Vec<&[u8]> =
                        idxs.iter().map(|&i| drained[i].payload.as_slice()).collect();
                    let traces: Vec<TraceId> = idxs.iter().map(|&i| drained[i].trace).collect();
                    pool.serve_parallel_each_traced(&payloads, &traces, fuel)
                }
                // A rejected tenant binary fails the whole tenant group —
                // each of its requests gets its own clone of the install
                // error — but never its batch-mates from other tenants.
                Err(e) => idxs.iter().map(|_| Err(e.clone())).collect(),
            };
            let mut state = self.state.lock().expect("admission lock");
            for (&pos, verdict) in idxs.iter().zip(verdicts) {
                let p = &drained[pos];
                if let Err(e) = &verdict {
                    // Lowest **global id**, not lowest batch-relative
                    // index: admission batches interleave tenants, so the
                    // deterministic error rule must be restated in global
                    // terms to stay independent of grouping.
                    if first_error.as_ref().is_none_or(|(g, _)| p.global_id < *g) {
                        first_error = Some((p.global_id, e.clone()));
                    }
                }
                let t = state.registry.get_mut(p.tenant).expect("registered tenant");
                t.in_flight -= 1;
                t.stats.completed += 1;
                if let Ok(r) = &verdict {
                    t.stats.output_bytes +=
                        r.records.iter().map(|rec| rec.len() as u64).sum::<u64>();
                }
                *p.slot.cell.lock().expect("slot lock") = Some(verdict);
                p.slot.ready.notify_all();
            }
        }
        BatchOutcome { global_ids, first_error }
    }

    /// Reads one registered tenant under the admission lock.
    fn with_tenant<R>(&self, tenant: TenantId, read: impl FnOnce(&Tenant) -> R) -> R {
        let state = self.state.lock().expect("admission lock");
        read(state.registry.get(tenant).expect("registered tenant"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Manifest, PolicySet};
    use crate::producer::produce;
    use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};

    const ECHO_SUM: &str = "
        fn main() -> int {
            var n: int = input_len();
            var s: int = 0;
            var i: int = 0;
            while (i < n) { s = s + input_byte(i); i = i + 1; }
            return s;
        }
    ";
    const FUEL: u64 = 10_000_000;

    fn manifest() -> Manifest {
        let mut m = Manifest::ccaas();
        m.policy = PolicySet::full();
        m
    }

    fn echo_binary() -> Vec<u8> {
        produce(ECHO_SUM, &manifest().policy).unwrap().serialize()
    }

    fn echo_pool(workers: usize) -> EnclavePool {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest(), workers);
        pool.set_owner_session([7; 32]);
        pool
    }

    fn tenant_config(name: &str, max_in_flight: usize) -> TenantConfig {
        TenantConfig {
            name: name.to_string(),
            binary: echo_binary(),
            manifest: manifest(),
            max_in_flight,
            lifetime_output_budget: None,
        }
    }

    fn frontend(config: AdmissionConfig) -> AdmissionFrontend {
        AdmissionFrontend::new(config, TenantRegistry::new(&manifest()))
    }

    #[test]
    fn submit_close_dispatch_delivers_every_verdict() {
        let fe = frontend(AdmissionConfig::default());
        let tenant = fe.register(tenant_config("t", 64)).unwrap();
        let tickets: Vec<Ticket> =
            (0..10u8).map(|i| fe.submit(tenant, vec![i, i, 1]).unwrap()).collect();
        fe.close();
        let mut pool = echo_pool(2);
        let report = fe.run_dispatcher(&mut pool, FUEL);
        assert_eq!(report.served, 10);
        for (i, t) in tickets.into_iter().enumerate() {
            let r = t.wait().unwrap();
            assert_eq!(r.exit.exit_value(), Some(i as u64 * 2 + 1));
        }
        let stats = fe.tenant_stats(tenant).unwrap();
        assert_eq!(stats.admitted, 10);
        assert_eq!(stats.completed, 10);
        assert_eq!(stats.shed, 0);
    }

    #[test]
    fn global_ids_are_assigned_in_admission_order() {
        let fe = frontend(AdmissionConfig::default());
        let tenant = fe.register(tenant_config("t", 8)).unwrap();
        let a = fe.submit(tenant, vec![1]).unwrap();
        let b = fe.submit(tenant, vec![2]).unwrap();
        assert_eq!(a.global_id, 0);
        assert_eq!(b.global_id, 1);
    }

    #[test]
    fn queue_full_sheds_with_depth() {
        let fe = frontend(AdmissionConfig {
            queue_capacity: 4,
            high_water: 2,
            ..AdmissionConfig::default()
        });
        let tenant = fe.register(tenant_config("t", 64)).unwrap();
        fe.submit(tenant, vec![1]).unwrap();
        fe.submit(tenant, vec![2]).unwrap();
        assert_eq!(fe.submit(tenant, vec![3]).err(), Some(Overloaded::QueueFull { depth: 2 }));
        assert_eq!(fe.tenant_stats(tenant).unwrap().shed, 1);
        // Drain so the queued tickets are not leaked on a poisoned path.
        fe.close();
        let mut pool = echo_pool(1);
        fe.run_dispatcher(&mut pool, FUEL);
    }

    #[test]
    fn tenant_in_flight_cap_sheds_only_that_tenant() {
        let fe = frontend(AdmissionConfig::default());
        let small = fe.register(tenant_config("small", 1)).unwrap();
        let big = fe.register(tenant_config("big", 8)).unwrap();
        fe.submit(small, vec![1]).unwrap();
        assert_eq!(fe.submit(small, vec![2]).err(), Some(Overloaded::TenantInFlight { limit: 1 }));
        fe.submit(big, vec![3]).unwrap();
        fe.close();
        let mut pool = echo_pool(1);
        fe.run_dispatcher(&mut pool, FUEL);
    }

    #[test]
    fn lifetime_budget_sheds_before_enqueue() {
        let fe = frontend(AdmissionConfig::default());
        let mut cfg = tenant_config("capped", 8);
        cfg.lifetime_output_budget = Some(0);
        let tenant = fe.register(cfg).unwrap();
        assert_eq!(fe.submit(tenant, vec![1]).err(), Some(Overloaded::TenantBudget));
    }

    #[test]
    fn unknown_tenant_and_closed_are_typed() {
        let fe = frontend(AdmissionConfig::default());
        assert_eq!(fe.submit(TenantId(9), vec![1]).err(), Some(Overloaded::UnknownTenant));
        fe.close();
        let tenant_after_close = TenantId(0);
        assert_eq!(fe.submit(tenant_after_close, vec![1]).err(), Some(Overloaded::Closed));
    }

    #[test]
    fn verdicts_match_direct_serve_parallel_bit_for_bit() {
        // The admission layer must be a pure scheduler: same requests,
        // same per-request exits and record counts as handing the batch
        // to `serve_parallel` directly.
        let requests: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i, 2 * i, 5]).collect();

        let mut direct_pool = echo_pool(2);
        direct_pool.install_all(&echo_binary()).unwrap();
        let direct = direct_pool.serve_parallel(&requests, FUEL).unwrap();

        let fe = frontend(AdmissionConfig::default());
        let tenant = fe.register(tenant_config("t", 64)).unwrap();
        let tickets: Vec<Ticket> =
            requests.iter().map(|r| fe.submit(tenant, r.clone()).unwrap()).collect();
        fe.close();
        let mut pool = echo_pool(2);
        fe.run_dispatcher(&mut pool, FUEL);

        for (t, d) in tickets.into_iter().zip(&direct) {
            let admitted = t.wait().unwrap();
            assert_eq!(admitted.exit, d.exit);
            assert_eq!(admitted.records.len(), d.records.len());
        }
    }

    #[test]
    fn two_tenants_share_one_pool_with_install_switching() {
        let doubler = "
            fn main() -> int {
                var n: int = input_len();
                return n * 2;
            }
        ";
        let fe = frontend(AdmissionConfig {
            // Force one batch containing both tenants.
            batch_max: 4,
            ..AdmissionConfig::default()
        });
        let echo = fe.register(tenant_config("echo", 8)).unwrap();
        let mut dcfg = tenant_config("doubler", 8);
        dcfg.binary = produce(doubler, &manifest().policy).unwrap().serialize();
        let dbl = fe.register(dcfg).unwrap();

        let te = fe.submit(echo, vec![10, 20]).unwrap();
        let td = fe.submit(dbl, vec![0, 0, 0]).unwrap();
        fe.close();
        let mut pool = echo_pool(2);
        let report = fe.run_dispatcher(&mut pool, FUEL);
        assert_eq!(report.batches.len(), 1);
        assert_eq!(report.batches[0].global_ids, vec![0, 1]);
        assert_eq!(te.wait().unwrap().exit.exit_value(), Some(30));
        assert_eq!(td.wait().unwrap().exit.exit_value(), Some(6));
        // Two installs: echo's image, then the doubler's.
        assert_eq!(pool.verification_count(), 2);
    }

    #[test]
    fn rejected_tenant_binary_reports_lowest_global_id_error() {
        // Tenant A (honest echo) owns global ids 0, 2, 3; tenant B's
        // binary fails verification mid-stream at global id 1. The
        // deterministic error rule is restated per batch in *global*
        // request ids, so `first_error` must name id 1 even though B's
        // group is served after A's (grouping is first-occurrence order).
        let fe = frontend(AdmissionConfig { batch_max: 4, ..AdmissionConfig::default() });
        let honest = fe.register(tenant_config("honest", 8)).unwrap();
        let mut bad = tenant_config("attacker", 8);
        bad.binary = crate::attack::corpus().remove(0).binary.serialize();
        let attacker = fe.register(bad).unwrap();

        let t0 = fe.submit(honest, vec![1, 2]).unwrap();
        let t1 = fe.submit(attacker, vec![3]).unwrap();
        let t2 = fe.submit(honest, vec![4]).unwrap();
        let t3 = fe.submit(honest, vec![5, 6]).unwrap();
        fe.close();
        let mut pool = echo_pool(2);
        let report = fe.run_dispatcher(&mut pool, FUEL);

        assert_eq!(report.batches.len(), 1);
        let (gid, err) = report.batches[0]
            .first_error
            .clone()
            .expect("rejected install must surface as the batch error");
        assert_eq!(gid, 1, "error must carry the lowest failing global id");
        assert!(matches!(err, EcallError::Install(_)), "{err:?}");
        // The attacker's request gets its own clone of the install error;
        // the honest tenant's batch-mates are untouched.
        assert_eq!(t0.wait().unwrap().exit.exit_value(), Some(3));
        assert!(matches!(t1.wait(), Err(EcallError::Install(_))));
        assert_eq!(t2.wait().unwrap().exit.exit_value(), Some(4));
        assert_eq!(t3.wait().unwrap().exit.exit_value(), Some(11));
    }

    #[test]
    fn same_tenant_batches_skip_reinstall() {
        let fe = frontend(AdmissionConfig::default());
        let tenant = fe.register(tenant_config("t", 64)).unwrap();
        for i in 0..6u8 {
            fe.submit(tenant, vec![i]).unwrap();
        }
        fe.close();
        let mut pool = echo_pool(1);
        fe.run_dispatcher(&mut pool, FUEL);
        assert_eq!(pool.verification_count(), 1);
    }
}
