//! Concurrent request serving: a fault-tolerant pool of bootstrap-enclave
//! workers.
//!
//! The paper's HTTPS evaluation serves many clients concurrently and its
//! Section VII discusses multi-threaded enclaves, warning that shared
//! in-memory CFI metadata is TOCTOU-prone and suggesting per-thread
//! isolation. This pool takes the robust variant of that advice: each
//! worker is a fully isolated enclave instance (own EPC image, own shadow
//! stack, own SSA/control state), so no annotation metadata is ever shared
//! between threads and the TOCTOU surface does not exist. This mirrors how
//! multi-tenant CCaaS deployments actually scale SGX services (one enclave
//! per worker), at the cost of per-worker memory.
//!
//! Installation amortizes verification: [`EnclavePool::install_all`]
//! runs the consumer pipeline once per unique binary and *replays* the
//! captured post-rewrite image into the remaining workers concurrently
//! (sound because the pipeline is deterministic in the
//! measurement-covered inputs — see
//! [`PreparedInstall`]). Prepared images
//! are cached by code hash, so reinstalling a previously seen binary
//! verifies zero times, and the cache can be sealed to untrusted storage
//! and re-imported after a restart ([`EnclavePool::export_sealed`] /
//! [`EnclavePool::import_sealed`], see [`crate::sealed`]).
//!
//! # Resident tenant instances
//!
//! Many tenants share one pool, so a worker slot keeps a table of
//! *resident* enclave instances, one per tenant image it has served, keyed
//! by code hash. A tenant switch ([`EnclavePool::install_all`] or
//! [`EnclavePool::activate`] on a cached image) swaps that tenant's
//! instance in with its globals, inbox and audit state intact — no image
//! copy, no VM rebuild, no re-prewarm. Only a slot that has never held the
//! image builds a fresh instance from the prepared image. The state a slot
//! owns rather than a tenant — record-nonce channel and counter, lifetime
//! output ledger, audit ring — moves to the incoming instance on every
//! swap, before it adopts an image or runs
//! (`BootstrapEnclave::hand_over_slot`), so every resident of a slot
//! seals on the slot's one channel under the slot's one monotonic counter.
//! A resident exists only while its prepared image is retained: evicting
//! an image past the cache cap drops its residents on every slot.
//!
//! # Fault tolerance
//!
//! Long-lived serving must survive individual enclave failures. Two are
//! modeled: a *contained fault* (the program trips a policy guard or a
//! denied OCall — the report is still the request's answer, but the
//! instance may hold corrupted state) and a *lost instance* (the
//! `SGX_ERROR_ENCLAVE_LOST` analogue — power transition or injected chaos
//! kill; the request never completed). Either way the pool quarantines the
//! worker slot and respawns a fresh enclave into it, reinstalling from the
//! prepared-image cache with zero re-verifications. No AEAD nonce is ever
//! reused pool-wide: every slot seals records in its own nonce *channel*
//! (the slot index, part of the nonce — so workers sharing the owner
//! session key never collide even though each counter starts at 0), and a
//! respawn carries the dead instance's channel and record counter forward.
//! Each slot has a bounded respawn budget; when it is exhausted the slot
//! stays quarantined and [`EnclavePool::health`] reports it.
//!
//! [`EnclavePool::serve_parallel`] schedules by *work stealing*: worker
//! threads claim request indices from a shared atomic counter, so a skewed
//! batch no longer idles the statically assigned workers
//! ([`EnclavePool::serve_parallel_round_robin`] keeps the old static
//! `i % len` split as the ablation baseline). Slot 0 drains the queue on
//! the calling thread and only slots 1..N get scope-spawned threads, so a
//! 1-worker pool serves a batch with no thread created. Request *outcomes* stay
//! schedule-independent — serving is deterministic per request, a lost
//! request is retried on a fresh or different worker with an identical
//! result, and the documented lowest-request-index error rule is enforced
//! by `merge_results` after all threads join. (Record *ciphertexts* do
//! depend on which worker sealed them, since each worker seals in its own
//! nonce channel under its own monotonic counter.)

use crate::policy::Manifest;
use crate::runtime::{BootstrapEnclave, EcallError, PreparedInstall, RunReport};
use deflection_crypto::sha256::sha256;
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_sgx_sim::vm::RunExit;
use deflection_telemetry::flightrec::{self, EventKind, TraceId};
use deflection_telemetry::{Span, METRICS};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default number of times a worker slot may be respawned between
/// reinstalls before it stays quarantined.
const DEFAULT_RESPAWN_BUDGET: usize = 8;

/// Default cap on retained prepared images (see
/// [`EnclavePool::set_prepared_cap`]). Each retained image may also back
/// one resident enclave instance per worker slot, so an unbounded cache is
/// a memory leak on a pool that keeps installing new binaries.
pub const DEFAULT_PREPARED_CAP: usize = 64;

/// Why [`EnclavePool::export_sealed_for`] could not seal a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealedExportError {
    /// The image was installed once but has since been evicted by the
    /// prepared-cache cap; reinstalling the binary re-captures it.
    Evicted,
    /// No binary with this code hash was ever installed in this pool.
    NeverInstalled,
}

impl std::fmt::Display for SealedExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealedExportError::Evicted => {
                write!(f, "prepared image was evicted by the cache cap; reinstall to re-capture")
            }
            SealedExportError::NeverInstalled => {
                write!(f, "no prepared image with this code hash was ever installed")
            }
        }
    }
}

impl std::error::Error for SealedExportError {}

/// Liveness and serving counters for one worker slot.
#[derive(Debug, Clone, Default)]
pub struct WorkerHealth {
    /// Requests that produced a report, including contained-fault reports.
    pub served: usize,
    /// Contained faults plus lost-instance events hit by this slot.
    pub faulted: usize,
    /// Times the slot was rebuilt with a fresh enclave instance.
    pub respawned: usize,
    /// Whether the slot is currently quarantined — unusable until a
    /// respawn or a full reinstall succeeds.
    pub quarantined: bool,
    /// Serving-path respawns still available to the slot before it stays
    /// quarantined (snapshot of the remaining budget).
    pub respawn_headroom: usize,
}

impl WorkerHealth {
    /// Fraction of this slot's completed requests that were contained
    /// faults or lost-instance events (0 when nothing was served).
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.faulted as f64 / self.served as f64
        }
    }
}

/// A snapshot of every worker slot's [`WorkerHealth`], in worker order.
#[derive(Debug, Clone)]
pub struct PoolHealth {
    /// One entry per worker slot.
    pub workers: Vec<WorkerHealth>,
}

impl PoolHealth {
    /// Total requests served across the pool (including fault reports).
    #[must_use]
    pub fn total_served(&self) -> usize {
        self.workers.iter().map(|w| w.served).sum()
    }

    /// Total contained-fault and lost-instance events across the pool.
    #[must_use]
    pub fn total_faulted(&self) -> usize {
        self.workers.iter().map(|w| w.faulted).sum()
    }

    /// Total respawns across the pool.
    #[must_use]
    pub fn total_respawned(&self) -> usize {
        self.workers.iter().map(|w| w.respawned).sum()
    }

    /// Number of slots currently quarantined.
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.workers.iter().filter(|w| w.quarantined).count()
    }

    /// Pool-wide fault rate: faulted events over served requests (0 when
    /// nothing was served yet).
    #[must_use]
    pub fn fault_rate(&self) -> f64 {
        let served = self.total_served();
        if served == 0 {
            0.0
        } else {
            self.total_faulted() as f64 / served as f64
        }
    }

    /// The smallest remaining respawn allowance across non-quarantined
    /// slots — how close the pool is to losing its next slot for good.
    /// `None` when every slot is quarantined.
    #[must_use]
    pub fn min_respawn_headroom(&self) -> Option<usize> {
        self.workers.iter().filter(|w| !w.quarantined).map(|w| w.respawn_headroom).min()
    }
}

/// One worker slot: the live enclave instance, the slot's resident
/// instances of other tenants, its health state and fault-injection hooks.
#[derive(Debug)]
struct Worker {
    /// The instance that serves the slot's requests.
    enclave: BootstrapEnclave,
    /// Code hash of the image the live instance holds; `None` before the
    /// slot's first install and after a rebuild.
    live: Option<[u8; 32]>,
    /// Parked instances of other tenants, by code hash. A tenant switch
    /// swaps one in, keeping its globals, inbox and instruction counters.
    residents: HashMap<[u8; 32], BootstrapEnclave>,
    health: WorkerHealth,
    /// Stable slot index, used to attribute flight-recorder events.
    slot: usize,
    /// Remaining serving-path respawns before the slot stays quarantined.
    respawn_left: usize,
    /// Armed chaos kill: lose the instance right before serving the
    /// `n+1`-th subsequent request.
    chaos_kill_after: Option<usize>,
}

/// A new, image-less enclave over `layout` and `manifest`, holding the
/// owner session key when one is set.
fn fresh_instance(
    layout: &EnclaveLayout,
    manifest: &Manifest,
    owner_key: Option<[u8; 32]>,
) -> BootstrapEnclave {
    let mut enclave = BootstrapEnclave::new(layout.clone(), manifest.clone());
    if let Some(key) = owner_key {
        enclave.set_owner_session(key);
    }
    enclave
}

impl Worker {
    /// Builds `hash`'s image into a fresh instance over this slot's own
    /// layout and manifest, then makes it live. The slot's state is handed
    /// to the new instance *before* `install` runs, so the install's audit
    /// record continues the slot's sequence; on failure it is handed back
    /// and the slot is left exactly as it was.
    fn install_fresh<R>(
        &mut self,
        hash: [u8; 32],
        owner_key: Option<[u8; 32]>,
        retained: impl Fn(&[u8; 32]) -> bool,
        install: impl FnOnce(&mut BootstrapEnclave) -> Result<R, EcallError>,
    ) -> Result<R, EcallError> {
        let mut incoming = fresh_instance(&self.enclave.layout, &self.enclave.manifest, owner_key);
        self.enclave.hand_over_slot(&mut incoming);
        match install(&mut incoming) {
            Ok(r) => {
                self.make_live(hash, incoming, retained);
                Ok(r)
            }
            Err(e) => {
                incoming.hand_over_slot(&mut self.enclave);
                Err(e)
            }
        }
    }

    /// Makes `prepared`'s image live on this slot: nothing to do when it
    /// already is, a swap when a resident instance holds it, a replay into
    /// a fresh instance otherwise.
    fn switch_to(
        &mut self,
        prepared: &PreparedInstall,
        owner_key: Option<[u8; 32]>,
        retained: impl Fn(&[u8; 32]) -> bool,
    ) -> Result<(), EcallError> {
        let hash = prepared.code_hash();
        if self.live == Some(hash) {
            return Ok(());
        }
        match self.residents.remove(&hash) {
            Some(mut resident) => {
                self.enclave.hand_over_slot(&mut resident);
                self.make_live(hash, resident, retained);
                Ok(())
            }
            None => self
                .install_fresh(hash, owner_key, retained, |e| e.install_replayed(prepared))
                .map(|_| ()),
        }
    }

    /// Whether making `hash` live needs a replay (no live or resident
    /// instance holds it).
    fn needs_replay(&self, hash: &[u8; 32]) -> bool {
        self.live != Some(*hash) && !self.residents.contains_key(hash)
    }

    /// Replaces the live instance with `incoming` (which already holds the
    /// slot's state) and parks the outgoing one as a resident while its
    /// image is still `retained` in the prepared cache.
    fn make_live(
        &mut self,
        hash: [u8; 32],
        incoming: BootstrapEnclave,
        retained: impl Fn(&[u8; 32]) -> bool,
    ) {
        let outgoing = std::mem::replace(&mut self.enclave, incoming);
        if let Some(old) = self.live.replace(hash) {
            if !outgoing.is_lost() && retained(&old) {
                self.residents.insert(old, outgoing);
            }
        }
    }
}

/// Everything a respawn needs, borrowed from the pool's non-worker fields
/// so worker threads can self-heal while holding `&mut Worker`.
struct RespawnCtx<'a> {
    layout: &'a EnclaveLayout,
    manifest: &'a Manifest,
    owner_key: Option<[u8; 32]>,
    prepared: Option<&'a PreparedInstall>,
}

/// Replaces a worker slot's live enclave with a fresh instance reinstalled
/// from the prepared cache, consuming one unit of the slot's respawn
/// budget. Returns `false` (and quarantines the slot) when the budget is
/// exhausted or the reinstall fails. Resident instances of other tenants
/// are healthy and stay.
fn respawn_worker(w: &mut Worker, ctx: &RespawnCtx<'_>) -> bool {
    if w.respawn_left == 0 {
        if !w.health.quarantined {
            METRICS.pool_quarantines.add(1);
            flightrec::record_ambient(EventKind::Quarantine, w.slot as u64, 0);
        }
        w.health.quarantined = true;
        return false;
    }
    w.respawn_left -= 1;
    let mut fresh = fresh_instance(ctx.layout, ctx.manifest, ctx.owner_key);
    // The fresh instance serves under the same owner session key as the
    // dead one, so it takes over the slot's nonce channel and record
    // counter (a reset would reuse an AEAD nonce), the lifetime output
    // ledger (the optional lifetime entropy cap bounds the slot, not one
    // instance), and the audit ring (exported audit sequences must never
    // regress).
    w.enclave.hand_over_slot(&mut fresh);
    if let Some(prepared) = ctx.prepared {
        if fresh.install_replayed(prepared).is_err() {
            fresh.hand_over_slot(&mut w.enclave);
            if !w.health.quarantined {
                METRICS.pool_quarantines.add(1);
                flightrec::record_ambient(EventKind::Quarantine, w.slot as u64, 0);
            }
            w.health.quarantined = true;
            return false;
        }
    }
    w.enclave = fresh;
    w.live = ctx.prepared.map(PreparedInstall::code_hash);
    if let Some(hash) = &w.live {
        w.residents.remove(hash);
    }
    w.health.respawned += 1;
    w.health.quarantined = false;
    METRICS.pool_respawns.add(1);
    flightrec::record_ambient(EventKind::Respawn, w.slot as u64, 0);
    true
}

/// What one serve attempt on one worker produced.
enum Outcome {
    /// The run completed and this report is the request's result (possibly
    /// a contained-fault report).
    Report(RunReport),
    /// The instance was lost before the run completed; the request has no
    /// result yet and must be retried.
    Lost,
    /// A non-fault ECall error (e.g. no binary installed) — the request's
    /// final, deterministic error.
    Error(EcallError),
}

/// Serves one request on one worker, applying any armed chaos kill and
/// quarantining/respawning the slot after a contained fault or a lost
/// instance.
fn serve_once(w: &mut Worker, ctx: &RespawnCtx<'_>, input: &[u8], fuel: u64) -> Outcome {
    if let Some(left) = w.chaos_kill_after {
        if left == 0 {
            w.enclave.mark_lost();
            w.chaos_kill_after = None;
        } else {
            w.chaos_kill_after = Some(left - 1);
        }
    }
    match w.enclave.provide_input(input).and_then(|()| w.enclave.run(fuel)) {
        Ok(report) => {
            // The pool is the host-side boundary: the run/seal flight
            // events are recorded here, from the returned report, so the
            // runtime itself stays free of recording sites (TCB-counted).
            crate::flight::record_run_report(&report);
            w.health.served += 1;
            if matches!(report.exit, RunExit::Fault(_)) {
                // The contained fault is the request's answer, but the
                // instance may hold corrupted state (partially updated
                // globals, mid-run buffers) — never let it serve again.
                w.health.faulted += 1;
                METRICS.pool_contained_faults.add(1);
                flightrec::record_ambient(EventKind::Fault, w.slot as u64, 0);
                respawn_worker(w, ctx);
            }
            Outcome::Report(report)
        }
        Err(EcallError::EnclaveLost) => {
            w.health.faulted += 1;
            METRICS.pool_lost_instances.add(1);
            flightrec::record_ambient(EventKind::Fault, w.slot as u64, 1);
            respawn_worker(w, ctx);
            Outcome::Lost
        }
        Err(e) => Outcome::Error(e),
    }
}

/// Work-stealing serve loop for one worker thread: claim the next request
/// index from the shared counter, serve it, repeat. A lost instance
/// retries the same request after a successful respawn; a quarantined slot
/// stops claiming and leaves unserved work to the other threads (or the
/// stranded retry pass).
fn drain_queue<T: AsRef<[u8]>>(
    w: &mut Worker,
    ctx: &RespawnCtx<'_>,
    next: &AtomicUsize,
    requests: &[T],
    traces: &[TraceId],
    fuel: u64,
) -> Vec<(usize, Result<RunReport, EcallError>)> {
    let mut out = Vec::new();
    if w.health.quarantined && !respawn_worker(w, ctx) {
        return out;
    }
    loop {
        // The claim counter is the only cross-thread state; joining the
        // scope publishes the per-thread results, so relaxed ordering
        // suffices.
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= requests.len() {
            return out;
        }
        METRICS.pool_work_queue_claims.add(1);
        // Slots past the first run on scope-spawned threads, which do not
        // inherit the batch's ambient trace, and slot 0 runs on the caller
        // under the caller's: either way the request's minted ID is set
        // here (and the caller's restored after), so claim/run/seal/fault
        // events land in the request's lane.
        let stop = flightrec::with_trace(traces[i], || {
            flightrec::record(EventKind::Claim, traces[i], i as u64, w.slot as u64);
            loop {
                match serve_once(w, ctx, requests[i].as_ref(), fuel) {
                    Outcome::Report(report) => {
                        out.push((i, Ok(report)));
                        return false;
                    }
                    // Fresh instance after a successful respawn: retry the
                    // same request — serving is deterministic, so the result
                    // is the one the original instance would have produced.
                    Outcome::Lost if !w.health.quarantined => {}
                    // Respawn budget exhausted mid-request: the claim stays
                    // unserved for the stranded retry pass.
                    Outcome::Lost => return true,
                    Outcome::Error(e) => {
                        out.push((i, Err(e)));
                        return false;
                    }
                }
            }
        });
        if stop {
            return out;
        }
        if w.health.quarantined {
            // A contained fault exhausted the budget: the report above is
            // still the request's result, but this slot must stop.
            return out;
        }
    }
}

/// A pool of identically configured, identically loaded enclave workers.
#[derive(Debug)]
pub struct EnclavePool {
    workers: Vec<Worker>,
    /// Verified install images by code hash (sha256 of the binary).
    prepared: HashMap<[u8; 32], PreparedInstall>,
    /// How many times the full consumer pipeline (with verification) ran.
    verifications: usize,
    layout: EnclaveLayout,
    manifest: Manifest,
    owner_key: Option<[u8; 32]>,
    /// Code hash of the image currently installed pool-wide (respawns
    /// reinstall this image from the cache).
    active: Option<[u8; 32]>,
    respawn_budget: usize,
    /// Cap on retained prepared images; the active image is never evicted,
    /// and an evicted image's resident instances go with it.
    prepared_cap: usize,
    /// Monotonic recency stamps backing the LRU eviction order.
    recency: HashMap<[u8; 32], u64>,
    tick: u64,
    /// Hashes that were prepared once but evicted by the cap — kept so
    /// [`EnclavePool::export_sealed_for`] can distinguish "evicted" from
    /// "never installed" instead of failing identically for both.
    evicted: HashSet<[u8; 32]>,
}

impl EnclavePool {
    /// Creates `count` workers over the same layout and manifest.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn new(layout: &EnclaveLayout, manifest: &Manifest, count: usize) -> Self {
        assert!(count > 0, "pool needs at least one worker");
        let workers = (0..count)
            .map(|i| {
                let mut enclave = BootstrapEnclave::new(layout.clone(), manifest.clone());
                // Every slot seals records in its own nonce channel, so
                // workers sharing the owner session key never produce the
                // same (key, nonce) pair even though each counter starts
                // at 0.
                enclave.set_channel(u32::try_from(i).expect("pool size fits u32"));
                Worker {
                    enclave,
                    live: None,
                    residents: HashMap::new(),
                    health: WorkerHealth::default(),
                    slot: i,
                    respawn_left: DEFAULT_RESPAWN_BUDGET,
                    chaos_kill_after: None,
                }
            })
            .collect();
        EnclavePool {
            workers,
            prepared: HashMap::new(),
            verifications: 0,
            layout: layout.clone(),
            manifest: manifest.clone(),
            owner_key: None,
            active: None,
            respawn_budget: DEFAULT_RESPAWN_BUDGET,
            prepared_cap: DEFAULT_PREPARED_CAP,
            recency: HashMap::new(),
            tick: 0,
            evicted: HashSet::new(),
        }
    }

    /// Number of workers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool is empty (never true by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The code hash of the currently active (installed-everywhere)
    /// binary, or `None` before the first successful install. The
    /// admission dispatcher compares this against a tenant's registered
    /// hash to skip redundant [`EnclavePool::install_all`] calls when
    /// consecutive batches belong to the same tenant.
    #[must_use]
    pub fn active_code_hash(&self) -> Option<[u8; 32]> {
        self.active
    }

    /// The manifest every worker enclave in this pool was built with.
    /// Tenant registration validates per-tenant budgets against it.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// How many times a full (verifying) consumer pipeline has run in
    /// this pool — exactly once per unique binary installed, however many
    /// workers there are, and zero for sealed imports.
    #[must_use]
    pub fn verification_count(&self) -> usize {
        self.verifications
    }

    /// A snapshot of every worker slot's health counters, including the
    /// slot's remaining respawn allowance.
    #[must_use]
    pub fn health(&self) -> PoolHealth {
        PoolHealth {
            workers: self
                .workers
                .iter()
                .map(|w| {
                    let mut h = w.health.clone();
                    h.respawn_headroom = w.respawn_left;
                    h
                })
                .collect(),
        }
    }

    /// Sets the per-slot respawn budget (default 8) and refills every
    /// slot's remaining allowance to it.
    pub fn set_respawn_budget(&mut self, budget: usize) {
        self.respawn_budget = budget;
        for w in &mut self.workers {
            w.respawn_left = budget;
        }
    }

    /// Installs the owner session key in every worker, resident instances
    /// included (and in every future respawn).
    pub fn set_owner_session(&mut self, key: [u8; 32]) {
        self.owner_key = Some(key);
        for w in &mut self.workers {
            w.enclave.set_owner_session(key);
            for resident in w.residents.values_mut() {
                resident.set_owner_session(key);
            }
        }
    }

    /// Fault injection: arms worker `worker` to lose its enclave instance
    /// (the `SGX_ERROR_ENCLAVE_LOST` analogue) right before serving its
    /// `runs + 1`-th subsequent request. The pool's quarantine/respawn
    /// machinery then takes over; the interrupted request is retried and
    /// still completes.
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn chaos_kill_after(&mut self, worker: usize, runs: usize) {
        self.workers[worker].chaos_kill_after = Some(runs);
    }

    /// Fault injection: replaces `worker`'s enclave with a fresh instance
    /// built over a *different* layout — hence a different measurement —
    /// as if an operator misdeployed the slot. Used to exercise the
    /// fail-closed replay path of [`EnclavePool::install_all`].
    ///
    /// # Panics
    ///
    /// Panics if `worker` is out of range.
    pub fn chaos_replace_worker(&mut self, worker: usize, layout: &EnclaveLayout) {
        let w = &mut self.workers[worker];
        let mut fresh = fresh_instance(layout, &self.manifest, self.owner_key);
        w.enclave.hand_over_slot(&mut fresh);
        // The whole slot is misdeployed: its residents go too, so every
        // later install on it builds over the wrong layout and fails
        // closed.
        w.enclave = fresh;
        w.live = None;
        w.residents.clear();
    }

    /// Seals the currently active prepared image for untrusted storage
    /// (see [`crate::sealed`]); `None` when nothing is installed.
    #[must_use]
    pub fn export_sealed(&self) -> Option<Vec<u8>> {
        let hash = self.active.as_ref()?;
        let blob = self.prepared.get(hash)?.seal();
        METRICS.pool_sealed_exports.add(1);
        Some(blob)
    }

    /// Seals the prepared image with code hash `hash` for untrusted
    /// storage, whether or not it is the active one.
    ///
    /// # Errors
    ///
    /// Distinguishes the two failure modes an unbounded cache used to
    /// conflate: [`SealedExportError::Evicted`] when the image existed
    /// but was evicted by the cap (reinstalling the binary re-captures
    /// it), [`SealedExportError::NeverInstalled`] when no binary with
    /// this hash was ever installed here.
    pub fn export_sealed_for(&self, hash: &[u8; 32]) -> Result<Vec<u8>, SealedExportError> {
        match self.prepared.get(hash) {
            Some(p) => {
                METRICS.pool_sealed_exports.add(1);
                Ok(p.seal())
            }
            None if self.evicted.contains(hash) => Err(SealedExportError::Evicted),
            None => Err(SealedExportError::NeverInstalled),
        }
    }

    /// Imports a sealed prepared image — e.g. into a freshly restarted
    /// pool — and installs it in every worker with **zero**
    /// re-verifications. Fails closed on any tampering, measurement,
    /// manifest or rebuild mismatch.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::sealed::UnsealError`] (as
    /// [`EcallError::Unseal`]) and replay failures, which quarantine the
    /// affected workers like [`EnclavePool::install_all`].
    pub fn import_sealed(&mut self, blob: &[u8]) -> Result<[u8; 32], EcallError> {
        let prepared = PreparedInstall::unseal(blob, &self.layout, &self.manifest)?;
        METRICS.pool_sealed_imports.add(1);
        let hash = prepared.code_hash();
        self.insert_prepared(hash, prepared);
        self.switch_all(hash)
    }

    /// Installs the same target binary in every worker, verifying once.
    ///
    /// The first install of a binary runs the full pipeline (load +
    /// verify + rewrite) once, on a fresh instance in the first healthy
    /// worker slot, and captures the finished image; every other slot
    /// replays a copy concurrently (quarantined or lost slots are rebuilt
    /// fresh first — a full reinstall re-establishes trust, so it clears
    /// quarantine without consuming the serving-path respawn budget). A
    /// cached image (same code hash) verifies nothing: each slot swaps in
    /// its resident instance of the tenant, state intact, or replays the
    /// image into a fresh one (see [`EnclavePool::activate`]).
    ///
    /// # Errors
    ///
    /// Fails if verification rejects the binary (nothing changes
    /// anywhere) or a replay fails. Replay failure is fail-closed: every
    /// worker that rejected the image is quarantined, the rest hold the
    /// new image uniformly, and the surfaced error is the lowest-index
    /// worker's.
    pub fn install_all(&mut self, binary: &[u8]) -> Result<[u8; 32], EcallError> {
        let hash = sha256(binary);
        if let Some(switched) = self.activate(&hash) {
            return switched;
        }
        // Cache miss: verify once on a fresh instance in the verifying slot
        // (which makes it that slot's live instance), retain the captured
        // image, then switch every other slot to it.
        let tid = TraceId::mint();
        flightrec::with_trace(tid, || {
            METRICS.pool_install_cache_misses.add(1);
            let idx = self.verifying_worker();
            let EnclavePool { workers, prepared, owner_key, .. } = &mut *self;
            let p = workers[idx].install_fresh(
                hash,
                *owner_key,
                |h| prepared.contains_key(h),
                |enclave| enclave.install_capture(binary),
            )?;
            self.verifications += 1;
            self.insert_prepared(hash, p);
            flightrec::record(EventKind::Install, tid, self.workers.len() as u64, 0);
            self.switch_all(hash)
        })
    }

    /// Makes the cached image with code hash `hash` the live one in every
    /// worker — the tenant switch behind [`EnclavePool::install_all`] on a
    /// cached binary, keyed by the hash a caller already holds (the
    /// admission frontend's registered code hash) so it need not rehash
    /// the binary. Each slot swaps in its resident instance of the tenant
    /// with globals, inbox and instruction counters intact, or replays the
    /// image into a fresh instance when it has none; slot-scoped state
    /// (nonce channel and counter, lifetime ledger, audit ring) moves to
    /// the incoming instance before it runs. Returns `None` — changing
    /// nothing — when no image with this hash is cached, in which case the
    /// binary must go through [`EnclavePool::install_all`].
    ///
    /// # Errors
    ///
    /// Inside the `Some`: replay failures, fail-closed exactly as in
    /// [`EnclavePool::install_all`].
    pub fn activate(&mut self, hash: &[u8; 32]) -> Option<Result<[u8; 32], EcallError>> {
        if !self.prepared.contains_key(hash) {
            return None;
        }
        // Installs get their own causal ID so verify phases and per-worker
        // switches group into one lane per install.
        let tid = TraceId::mint();
        Some(flightrec::with_trace(tid, || {
            METRICS.pool_install_cache_hits.add(1);
            self.touch(*hash);
            flightrec::record(EventKind::Install, tid, self.workers.len() as u64, 1);
            self.switch_all(*hash)
        }))
    }

    /// The worker slot a fresh verifying install runs on: the first
    /// healthy one, or slot 0 rebuilt from scratch when every slot is
    /// quarantined (the full pipeline re-establishes trust).
    fn verifying_worker(&mut self) -> usize {
        let idx = self.workers.iter().position(|w| !w.health.quarantined && !w.enclave.is_lost());
        match idx {
            Some(idx) => idx,
            None => {
                self.rebuild_fresh(0);
                0
            }
        }
    }

    /// Number of prepared images currently retained (bounded by
    /// [`EnclavePool::set_prepared_cap`]).
    #[must_use]
    pub fn prepared_cache_len(&self) -> usize {
        self.prepared.len()
    }

    /// Sets the cap on retained prepared images (default
    /// [`DEFAULT_PREPARED_CAP`]) and evicts immediately down to it,
    /// least-recently-installed first. The active image — the one
    /// respawns and sealed exports replay from — is never evicted. Every
    /// resident instance belongs to a retained image, so the cap also
    /// bounds each slot's resident table.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero: the pool must always be able to retain
    /// the image it is serving from.
    pub fn set_prepared_cap(&mut self, cap: usize) {
        assert!(cap > 0, "prepared cache cap must be at least 1");
        self.prepared_cap = cap;
        self.evict_to_cap();
    }

    /// Stamps `hash` most-recently-used.
    fn touch(&mut self, hash: [u8; 32]) {
        self.tick += 1;
        self.recency.insert(hash, self.tick);
    }

    /// Retains `(hash, image)` in the prepared cache, clearing any
    /// eviction tombstone. Trimming happens in `switch_all`, after
    /// the new image became active, so the cap can never evict the image
    /// being installed.
    fn insert_prepared(&mut self, hash: [u8; 32], p: PreparedInstall) {
        self.evicted.remove(&hash);
        self.touch(hash);
        self.prepared.insert(hash, p);
    }

    /// Evicts least-recently-used prepared images until the cap holds,
    /// skipping the active image. An evicted image's resident instances
    /// are dropped on every slot. Each eviction leaves a tombstone in
    /// `evicted` and bumps the eviction counter.
    fn evict_to_cap(&mut self) {
        while self.prepared.len() > self.prepared_cap {
            let victim = self
                .prepared
                .keys()
                .filter(|h| Some(**h) != self.active)
                .min_by_key(|h| self.recency.get(*h).copied().unwrap_or(0))
                .copied();
            let Some(victim) = victim else { break };
            self.prepared.remove(&victim);
            for w in &mut self.workers {
                w.residents.remove(&victim);
            }
            self.recency.remove(&victim);
            self.evicted.insert(victim);
            METRICS.pool_prepared_evictions.add(1);
        }
    }

    /// Rebuilds a worker slot's live instance with a brand-new enclave
    /// (pool layout and manifest) that takes over the slot's state,
    /// clearing quarantine. Used by the reinstall path; does not consume
    /// the serving-path respawn budget — the slot's allowance refills,
    /// since the subsequent full reinstall re-establishes trust.
    fn rebuild_fresh(&mut self, idx: usize) {
        let w = &mut self.workers[idx];
        let mut fresh = fresh_instance(&self.layout, &self.manifest, self.owner_key);
        w.enclave.hand_over_slot(&mut fresh);
        w.enclave = fresh;
        w.live = None;
        w.health.respawned += 1;
        w.health.quarantined = false;
        w.respawn_left = self.respawn_budget;
    }

    /// Makes the cached image `hash` live in every worker, rebuilding
    /// quarantined or lost slots first. Slots that hold the image as a
    /// resident swap it in; the others replay it, concurrently when more
    /// than one must. Fail-closed on replay errors: failing workers are
    /// quarantined, the rest hold the image uniformly, and the
    /// lowest-index worker's error is returned.
    fn switch_all(&mut self, hash: [u8; 32]) -> Result<[u8; 32], EcallError> {
        let rebuild: Vec<usize> = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.health.quarantined || w.enclave.is_lost())
            .map(|(i, _)| i)
            .collect();
        for i in rebuild {
            self.rebuild_fresh(i);
        }
        // Replays past slot 0 run on scope-spawned threads, which do not
        // inherit the install's ambient trace; capture it here and
        // attribute each switch explicitly.
        let tid = flightrec::ambient();
        let EnclavePool { workers, prepared: cache, owner_key, .. } = &mut *self;
        let cache = &*cache;
        let prepared = cache.get(&hash).expect("switched-to image is cached");
        let owner_key = *owner_key;
        let switch = |w: &mut Worker| {
            flightrec::record(EventKind::InstallReplay, tid, w.slot as u64, 0);
            w.switch_to(prepared, owner_key, |h| cache.contains_key(h))
        };
        let outcomes: Vec<Result<(), EcallError>> =
            if workers.iter().filter(|w| w.needs_replay(&hash)).count() > 1 {
                fan_out(workers.iter_mut(), switch)
            } else {
                workers.iter_mut().map(switch).collect()
            };
        // Even on partial failure every *usable* worker now holds this
        // image, so it becomes the active one respawns reinstall. Only
        // now is it safe to trim the cache: the just-inserted image is
        // active and therefore exempt from eviction.
        self.active = Some(hash);
        self.evict_to_cap();
        let mut first_err = None;
        for (w, outcome) in self.workers.iter_mut().zip(outcomes) {
            if let Err(e) = outcome {
                if !w.health.quarantined {
                    METRICS.pool_quarantines.add(1);
                    flightrec::record(EventKind::Quarantine, tid, w.slot as u64, 0);
                }
                w.health.quarantined = true;
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(hash),
        }
    }

    /// Serves one request on a specific worker, transparently respawning
    /// it when it is quarantined or loses its instance mid-request.
    ///
    /// # Errors
    ///
    /// Propagates ECall errors (no binary installed), or
    /// [`EcallError::WorkerQuarantined`] when the slot's respawn budget is
    /// exhausted.
    pub fn serve_on(
        &mut self,
        worker: usize,
        input: &[u8],
        fuel: u64,
    ) -> Result<RunReport, EcallError> {
        let idx = worker % self.workers.len();
        let ctx = RespawnCtx {
            layout: &self.layout,
            manifest: &self.manifest,
            owner_key: self.owner_key,
            prepared: self.active.as_ref().and_then(|h| self.prepared.get(h)),
        };
        let w = &mut self.workers[idx];
        if w.health.quarantined && !respawn_worker(w, &ctx) {
            return Err(EcallError::WorkerQuarantined);
        }
        loop {
            match serve_once(w, &ctx, input, fuel) {
                Outcome::Report(report) => return Ok(report),
                Outcome::Lost if !w.health.quarantined => {}
                Outcome::Lost => return Err(EcallError::WorkerQuarantined),
                Outcome::Error(e) => return Err(e),
            }
        }
    }

    /// Serves a batch of requests across the pool with real OS-thread
    /// parallelism and work stealing: each worker thread claims the next
    /// unserved request index from a shared counter, so a skewed batch
    /// keeps every healthy worker busy. Workers that fault or lose their
    /// instance are quarantined and respawned from the prepared cache;
    /// requests stranded on a dead slot are retried serially, in index
    /// order, on the remaining healthy workers (each tried once, in
    /// worker order — deterministic).
    ///
    /// # Errors
    ///
    /// If any request fails, returns the error of the *lowest request
    /// index* that failed — independent of worker count and thread
    /// timing — after all threads join.
    pub fn serve_parallel<T: AsRef<[u8]> + Sync>(
        &mut self,
        requests: &[T],
        fuel: u64,
    ) -> Result<Vec<RunReport>, EcallError> {
        // One causal ID per request, minted at batch entry — every later
        // event for request `i` (claim, run, seal, fault, retry) is
        // attributed to `traces[i]` regardless of which worker thread
        // serves it.
        let traces: Vec<TraceId> = (0..requests.len()).map(|_| TraceId::mint()).collect();
        for (i, &t) in traces.iter().enumerate() {
            flightrec::record(EventKind::Enqueue, t, i as u64, requests.len() as u64);
        }
        // Collecting per-request verdicts short-circuits at the first
        // `Err` in request order — exactly the lowest-request-index rule.
        self.serve_parallel_each_traced(requests, &traces, fuel).into_iter().collect()
    }

    /// Serves a batch like [`EnclavePool::serve_parallel`] but with
    /// caller-minted trace IDs and **per-request** verdicts instead of a
    /// batch-level first-error collapse.
    ///
    /// This is the admission frontend's entry point: the dispatcher mints
    /// each request's [`TraceId`] at *enqueue* (so queueing delay shows up
    /// as its own lane segment in the flight recorder) and needs every
    /// request's individual outcome to deliver to the waiting client —
    /// one tenant's verifier-rejected binary must not eat its
    /// batch-mates' reports. `traces.len()` must equal `requests.len()`.
    ///
    /// This is the work-stealing batch engine itself: worker slots claim
    /// request indices from a shared counter — slot 0 on the calling
    /// thread, the others on scope-spawned threads — stranded
    /// requests are retried serially in index order, and the per-request
    /// outcomes are returned in request order. `serve_parallel` is a thin
    /// wrapper that mints traces and collapses this vector with the
    /// lowest-request-index error rule.
    pub fn serve_parallel_each_traced<T: AsRef<[u8]> + Sync>(
        &mut self,
        requests: &[T],
        traces: &[TraceId],
        fuel: u64,
    ) -> Vec<Result<RunReport, EcallError>> {
        assert_eq!(requests.len(), traces.len(), "one trace per request");
        if requests.is_empty() {
            return Vec::new();
        }
        let _batch_span = Span::start(&METRICS.pool_serve_batch_ns);
        let ctx = RespawnCtx {
            layout: &self.layout,
            manifest: &self.manifest,
            owner_key: self.owner_key,
            prepared: self.active.as_ref().and_then(|h| self.prepared.get(h)),
        };
        let next = AtomicUsize::new(0);
        let mut slots = fan_out(self.workers.iter_mut(), |w| {
            drain_queue(w, &ctx, &next, requests, traces, fuel)
        });

        // Stranded retry pass: requests claimed by a slot that died with
        // an exhausted budget (or never claimed because every thread
        // stopped early) are served here, serially and in index order.
        let mut has_result = vec![false; requests.len()];
        for batch in &slots {
            for &(i, _) in batch {
                has_result[i] = true;
            }
        }
        let stranded: Vec<usize> = (0..requests.len()).filter(|&i| !has_result[i]).collect();
        if !stranded.is_empty() {
            METRICS.pool_stranded_retries.add(stranded.len() as u64);
            let mut retried = Vec::with_capacity(stranded.len());
            for i in stranded {
                let entry = flightrec::with_trace(traces[i], || {
                    flightrec::record(EventKind::StrandedRetry, traces[i], i as u64, 0);
                    let mut entry = Err(EcallError::WorkerQuarantined);
                    for w in &mut self.workers {
                        if w.health.quarantined && !respawn_worker(w, &ctx) {
                            continue;
                        }
                        match serve_once(w, &ctx, requests[i].as_ref(), fuel) {
                            Outcome::Report(report) => {
                                entry = Ok(report);
                                break;
                            }
                            Outcome::Lost => {}
                            Outcome::Error(e) => {
                                entry = Err(e);
                                break;
                            }
                        }
                    }
                    entry
                });
                retried.push((i, entry));
            }
            slots.push(retried);
        }
        // Flatten per-worker batches into request order. Every index has
        // exactly one outcome: the stranded pass above filled any gap.
        let mut by_request: Vec<Option<Result<RunReport, EcallError>>> =
            (0..requests.len()).map(|_| None).collect();
        for batch in slots {
            for (i, result) in batch {
                by_request[i] = Some(result);
            }
        }
        by_request.into_iter().map(|r| r.expect("every request served")).collect()
    }

    /// The pre-work-stealing scheduler: request `i` runs on worker
    /// `i % len`, requests mapped to the same worker run serially on its
    /// thread. Kept as the ablation baseline for
    /// [`EnclavePool::serve_parallel`]; performs no quarantine or respawn
    /// handling, so it assumes a healthy pool. Health counters follow the
    /// same accounting as the work-stealing path: every completed run
    /// (including a contained-fault report) counts as served, and fault
    /// reports increment `faulted`.
    ///
    /// # Errors
    ///
    /// Same lowest-request-index error rule as
    /// [`EnclavePool::serve_parallel`].
    pub fn serve_parallel_round_robin<T: AsRef<[u8]> + Sync>(
        &mut self,
        requests: &[T],
        fuel: u64,
    ) -> Result<Vec<RunReport>, EcallError> {
        let worker_count = self.workers.len();
        METRICS.pool_round_robin_assignments.add(requests.len() as u64);
        let traces: Vec<TraceId> = (0..requests.len()).map(|_| TraceId::mint()).collect();
        for (i, &t) in traces.iter().enumerate() {
            flightrec::record(EventKind::Enqueue, t, i as u64, requests.len() as u64);
        }
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); worker_count];
        for i in 0..requests.len() {
            assignments[i % worker_count].push(i);
        }
        let slots = fan_out(self.workers.iter_mut().zip(&assignments), |(w, idxs)| {
            let mut out = Vec::with_capacity(idxs.len());
            for &i in idxs {
                let result = flightrec::with_trace(traces[i], || {
                    flightrec::record(EventKind::Claim, traces[i], i as u64, w.slot as u64);
                    let r = w
                        .enclave
                        .provide_input(requests[i].as_ref())
                        .and_then(|()| w.enclave.run(fuel));
                    if let Ok(report) = &r {
                        crate::flight::record_run_report(report);
                    }
                    r
                });
                // Same accounting as `serve_once`: a completed run is
                // served, a contained-fault report also counts as faulted
                // — keeping PoolHealth comparable between the two
                // schedulers in the ablation.
                if let Ok(report) = &result {
                    w.health.served += 1;
                    if matches!(report.exit, RunExit::Fault(_)) {
                        w.health.faulted += 1;
                    }
                }
                out.push((i, result));
            }
            out
        });
        merge_results(requests.len(), slots)
    }
}

/// Runs `f` once per item and returns the results in item order: the
/// first item on the calling thread, each later one on its own
/// scope-spawned thread. A one-worker pool thus serves with no thread
/// created, and an N-worker pool with N − 1.
fn fan_out<I: Send, R: Send>(
    items: impl IntoIterator<Item = I>,
    f: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return Vec::new() };
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        out.extend(handles.into_iter().map(|h| h.join().expect("pool thread must not panic")));
        out
    })
}

/// Flattens per-worker result batches into request order. On failure the
/// returned error is the one at the lowest request index — a pure
/// function of the per-request outcomes, not of which worker thread
/// finished (or was collected) first.
fn merge_results(
    request_count: usize,
    slots: Vec<Vec<(usize, Result<RunReport, EcallError>)>>,
) -> Result<Vec<RunReport>, EcallError> {
    let mut by_request: Vec<Option<Result<RunReport, EcallError>>> =
        (0..request_count).map(|_| None).collect();
    for batch in slots {
        for (i, result) in batch {
            by_request[i] = Some(result);
        }
    }
    let mut reports = Vec::with_capacity(request_count);
    for r in by_request {
        reports.push(r.expect("every request served")?);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySet;
    use crate::producer::produce;
    use deflection_sgx_sim::layout::MemConfig;
    use deflection_sgx_sim::vm::{ExecStats, RunExit};

    const ECHO_SUM: &str = "
        fn main() -> int {
            var n: int = input_len();
            var s: int = 0;
            var i: int = 0;
            while (i < n) { s = s + input_byte(i); i = i + 1; }
            return s;
        }
    ";

    fn pool(workers: usize) -> EnclavePool {
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::full();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, workers);
        let binary = produce(ECHO_SUM, &manifest.policy).unwrap().serialize();
        pool.set_owner_session([1; 32]);
        pool.install_all(&binary).unwrap();
        pool
    }

    #[test]
    fn parallel_results_match_serial() {
        let requests: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i, i + 1, i + 2]).collect();
        let mut parallel_pool = pool(4);
        let parallel = parallel_pool.serve_parallel(&requests, 10_000_000).unwrap();
        let mut serial_pool = pool(1);
        for (req, report) in requests.iter().zip(&parallel) {
            let expected: u64 = req.iter().map(|&b| b as u64).sum();
            assert_eq!(report.exit, RunExit::Halted { exit: expected });
            let serial = serial_pool.serve_on(0, req, 10_000_000).unwrap();
            assert_eq!(serial.exit, report.exit);
        }
    }

    #[test]
    fn round_robin_baseline_matches_work_stealing() {
        let requests: Vec<Vec<u8>> = (0..12u8).map(|i| vec![i, i + 3]).collect();
        let a = pool(3).serve_parallel(&requests, 10_000_000).unwrap();
        let b = pool(3).serve_parallel_round_robin(&requests, 10_000_000).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.exit, y.exit);
        }
    }

    #[test]
    fn serve_parallel_accepts_any_byte_slices() {
        let mut p = pool(2);
        let requests: [&[u8]; 3] = [b"\x01", b"\x02\x03", b"\x04"];
        let reports = p.serve_parallel(&requests, 10_000_000).unwrap();
        let exits: Vec<_> = reports.iter().map(|r| r.exit.exit_value()).collect();
        assert_eq!(exits, vec![Some(1), Some(5), Some(4)]);
    }

    #[test]
    fn workers_are_isolated() {
        // A counter global must not bleed between workers.
        let src = "
            var hits: int;
            fn main() -> int { hits = hits + 1; return hits; }
        ";
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::p1();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, 3);
        let binary = produce(src, &manifest.policy).unwrap().serialize();
        pool.install_all(&binary).unwrap();
        // Worker 0 runs twice; workers 1 and 2 once each.
        assert_eq!(pool.serve_on(0, b"", 1_000_000).unwrap().exit.exit_value(), Some(1));
        assert_eq!(pool.serve_on(0, b"", 1_000_000).unwrap().exit.exit_value(), Some(2));
        assert_eq!(pool.serve_on(1, b"", 1_000_000).unwrap().exit.exit_value(), Some(1));
        assert_eq!(pool.serve_on(2, b"", 1_000_000).unwrap().exit.exit_value(), Some(1));
    }

    #[test]
    fn install_all_verifies_once_per_unique_hash() {
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::full();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, 8);
        let echo = produce(ECHO_SUM, &manifest.policy).unwrap().serialize();
        pool.install_all(&echo).unwrap();
        assert_eq!(pool.verification_count(), 1, "8 workers, 1 verification");
        // Reinstalling the identical binary hits the cache: zero more.
        pool.install_all(&echo).unwrap();
        assert_eq!(pool.verification_count(), 1);
        // A different binary verifies exactly once more.
        let other =
            produce("fn main() -> int { return 7; }", &manifest.policy).unwrap().serialize();
        pool.install_all(&other).unwrap();
        assert_eq!(pool.verification_count(), 2);
        // Every worker serves from the replayed image.
        for w in 0..8 {
            assert_eq!(pool.serve_on(w, b"", 1_000_000).unwrap().exit.exit_value(), Some(7));
        }
    }

    #[test]
    fn replayed_workers_match_independent_installs() {
        let requests: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i, 2 * i]).collect();
        let mut cached = pool(4);
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::full();
        let layout = EnclaveLayout::new(MemConfig::small());
        let binary = produce(ECHO_SUM, &manifest.policy).unwrap().serialize();
        let replayed = cached.serve_parallel(&requests, 10_000_000).unwrap();
        assert_eq!(cached.verification_count(), 1);
        // Oracle: every request on its own enclave that ran the whole
        // pipeline itself.
        for (request, report) in requests.iter().zip(&replayed) {
            let mut own = BootstrapEnclave::new(layout.clone(), manifest.clone());
            own.install_plain(&binary).unwrap();
            own.provide_input(request).unwrap();
            assert_eq!(own.run(10_000_000).unwrap().exit, report.exit);
        }
    }

    #[test]
    fn workers_seal_records_in_disjoint_nonce_channels() {
        use crate::runtime::open_record;
        // Two workers share the owner key and both seal their first record
        // (counter 0) over identical plaintext — exactly the (key, nonce)
        // collision the per-slot channel id exists to prevent.
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::p1();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, 2);
        let owner_key = [1u8; 32];
        pool.set_owner_session(owner_key);
        let binary =
            produce("fn main() -> int { return send(4); }", &manifest.policy).unwrap().serialize();
        pool.install_all(&binary).unwrap();
        let r0 = pool.serve_on(0, b"", 1_000_000).unwrap();
        let r1 = pool.serve_on(1, b"", 1_000_000).unwrap();
        assert_ne!(r0.records[0], r1.records[0], "same plaintext must not repeat a nonce");
        let p0 = open_record(&owner_key, 0, 0, &r0.records[0]).unwrap();
        let p1 = open_record(&owner_key, 1, 0, &r1.records[0]).unwrap();
        assert_eq!(p0, p1, "the plaintexts really were identical");
        // Records authenticate only in their own channel.
        assert!(open_record(&owner_key, 0, 0, &r1.records[0]).is_err());
        assert!(open_record(&owner_key, 1, 0, &r0.records[0]).is_err());
    }

    #[test]
    fn respawned_worker_keeps_its_nonce_channel() {
        use crate::runtime::open_record;
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::p1();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, 2);
        let owner_key = [1u8; 32];
        pool.set_owner_session(owner_key);
        let binary =
            produce("fn main() -> int { return send(4); }", &manifest.policy).unwrap().serialize();
        pool.install_all(&binary).unwrap();
        pool.chaos_kill_after(1, 0);
        // The kill fires, the slot respawns, and the retried request seals
        // in the slot's channel (1) at the inherited counter (0).
        let first = pool.serve_on(1, b"", 1_000_000).unwrap();
        assert_eq!(pool.health().workers[1].respawned, 1);
        assert!(open_record(&owner_key, 1, 0, &first.records[0]).is_ok());
        let second = pool.serve_on(1, b"", 1_000_000).unwrap();
        assert!(open_record(&owner_key, 1, 1, &second.records[0]).is_ok());
    }

    #[test]
    fn round_robin_health_accounting_matches_work_stealing() {
        // A batch where every request hits a contained fault: both
        // schedulers must report identical pool-wide served/faulted
        // totals (the respawn counters legitimately differ — the baseline
        // performs no quarantine handling).
        let src = "fn main() -> int { return send(1); }";
        let manifest = {
            let mut m = Manifest::ccaas();
            m.policy = PolicySet::p1();
            m
        };
        let layout = EnclaveLayout::new(MemConfig::small());
        let binary = produce(src, &manifest.policy).unwrap().serialize();
        let requests: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i]).collect();
        // No owner session: every send faults, contained.
        let mut stealing = EnclavePool::new(&layout, &manifest, 2);
        stealing.install_all(&binary).unwrap();
        stealing.serve_parallel(&requests, 1_000_000).unwrap();
        let mut round_robin = EnclavePool::new(&layout, &manifest, 2);
        round_robin.install_all(&binary).unwrap();
        round_robin.serve_parallel_round_robin(&requests, 1_000_000).unwrap();
        let a = stealing.health();
        let b = round_robin.health();
        assert_eq!(a.total_served(), b.total_served());
        assert_eq!(a.total_faulted(), b.total_faulted());
        assert_eq!(b.total_served(), requests.len());
        assert_eq!(b.total_faulted(), requests.len());
        // The derived aggregates agree too: every request faulted.
        assert_eq!(a.fault_rate(), 1.0);
        assert_eq!(b.fault_rate(), 1.0);
    }

    #[test]
    fn health_aggregates_derive_from_worker_counters() {
        let mut p = pool(2);
        let fresh = p.health();
        assert_eq!(fresh.fault_rate(), 0.0, "nothing served yet");
        assert_eq!(fresh.min_respawn_headroom(), Some(DEFAULT_RESPAWN_BUDGET));
        // One kill on worker 1: its headroom drops below worker 0's.
        p.chaos_kill_after(1, 0);
        p.serve_on(1, b"\x01", 1_000_000).unwrap();
        let h = p.health();
        assert_eq!(h.workers[1].respawn_headroom, DEFAULT_RESPAWN_BUDGET - 1);
        assert_eq!(h.workers[0].respawn_headroom, DEFAULT_RESPAWN_BUDGET);
        assert_eq!(h.min_respawn_headroom(), Some(DEFAULT_RESPAWN_BUDGET - 1));
        assert_eq!(h.workers[1].fault_rate(), 1.0, "one served, one lost-instance fault");
        assert!(h.fault_rate() > 0.0 && h.fault_rate() <= 1.0);
        // Quarantined slots drop out of the headroom aggregate.
        let mut q = pool(1);
        q.set_respawn_budget(0);
        q.chaos_kill_after(0, 0);
        let _ = q.serve_on(0, b"\x01", 1_000_000);
        assert_eq!(q.health().min_respawn_headroom(), None);
    }

    #[test]
    fn merge_reports_lowest_request_index_error() {
        let ok = || -> Result<RunReport, EcallError> {
            Ok(RunReport {
                exit: RunExit::Halted { exit: 0 },
                stats: ExecStats::default(),
                records: Vec::new(),
                untrusted_writes: 0,
                blur_padding: 0,
            })
        };
        // Worker batches arrive in an order that puts a *higher*-index
        // error first; the merge must still surface request 1's error.
        let slots = vec![
            vec![(0, ok()), (2, Err(EcallError::NoRoomForIo))],
            vec![(1, Err(EcallError::NotInstalled)), (3, ok())],
        ];
        let err = merge_results(4, slots).unwrap_err();
        assert_eq!(err, EcallError::NotInstalled);
    }

    #[test]
    fn round_robin_wraps() {
        let mut p = pool(2);
        // Worker index 5 lands on worker 1.
        let r = p.serve_on(5, b"\x01", 1_000_000).unwrap();
        assert_eq!(r.exit.exit_value(), Some(1));
    }

    #[test]
    fn killed_worker_respawns_and_serving_continues() {
        let mut p = pool(2);
        p.chaos_kill_after(1, 0); // worker 1 dies on its next request
        for i in 0..6u8 {
            let r = p.serve_on(usize::from(i % 2), &[i], 1_000_000).unwrap();
            assert_eq!(r.exit.exit_value(), Some(u64::from(i)));
        }
        let health = p.health();
        assert_eq!(health.workers[1].respawned, 1);
        assert_eq!(health.workers[1].faulted, 1);
        assert_eq!(health.quarantined(), 0);
        // Zero re-verifications: the respawn reinstalled from the cache.
        assert_eq!(p.verification_count(), 1);
    }

    #[test]
    fn exhausted_budget_quarantines_worker() {
        let mut p = pool(1);
        p.set_respawn_budget(0);
        p.chaos_kill_after(0, 0);
        assert_eq!(p.serve_on(0, b"\x01", 1_000_000).unwrap_err(), EcallError::WorkerQuarantined);
        assert_eq!(p.serve_on(0, b"\x01", 1_000_000).unwrap_err(), EcallError::WorkerQuarantined);
        assert_eq!(p.health().quarantined(), 1);
        // A full reinstall re-establishes the slot.
        let binary = produce(ECHO_SUM, &PolicySet::full()).unwrap().serialize();
        p.install_all(&binary).unwrap();
        assert_eq!(p.health().quarantined(), 0);
        assert_eq!(p.serve_on(0, b"\x01", 1_000_000).unwrap().exit.exit_value(), Some(1));
    }

    #[test]
    fn churn_preserves_nonce_channels_and_audit_seqs() {
        use crate::audit::open_audit_export;
        use crate::runtime::open_record;
        // Churn shape: install A, serve, swap to B, serve, lose a worker
        // mid-way. The per-slot nonce channels must stay monotonic across
        // the image swap (a reset would repeat a (key, nonce) pair) and the
        // audit sequence counters must never regress (a regression would
        // let the host replay an old export).
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::p1();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, 2);
        let owner_key = [7u8; 32];
        pool.set_owner_session(owner_key);
        let a =
            produce("fn main() -> int { return send(4); }", &manifest.policy).unwrap().serialize();
        let b =
            produce("fn main() -> int { return send(9); }", &manifest.policy).unwrap().serialize();
        pool.install_all(&a).unwrap();
        let r = pool.serve_on(1, b"", 1_000_000).unwrap();
        assert!(open_record(&owner_key, 1, 0, &r.records[0]).is_ok());
        let seqs_after_a: Vec<u64> =
            pool.workers.iter().map(|w| w.enclave.audit_next_seq()).collect();
        // Image swap: B is a cache miss, so it verifies on a fresh instance.
        pool.install_all(&b).unwrap();
        let seqs_after_b: Vec<u64> =
            pool.workers.iter().map(|w| w.enclave.audit_next_seq()).collect();
        for (before, after) in seqs_after_a.iter().zip(&seqs_after_b) {
            assert!(after > before, "install must advance, never regress, the audit seq");
        }
        // The swapped-in program serves and its record continues the
        // slot's counter — the swap did not reset the nonce channel.
        let r = pool.serve_on(1, b"", 1_000_000).unwrap();
        assert!(open_record(&owner_key, 1, 1, &r.records[0]).is_ok());
        assert!(open_record(&owner_key, 1, 0, &r.records[0]).is_err(), "not counter 0 again");
        // Kill worker 1 mid-way: the respawn replays image B and inherits
        // both counters.
        pool.chaos_kill_after(1, 0);
        let r = pool.serve_on(1, b"", 1_000_000).unwrap();
        assert_eq!(pool.health().workers[1].respawned, 1);
        assert!(open_record(&owner_key, 1, 2, &r.records[0]).is_ok());
        // The owner's export of slot 1 reads as one log across the
        // respawn: every event from 0 on, each sequence number once.
        let w = &mut pool.workers[1];
        let counter = w.enclave.send_nonce();
        let sealed = w.enclave.ecall_export_audit().unwrap();
        let log = open_audit_export(&owner_key, 1, counter, &sealed).unwrap();
        assert_eq!(log.dropped(), 0);
        assert!(log.next_seq > seqs_after_b[1], "the respawn's install is logged");
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..log.next_seq).collect::<Vec<_>>(), "contiguous, no reuse");
        // Both prepared images are retained (cap 64 untouched), and each
        // was verified exactly once.
        assert_eq!(pool.prepared_cache_len(), 2);
        assert_eq!(pool.verification_count(), 2);
    }

    /// A 1-worker pool over `manifest` with `sources` installed in order
    /// (each verified once); returns the pool and the binaries.
    fn tenants_pool(manifest: &Manifest, sources: &[&str]) -> (EnclavePool, Vec<Vec<u8>>) {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, manifest, 1);
        pool.set_owner_session([3; 32]);
        let binaries: Vec<Vec<u8>> =
            sources.iter().map(|s| produce(s, &manifest.policy).unwrap().serialize()).collect();
        for b in &binaries {
            pool.install_all(b).unwrap();
        }
        (pool, binaries)
    }

    const COUNTER_A: &str = "var hits: int; fn main() -> int { hits = hits + 1; return hits; }";
    const COUNTER_B: &str = "var hits: int; fn main() -> int { hits = hits + 100; return hits; }";

    #[test]
    fn switching_back_resumes_the_resident_instance() {
        let manifest = Manifest::ccaas();
        let (mut pool, bins) = tenants_pool(&manifest, &[COUNTER_A, COUNTER_B]);
        let hash_a = sha256(&bins[0]);
        let exit = |pool: &mut EnclavePool| pool.serve_on(0, b"", 1_000_000).unwrap().exit;
        assert_eq!(exit(&mut pool).exit_value(), Some(100), "B is live after set-up");
        for round in 1..=3u64 {
            assert_eq!(pool.activate(&hash_a), Some(Ok(hash_a)));
            assert_eq!(pool.active_code_hash(), Some(hash_a));
            assert_eq!(exit(&mut pool).exit_value(), Some(round), "A's globals persist");
            pool.install_all(&bins[1]).unwrap();
            assert_eq!(exit(&mut pool).exit_value(), Some(100 * (round + 1)));
        }
        assert_eq!(pool.verification_count(), 2, "switches never re-verify");
        // An image the pool never saw cannot be activated by hash.
        assert_eq!(pool.activate(&[0xEE; 32]), None);
    }

    #[test]
    fn evicting_an_image_drops_its_resident_instances() {
        let manifest = Manifest::ccaas();
        let third = "var hits: int; fn main() -> int { hits = hits + 7; return hits; }";
        let (mut pool, bins) = tenants_pool(&manifest, &[COUNTER_A, COUNTER_B]);
        pool.install_all(&bins[0]).unwrap();
        assert_eq!(pool.serve_on(0, b"", 1_000_000).unwrap().exit.exit_value(), Some(1));
        assert_eq!(pool.workers[0].residents.len(), 1, "B is parked");
        // Cap 2 and a third tenant: B is least recently used and goes,
        // taking its resident with it; A stays resident.
        pool.set_prepared_cap(2);
        pool.install_all(&produce(third, &manifest.policy).unwrap().serialize()).unwrap();
        assert_eq!(pool.prepared_cache_len(), 2);
        assert!(!pool.workers[0].residents.contains_key(&sha256(&bins[1])));
        assert!(pool.workers[0].residents.contains_key(&sha256(&bins[0])));
        // A switch back to A resumes its state; B comes back fresh (and
        // verified again).
        pool.install_all(&bins[0]).unwrap();
        assert_eq!(pool.serve_on(0, b"", 1_000_000).unwrap().exit.exit_value(), Some(2));
        pool.install_all(&bins[1]).unwrap();
        assert_eq!(pool.serve_on(0, b"", 1_000_000).unwrap().exit.exit_value(), Some(100));
        assert_eq!(pool.verification_count(), 4);
    }

    #[test]
    fn swap_back_never_repeats_a_channel_counter_pair() {
        use crate::runtime::open_record;
        // Both tenants seal records under the slot's owner key; A -> B -> A
        // must keep one monotonic counter per slot channel.
        let manifest = Manifest::ccaas();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, 2);
        let key = [9u8; 32];
        pool.set_owner_session(key);
        let a = produce("fn main() -> int { return send(4); }", &manifest.policy).unwrap();
        let b = produce("fn main() -> int { send(2); return send(3); }", &manifest.policy).unwrap();
        let mut seen = HashSet::new();
        for binary in [&a, &b, &a, &b, &a] {
            pool.install_all(&binary.serialize()).unwrap();
            for slot in 0..2usize {
                let channel = slot as u32;
                let base = pool.workers[slot].enclave.send_nonce();
                let report = pool.serve_on(slot, b"", 1_000_000).unwrap();
                assert!(!report.records.is_empty());
                for (k, record) in report.records.iter().enumerate() {
                    let counter = base + k as u64;
                    assert!(open_record(&key, channel, counter, record).is_ok());
                    assert!(seen.insert((channel, counter)), "({channel}, {counter}) repeated");
                }
            }
        }
        assert_eq!(pool.workers[0].enclave.send_nonce(), 7, "1 + 2 + 1 + 2 + 1 records");
    }

    #[test]
    fn guard_trip_survives_more_switches_than_the_audit_ring_holds() {
        use crate::attack::{corpus, Expected};
        use crate::audit::{open_audit_export, AuditKind, AUDIT_CAPACITY};
        let manifest = Manifest::ccaas();
        let (mut pool, bins) = tenants_pool(&manifest, &[ECHO_SUM]);
        let tripping = corpus()
            .into_iter()
            .find(|a| matches!(a.expected, Expected::RuntimeAbort(_)))
            .unwrap()
            .binary
            .serialize();
        pool.install_all(&tripping).unwrap();
        let trip = pool.serve_on(0, b"", 1_000_000).unwrap();
        assert!(matches!(trip.exit, RunExit::PolicyAbort { .. }), "{:?}", trip.exit);
        for _ in 0..=AUDIT_CAPACITY {
            pool.install_all(&bins[0]).unwrap();
            assert_eq!(pool.serve_on(0, &[2, 3], 1_000_000).unwrap().exit.exit_value(), Some(5));
            pool.install_all(&tripping).unwrap();
        }
        let w = &mut pool.workers[0];
        let counter = w.enclave.send_nonce();
        let sealed = w.enclave.ecall_export_audit().unwrap();
        let log = open_audit_export(&[3; 32], 0, counter, &sealed).unwrap();
        assert!(
            log.events.iter().any(|e| e.kind == AuditKind::GuardTrip),
            "the trip was evicted: {:?}",
            log.events
        );
        assert_eq!(log.dropped(), 0, "switches add no audit events");
    }

    #[test]
    fn prepared_images_store_only_their_nonzero_pages() {
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::full();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut enclave = BootstrapEnclave::new(layout.clone(), manifest.clone());
        let binary = produce(ECHO_SUM, &manifest.policy).unwrap().serialize();
        let prepared = enclave.install_capture(&binary).unwrap();
        let total = (layout.elrange.len() / deflection_sgx_sim::layout::PAGE_SIZE) as usize;
        assert!(prepared.mem.enclave_pages() <= 8, "{} of {total}", prepared.mem.enclave_pages());
        assert_eq!(prepared.mem.untrusted_pages(), 0);
    }

    #[test]
    fn prepared_cache_is_bounded_and_never_evicts_active() {
        let mut manifest = Manifest::ccaas();
        manifest.policy = PolicySet::p1();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, 1);
        pool.set_prepared_cap(2);
        let binaries: Vec<Vec<u8>> = (0..5u64)
            .map(|i| {
                produce(&format!("fn main() -> int {{ return {i}; }}"), &manifest.policy)
                    .unwrap()
                    .serialize()
            })
            .collect();
        let hashes: Vec<[u8; 32]> = binaries
            .iter()
            .map(|b| {
                let h = pool.install_all(b).unwrap();
                assert!(pool.prepared_cache_len() <= 2, "cap enforced after every install");
                h
            })
            .collect();
        // The two most recent installs survive; older ones are tombstoned
        // as evicted, distinguishable from a hash never seen here.
        assert!(pool.export_sealed_for(&hashes[4]).is_ok());
        assert!(pool.export_sealed_for(&hashes[3]).is_ok());
        assert_eq!(pool.export_sealed_for(&hashes[0]), Err(SealedExportError::Evicted));
        assert_eq!(pool.export_sealed_for(&[0xAB; 32]), Err(SealedExportError::NeverInstalled));
        // The active image is exempt even at cap 1.
        pool.set_prepared_cap(1);
        assert_eq!(pool.prepared_cache_len(), 1);
        assert!(pool.export_sealed().is_some(), "active image survived the trim");
        // Respawn replays the active image from the cache: no re-verify.
        let before = pool.verification_count();
        pool.chaos_kill_after(0, 0);
        assert_eq!(pool.serve_on(0, b"", 1_000_000).unwrap().exit.exit_value(), Some(4));
        assert_eq!(pool.verification_count(), before);
        // Reinstalling an evicted binary re-captures it and clears the
        // tombstone.
        pool.install_all(&binaries[0]).unwrap();
        assert!(pool.export_sealed_for(&hashes[0]).is_ok());
        assert_eq!(pool.serve_on(0, b"", 1_000_000).unwrap().exit.exit_value(), Some(0));
    }

    #[test]
    #[should_panic(expected = "prepared cache cap must be at least 1")]
    fn zero_prepared_cap_panics() {
        let manifest = Manifest::ccaas();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut pool = EnclavePool::new(&layout, &manifest, 1);
        pool.set_prepared_cap(0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let manifest = Manifest::ccaas();
        let layout = EnclaveLayout::new(MemConfig::small());
        let _ = EnclavePool::new(&layout, &manifest, 0);
    }
}
