//! The bootstrap enclave runtime: ECall surface, P0 OCall wrappers and the
//! execution loop.
//!
//! This is the public, attestable software layer of the DEFLECTION model
//! (paper Section III-A): it receives the target binary and the user data
//! over role-separated encrypted channels, drives the consumer pipeline
//! (load → verify → rewrite), and mediates everything that crosses the
//! enclave boundary at runtime. The P0 policy lives here:
//!
//! * only manifest-listed OCalls are serviced — anything else faults;
//! * `send` encrypts with the data owner's session key and pads every
//!   record to a fixed length (entropy control), under a per-run budget
//!   and an optional lifetime cap tracked by a never-reset ledger;
//! * `recv` only ever exposes data the owner provisioned.

use crate::audit::{AuditKind, AuditRing, AUDIT_EXPORT_LEN};
use crate::consumer::{install, Bindings, InstallError, Installed};
use crate::policy::Manifest;
use crate::sealed::UnsealError;
use deflection_crypto::aead::ChaCha20Poly1305;
use deflection_crypto::sha256::sha256;
use deflection_crypto::CryptoError;
use deflection_isa::{OcallCode, Reg};
use deflection_sgx_sim::aex::AexInjector;
use deflection_sgx_sim::coloc::{ColocationTester, PROFILES};
use deflection_sgx_sim::cpu::Cpu;
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_sgx_sim::measure::{measure_enclave, Measurement};
use deflection_sgx_sim::mem::{MemImage, Memory};
use deflection_sgx_sim::vm::{ExecStats, RunExit, Vm, VmHost};
use deflection_sgx_sim::Fault;
use deflection_telemetry::METRICS;
use std::collections::VecDeque;

/// The public consumer image: stands in for the loader/verifier binary whose
/// hash anchors the remote attestation (both parties inspect and agree on
/// this code, Section III-A).
pub const CONSUMER_IMAGE: &[u8] = b"deflection-bootstrap-consumer image v1 \
    {loader,verifier,imm-rewriter,p0-wrappers}";

/// AAD binding every outgoing record to the P0 channel.
const RECORD_AAD: &[u8] = b"deflection-p0-record";

/// Where the I/O buffers were placed in the heap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IoPlan {
    io_ctl_va: u64,
    input_base: u64,
    input_cap: u64,
    output_base: u64,
    output_cap: u64,
}

/// Runtime-side state the VM host callbacks mutate.
#[derive(Debug)]
struct HostState {
    manifest: Manifest,
    io: Option<IoPlan>,
    owner_key: Option<[u8; 32]>,
    inbox: VecDeque<Vec<u8>>,
    /// Sealed records produced by `send` (ciphertext, fixed length).
    outbox: Vec<Vec<u8>>,
    /// Plaintext bytes sent during the current run (reset by `run()`).
    sent_bytes: usize,
    /// Plaintext bytes sent over the enclave's whole lifetime — never
    /// reset, carried across pool respawns, and capped by the manifest's
    /// optional `lifetime_output_budget`.
    lifetime_sent_bytes: u64,
    /// The record-nonce channel id (a pool worker's slot index); see
    /// [`record_nonce`].
    channel: u32,
    send_nonce: u64,
    /// Policy-relevant events, retained in-enclave and exported only as
    /// sealed, fixed-size, budget-charged records (see [`crate::audit`]).
    audit: AuditRing,
    log_values: Vec<i64>,
    clock: u64,
    coloc: ColocationTester,
}

impl HostState {
    /// The I/O plan an OCall with service `code` needs; a program without
    /// an `__io` block gets a typed fault, never a panic.
    fn io_plan(&self, code: u8) -> Result<IoPlan, Fault> {
        self.io.ok_or(Fault::OcallFailed { code, reason: "program has no I/O block".into() })
    }

    fn load_input(&mut self, mem: &mut Memory, data: &[u8]) -> Result<u64, Fault> {
        let io = self.io_plan(OcallCode::Recv as u8)?;
        let len = (data.len() as u64).min(io.input_cap);
        mem.poke_bytes(io.input_base, &data[..len as usize])?;
        mem.poke_u64(io.io_ctl_va + 8, len)?;
        Ok(len)
    }
}

impl VmHost for HostState {
    fn ocall(&mut self, code: u8, cpu: &mut Cpu, mem: &mut Memory) -> Result<(), Fault> {
        if !self.manifest.allows(code) {
            return Err(Fault::OcallDenied { code });
        }
        match OcallCode::from_u8(code) {
            Some(OcallCode::Send) => {
                let io = self.io_plan(code)?;
                let ptr = cpu.get(Reg::RDI);
                let len = cpu.get(Reg::RSI) as usize;
                if ptr != io.output_base {
                    return Err(Fault::OcallFailed {
                        code,
                        reason: "send pointer is not the staging buffer".into(),
                    });
                }
                if len > io.output_cap as usize || len > self.manifest.output_record_len {
                    return Err(Fault::OcallFailed {
                        code,
                        reason: "send length exceeds the record size".into(),
                    });
                }
                // The budget is per *run*: `sent_bytes` is reset by `run()`
                // so a long-lived worker serving many small requests never
                // exhausts it, while any single run is still capped.
                // No telemetry here: a counter bumped mid-run would leak the
                // refusal before the ECall returns. `run()` counts the
                // exhaustion at the ECall boundary, off the fault reason the
                // host sees in the report anyway.
                if self.sent_bytes + len > self.manifest.output_budget {
                    self.audit.record(AuditKind::RunBudgetExhausted, len as u64);
                    return Err(Fault::OcallFailed {
                        code,
                        reason: "output entropy budget exhausted".into(),
                    });
                }
                // The lifetime ledger never resets: when the manifest caps
                // it, cumulative leakage across every run this instance
                // (and, via pool respawns, its slot) ever serves stays
                // bounded.
                if let Some(cap) = self.manifest.lifetime_output_budget {
                    if self.lifetime_sent_bytes + len as u64 > cap {
                        self.audit.record(AuditKind::LifetimeBudgetExhausted, len as u64);
                        return Err(Fault::OcallFailed {
                            code,
                            reason: "lifetime output entropy budget exhausted".into(),
                        });
                    }
                }
                let Some(key) = self.owner_key else {
                    return Err(Fault::OcallFailed {
                        code,
                        reason: "no data-owner session".into(),
                    });
                };
                let plaintext = mem.peek_bytes(ptr, len)?;
                self.outbox.push(seal_record(
                    &key,
                    self.channel,
                    self.send_nonce,
                    &plaintext,
                    self.manifest.output_record_len,
                ));
                self.send_nonce += 1;
                self.sent_bytes += len;
                self.lifetime_sent_bytes += len as u64;
                cpu.set(Reg::RAX, len as u64);
            }
            Some(OcallCode::Recv) => {
                let msg = self.inbox.pop_front();
                let len = match msg {
                    Some(data) => self.load_input(mem, &data)?,
                    None => 0,
                };
                cpu.set(Reg::RAX, len);
            }
            Some(OcallCode::Log) => {
                if self.log_values.len() < 1024 {
                    self.log_values.push(cpu.get(Reg::RDI) as i64);
                }
                cpu.set(Reg::RAX, 0);
            }
            Some(OcallCode::Clock) => {
                self.clock += 1;
                cpu.set(Reg::RAX, self.clock);
            }
            None => return Err(Fault::OcallDenied { code }),
        }
        Ok(())
    }

    fn aex_probe(&mut self) -> bool {
        self.coloc.probe()
    }
}

/// Seals one P0 record: `[u32 length][payload][zero padding]` padded to
/// `record_len`, AEAD-sealed under the owner session key with a
/// `(channel, counter)` nonce. Every record has identical ciphertext
/// length. `channel` is the sealing enclave's channel id (a pool worker's
/// slot index; `0` for a standalone enclave) — several enclaves may share
/// the owner session key, and distinct channels keep their nonce domains
/// disjoint.
#[must_use]
pub fn seal_record(
    key: &[u8; 32],
    channel: u32,
    counter: u64,
    payload: &[u8],
    record_len: usize,
) -> Vec<u8> {
    let mut plain = Vec::with_capacity(4 + record_len);
    plain.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    plain.extend_from_slice(payload);
    plain.resize(4 + record_len, 0);
    ChaCha20Poly1305::new(key).seal(&record_nonce(channel, counter), RECORD_AAD, &plain)
}

/// Opens a sealed P0 record (the data owner's side), returning the payload.
/// `channel` and `counter` must be the pair the record was sealed under
/// (the serving protocol carries both; a standalone enclave uses channel
/// `0` and counts records from `0`).
///
/// # Errors
///
/// Returns a [`CryptoError`] if the record fails authentication or is
/// structurally invalid.
pub fn open_record(
    key: &[u8; 32],
    channel: u32,
    counter: u64,
    sealed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let plain =
        ChaCha20Poly1305::new(key).open(&record_nonce(channel, counter), RECORD_AAD, sealed)?;
    if plain.len() < 4 {
        return Err(CryptoError::TruncatedCiphertext);
    }
    let len = u32::from_le_bytes(plain[..4].try_into().expect("checked")) as usize;
    if 4 + len > plain.len() {
        return Err(CryptoError::TruncatedCiphertext);
    }
    Ok(plain[4..4 + len].to_vec())
}

/// Builds the nonce for one outgoing record: `'S' ‖ channel (24-bit LE) ‖
/// counter (64-bit LE)`. The leading `'S'` keeps the domain disjoint from
/// the `'B'`/`'D'` delivery nonces under the same owner key; the channel
/// id keeps enclaves that share the owner session key (pool workers) from
/// ever colliding — each worker's counter runs in its own nonce lane, so
/// no `(key, nonce)` pair repeats pool-wide even though every counter
/// starts at 0.
fn record_nonce(channel: u32, counter: u64) -> [u8; 12] {
    debug_assert!(channel < MAX_CHANNELS, "channel id exceeds the 24-bit nonce field");
    let mut nonce = [0u8; 12];
    nonce[0] = b'S';
    nonce[1..4].copy_from_slice(&channel.to_le_bytes()[..3]);
    nonce[4..].copy_from_slice(&counter.to_le_bytes());
    nonce
}

/// Channel ids must fit the 24-bit field of `record_nonce`.
pub const MAX_CHANNELS: u32 = 1 << 24;

/// Everything a finished run reports back.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// How the program stopped.
    pub exit: RunExit,
    /// Instruction and event counters.
    pub stats: ExecStats,
    /// Sealed output records (for the data owner).
    pub records: Vec<Vec<u8>>,
    /// Count of stores that landed outside ELRANGE during the run — must be
    /// zero whenever the store-bounds policy is enforced.
    pub untrusted_writes: u64,
    /// Instructions of idle padding added by the time-blur extension
    /// (paper Section VII); zero when blurring is off.
    pub blur_padding: u64,
}

/// The bootstrap enclave (paper Fig. 1): public code layer hosting the
/// consumer pipeline and the P0 runtime.
#[derive(Debug)]
pub struct BootstrapEnclave {
    pub(crate) layout: EnclaveLayout,
    pub(crate) manifest: Manifest,
    pub(crate) vm: Option<Vm>,
    installed: Option<Installed>,
    host: HostState,
    provider_key: Option<[u8; 32]>,
    recv_nonce: u64,
    /// Whether a directly-loaded input message is waiting for the next run.
    direct_input_pending: bool,
    /// Whether the enclave instance was torn down (`SGX_ERROR_ENCLAVE_LOST`
    /// analogue); every ECall fails until a fresh enclave is built.
    lost: bool,
}

/// ECall-surface failures.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EcallError {
    /// Decryption/authentication of a delivered payload failed.
    Channel(CryptoError),
    /// No session key established for the required role.
    NoSession,
    /// The consumer pipeline rejected the binary.
    Install(InstallError),
    /// The heap cannot fit the I/O buffers next to the loaded data.
    NoRoomForIo,
    /// No binary installed yet.
    NotInstalled,
    /// A [`PreparedInstall`] was replayed into an enclave with a different
    /// measurement (layout or consumer image) than the one that captured it.
    PreparedMismatch,
    /// The enclave instance was torn down (the `SGX_ERROR_ENCLAVE_LOST`
    /// analogue: power transition, EPC eviction, or an injected chaos
    /// kill). Every ECall fails until a fresh enclave is built; a pool
    /// respawns the worker and retries the request.
    EnclaveLost,
    /// The pool worker is quarantined and its respawn budget is exhausted
    /// (or no prepared image is available to reinstall from).
    WorkerQuarantined,
    /// A sealed install blob was rejected on import.
    Unseal(UnsealError),
    /// An audit export was refused because the per-run or lifetime output
    /// budget cannot absorb the fixed-size record: the export fails closed
    /// and nothing leaves the enclave.
    AuditBudget,
}

impl std::fmt::Display for EcallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcallError::Channel(e) => write!(f, "channel failure: {e}"),
            EcallError::NoSession => write!(f, "no session established for this role"),
            EcallError::Install(e) => write!(f, "{e}"),
            EcallError::NoRoomForIo => write!(f, "heap cannot fit I/O buffers"),
            EcallError::NotInstalled => write!(f, "no target binary installed"),
            EcallError::PreparedMismatch => {
                write!(f, "prepared install was captured under a different measurement")
            }
            EcallError::EnclaveLost => {
                write!(f, "enclave instance lost; it must be rebuilt before further ecalls")
            }
            EcallError::WorkerQuarantined => {
                write!(f, "pool worker quarantined and respawn budget exhausted")
            }
            EcallError::Unseal(e) => write!(f, "sealed install rejected: {e}"),
            EcallError::AuditBudget => {
                write!(f, "audit export refused: output entropy budget exhausted")
            }
        }
    }
}

impl From<UnsealError> for EcallError {
    fn from(e: UnsealError) -> Self {
        EcallError::Unseal(e)
    }
}

impl std::error::Error for EcallError {}

impl From<InstallError> for EcallError {
    fn from(e: InstallError) -> Self {
        EcallError::Install(e)
    }
}

impl From<CryptoError> for EcallError {
    fn from(e: CryptoError) -> Self {
        EcallError::Channel(e)
    }
}

/// A captured post-verification install image, replayable into further
/// enclaves with the same measurement without re-running the consumer
/// pipeline.
///
/// # Why replay is sound
///
/// The consumer pipeline is a *deterministic* function of
/// `(consumer image, layout, manifest, binary)`: the loader, verifier and
/// rewriter consume no randomness, no clock and no ambient state, so two
/// enclaves with the same measurement (which hashes the consumer image and
/// the layout) given the same manifest and binary compute byte-identical
/// post-rewrite memory images. Replaying the captured image into such an
/// enclave therefore yields *exactly* the state its own pipeline would
/// have produced — verification happened, once, on an identical input.
/// [`BootstrapEnclave::install_replayed`] enforces the measurement match
/// and fails closed on any mismatch; the manifest is part of the pool's
/// construction, so a pool's workers are identical by construction.
///
/// The image is kept as a compact [`MemImage`] (the few non-zero pages of
/// the address space), so a cache of prepared installs costs kilobytes
/// per binary rather than a full enclave memory each.
#[derive(Debug, Clone)]
pub struct PreparedInstall {
    pub(crate) measurement: Measurement,
    pub(crate) code_hash: [u8; 32],
    pub(crate) mem: MemImage,
    pub(crate) installed: Installed,
    pub(crate) io: Option<IoPlan>,
    /// The original serialized binary, kept so the image can be sealed and
    /// deterministically re-derived after a restart (`crate::sealed`).
    pub(crate) binary: Vec<u8>,
    /// SHA-256 of the capturing manifest's canonical JSON form; sealing
    /// binds the image to it so a restarted pool with a different manifest
    /// fails closed.
    pub(crate) manifest_digest: [u8; 32],
}

impl PreparedInstall {
    /// SHA-256 of the captured binary (the loader's code hash).
    #[must_use]
    pub fn code_hash(&self) -> [u8; 32] {
        self.code_hash
    }

    /// The measurement of the enclave that captured (or rebuilt) the image.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }
}

/// Digest of the manifest's canonical JSON form, as bound into sealed
/// install blobs.
#[must_use]
pub fn manifest_digest(manifest: &Manifest) -> [u8; 32] {
    sha256(manifest.to_json().as_bytes())
}

/// Places the I/O buffers in the free heap above the loaded image and arms
/// the program's `__io` control block. Deterministic in the
/// measurement-covered inputs, like the rest of the pipeline.
pub(crate) fn place_io(
    mem: &mut Memory,
    installed: &Installed,
    layout: &EnclaveLayout,
    manifest: &Manifest,
) -> Result<Option<IoPlan>, EcallError> {
    let input_base = (installed.program.data_end + 7) & !7;
    let output_base = input_base + manifest.input_capacity as u64;
    let end = output_base + manifest.output_capacity as u64;
    if end > layout.heap.end {
        return Err(EcallError::NoRoomForIo);
    }
    let io = installed.program.symbols.get("__io").map(|&io_ctl_va| IoPlan {
        io_ctl_va,
        input_base,
        input_cap: manifest.input_capacity as u64,
        output_base,
        output_cap: manifest.output_capacity as u64,
    });
    if let Some(plan) = &io {
        mem.poke_u64(plan.io_ctl_va, plan.input_base).expect("io block mapped");
        mem.poke_u64(plan.io_ctl_va + 8, 0).expect("io block mapped");
        mem.poke_u64(plan.io_ctl_va + 16, plan.output_base).expect("io block mapped");
        mem.poke_u64(plan.io_ctl_va + 24, plan.output_cap).expect("io block mapped");
    }
    Ok(io)
}

impl BootstrapEnclave {
    /// Initializes a bootstrap enclave over a fresh memory image.
    #[must_use]
    pub fn new(layout: EnclaveLayout, manifest: Manifest) -> Self {
        let host = HostState {
            manifest: manifest.clone(),
            io: None,
            owner_key: None,
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            sent_bytes: 0,
            lifetime_sent_bytes: 0,
            channel: 0,
            send_nonce: 0,
            audit: AuditRing::new(),
            log_values: Vec::new(),
            clock: 0,
            coloc: ColocationTester::new(PROFILES[0], 0xD5F1),
        };
        BootstrapEnclave {
            layout,
            manifest,
            vm: None,
            installed: None,
            host,
            provider_key: None,
            recv_nonce: 0,
            direct_input_pending: false,
            lost: false,
        }
    }

    /// Simulates losing the enclave instance (power transition, EPC
    /// eviction, or an injected chaos kill): every subsequent ECall fails
    /// with [`EcallError::EnclaveLost`]. There is no way back — like the
    /// hardware, the instance must be rebuilt from scratch.
    pub fn mark_lost(&mut self) {
        self.lost = true;
    }

    /// Whether this instance was lost (see [`BootstrapEnclave::mark_lost`]).
    #[must_use]
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Fails every ECall on a lost instance.
    fn alive(&self) -> Result<(), EcallError> {
        (!self.lost).then_some(()).ok_or(EcallError::EnclaveLost)
    }

    /// Moves the state a pool worker slot owns — record-nonce channel and
    /// counter, lifetime output ledger and audit ring (with its sequence) —
    /// from this instance to `next`, the instance about to serve on the
    /// slot. Tenant switches, respawns and fresh installs all hand over
    /// *before* `next` adopts an image or runs, so the slot keeps one
    /// monotonic counter on one channel (no `(key, nonce)` pair repeats)
    /// and one audit log whose sequence never regresses. Counters move by
    /// `max`, so handing back and forth never lowers either side.
    pub(crate) fn hand_over_slot(&mut self, next: &mut BootstrapEnclave) {
        next.set_channel(self.host.channel);
        next.resume_send_nonce(self.host.send_nonce);
        next.resume_lifetime_sent_bytes(self.host.lifetime_sent_bytes);
        std::mem::swap(&mut next.host.audit, &mut self.host.audit);
    }

    /// The next outgoing P0 record counter. Monotonic over the enclave's
    /// lifetime — it never resets, because a repeated `(channel, counter)`
    /// pair under the same owner session key would reuse an AEAD nonce.
    #[must_use]
    pub fn send_nonce(&self) -> u64 {
        self.host.send_nonce
    }

    /// Raises the outgoing record counter to at least `floor`. Used when a
    /// pool respawns a worker under the *same* owner session key: the fresh
    /// enclave inherits the dead worker's counter (and channel id) so no
    /// nonce is ever reused. The counter never moves backwards.
    pub fn resume_send_nonce(&mut self, floor: u64) {
        self.host.send_nonce = self.host.send_nonce.max(floor);
    }

    /// The record-nonce channel id (see `record_nonce`): `0` for a
    /// standalone enclave, the slot index for a pool worker.
    #[must_use]
    pub fn channel(&self) -> u32 {
        self.host.channel
    }

    /// Assigns the record-nonce channel id. A pool gives every worker slot
    /// a distinct channel so enclaves sharing the owner session key never
    /// collide on a `(key, nonce)` pair; respawned instances keep their
    /// slot's channel.
    ///
    /// # Panics
    ///
    /// Panics if `channel` does not fit the nonce's 24-bit channel field.
    pub fn set_channel(&mut self, channel: u32) {
        assert!(channel < MAX_CHANNELS, "channel id exceeds the 24-bit nonce field");
        self.host.channel = channel;
    }

    /// Total plaintext bytes this instance has sent over its lifetime —
    /// the never-reset P0 entropy ledger backing the manifest's optional
    /// `lifetime_output_budget`.
    #[must_use]
    pub fn lifetime_sent_bytes(&self) -> u64 {
        self.host.lifetime_sent_bytes
    }

    /// Raises the lifetime output ledger to at least `floor`. Used when a
    /// pool respawns a worker slot: the fresh instance inherits the dead
    /// one's ledger, so the optional lifetime cap bounds the *slot's*
    /// cumulative leakage, not just one instance's. Never moves backwards.
    pub fn resume_lifetime_sent_bytes(&mut self, floor: u64) {
        self.host.lifetime_sent_bytes = self.host.lifetime_sent_bytes.max(floor);
    }

    /// The sequence number the next audit event will get — the slot's
    /// lifetime event count. Pools carry it across respawns (like the send
    /// nonce) so exported sequences never regress.
    #[must_use]
    pub fn audit_next_seq(&self) -> u64 {
        self.host.audit.next_seq()
    }

    /// `ecall_export_audit`: seals the audit ring for the data owner on
    /// this enclave's record-nonce channel. The export is an *output*: its
    /// fixed [`AUDIT_EXPORT_LEN`]-byte plaintext is charged against the
    /// per-run and lifetime output budgets exactly like a P0 record, and
    /// the call fails closed — leaking nothing — when either budget cannot
    /// absorb it. The sealed blob opens with
    /// [`crate::audit::open_audit_export`] under the `(channel, counter)`
    /// pair in force at export time.
    ///
    /// # Errors
    ///
    /// Fails when the instance is lost, no owner session exists, or a
    /// budget refuses the export ([`EcallError::AuditBudget`]).
    pub fn ecall_export_audit(&mut self) -> Result<Vec<u8>, EcallError> {
        self.alive()?;
        let key = self.host.owner_key.ok_or(EcallError::NoSession)?;
        // The refusals below are counted in telemetry at this boundary:
        // `EcallError::AuditBudget` is itself returned to the host, so the
        // counter mirrors an already-visible fact.
        if self.host.sent_bytes + AUDIT_EXPORT_LEN > self.manifest.output_budget {
            self.host.audit.record(AuditKind::RunBudgetExhausted, AUDIT_EXPORT_LEN as u64);
            METRICS.run_budget_exhaustions.add(1);
            return Err(EcallError::AuditBudget);
        }
        if let Some(cap) = self.manifest.lifetime_output_budget {
            if self.host.lifetime_sent_bytes + AUDIT_EXPORT_LEN as u64 > cap {
                self.host.audit.record(AuditKind::LifetimeBudgetExhausted, AUDIT_EXPORT_LEN as u64);
                METRICS.run_budget_exhaustions.add(1);
                return Err(EcallError::AuditBudget);
            }
        }
        let plain = self.host.audit.export_bytes();
        let sealed =
            seal_record(&key, self.host.channel, self.host.send_nonce, &plain, AUDIT_EXPORT_LEN);
        self.host.send_nonce += 1;
        self.host.sent_bytes += AUDIT_EXPORT_LEN;
        self.host.lifetime_sent_bytes += AUDIT_EXPORT_LEN as u64;
        METRICS.audit_exports.add(1);
        Ok(sealed)
    }

    /// The enclave's measurement, as the hardware would report it in a
    /// quote (hash of the public consumer image and the enclave layout).
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        measure_enclave(CONSUMER_IMAGE, &self.layout)
    }

    /// The manifest in force.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Installs the data owner's session key (normally derived by the
    /// RA-TLS handshake in `deflection-attest`).
    pub fn set_owner_session(&mut self, key: [u8; 32]) {
        self.host.owner_key = Some(key);
    }

    /// Installs the code provider's session key.
    pub fn set_provider_session(&mut self, key: [u8; 32]) {
        self.provider_key = Some(key);
    }

    /// `ecall_receive_binary`: decrypts the provider-sealed target binary,
    /// runs the consumer pipeline and prepares the I/O buffers. Returns the
    /// code hash the enclave later reports to the data owner.
    ///
    /// # Errors
    ///
    /// Fails when no provider session exists, authentication fails, the
    /// consumer rejects the binary, or the heap cannot host the buffers.
    pub fn ecall_receive_binary(&mut self, sealed: &[u8]) -> Result<[u8; 32], EcallError> {
        let key = self.provider_key.ok_or(EcallError::NoSession)?;
        let nonce = delivery_nonce(b"BIN\0", self.recv_nonce);
        self.recv_nonce += 1;
        let binary = ChaCha20Poly1305::new(&key).open(&nonce, b"deflection-binary", sealed)?;
        self.install_plain(&binary)
    }

    /// Installs an already-plaintext binary (used by tests and benches that
    /// do not exercise the channel; the consumer pipeline is identical).
    ///
    /// # Errors
    ///
    /// Propagates consumer rejections and I/O-placement failures.
    pub fn install_plain(&mut self, binary: &[u8]) -> Result<[u8; 32], EcallError> {
        Ok(self.install_capture(binary)?.code_hash)
    }

    /// Runs the full consumer pipeline on `binary`, installs the result
    /// into this enclave, and additionally captures the finished image as
    /// a [`PreparedInstall`] for replay into identically-measured peers.
    ///
    /// # Errors
    ///
    /// Propagates consumer rejections and I/O-placement failures.
    pub fn install_capture(&mut self, binary: &[u8]) -> Result<PreparedInstall, EcallError> {
        self.alive()?;
        let mut mem = Memory::new(self.layout.clone());
        let installed = install(binary, &self.manifest, &mut mem)?;
        let io = place_io(&mut mem, &installed, &self.layout, &self.manifest)?;
        let prepared = PreparedInstall {
            measurement: self.measurement(),
            code_hash: installed.program.code_hash,
            mem: mem.image(),
            installed: installed.clone(),
            io,
            binary: binary.to_vec(),
            manifest_digest: manifest_digest(&self.manifest),
        };
        self.adopt(mem, installed, io);
        Ok(prepared)
    }

    /// Installs a previously captured image without re-running the
    /// consumer pipeline. Sound because the pipeline is deterministic in
    /// the measurement-covered inputs — see [`PreparedInstall`].
    ///
    /// # Errors
    ///
    /// Fails closed with [`EcallError::PreparedMismatch`] when this
    /// enclave's measurement differs from the capturing enclave's.
    pub fn install_replayed(&mut self, prepared: &PreparedInstall) -> Result<[u8; 32], EcallError> {
        self.alive()?;
        if prepared.measurement != self.measurement() {
            return Err(EcallError::PreparedMismatch);
        }
        self.adopt(Memory::from_image(&prepared.mem), prepared.installed.clone(), prepared.io);
        Ok(prepared.code_hash)
    }

    /// Adopts a finished install image as this enclave's runnable state.
    ///
    /// Every install path — fresh pipeline, `PreparedInstall` replay into
    /// pool workers and respawns, sealed import — funnels through here, so
    /// forming the VM's trace cover at this single point means they all
    /// start hot: the verifier already decoded the whole program, and
    /// [`rewritten_insts`] predicts the post-rewrite stream exactly, so
    /// execution never pays for another decode pass.
    pub(crate) fn adopt(&mut self, mem: Memory, installed: Installed, io: Option<IoPlan>) {
        self.host.io = io;
        self.direct_input_pending = false;
        let entry = installed.program.entry_va;
        let hash_prefix =
            u64::from_le_bytes(installed.program.code_hash[..8].try_into().expect("32-byte hash"));
        self.host.audit.record(AuditKind::Install, hash_prefix);
        let mut vm = Vm::new(mem, entry);
        let bindings = Bindings::from_layout(
            &self.layout,
            installed.program.ibt_addresses.len() as u64,
            self.manifest.aex_threshold,
        );
        let code_base = self.layout.code.start;
        let warmed = crate::consumer::rewriter::rewritten_insts(&installed.verified, &bindings);
        let entries: Vec<(u64, deflection_isa::Inst, u8)> = warmed
            .into_iter()
            .map(|(off, inst, len)| (code_base + off as u64, inst, len as u8))
            .collect();
        vm.prewarm_traces(&entries);
        self.installed = Some(installed);
        self.vm = Some(vm);
    }

    /// `ecall_receive_userdata`: decrypts owner-sealed input. The first
    /// message is loaded straight into the input buffer; later messages
    /// queue for `recv()`.
    ///
    /// # Errors
    ///
    /// Fails when no owner session or installed binary exists, or when
    /// authentication fails.
    pub fn ecall_receive_userdata(&mut self, sealed: &[u8]) -> Result<(), EcallError> {
        let key = self.host.owner_key.ok_or(EcallError::NoSession)?;
        let nonce = delivery_nonce(b"DAT\0", self.recv_nonce);
        self.recv_nonce += 1;
        let data = ChaCha20Poly1305::new(&key).open(&nonce, b"deflection-userdata", sealed)?;
        self.provide_input(&data)
    }

    /// Provides plaintext input directly (test/bench path; same buffering
    /// as the sealed ECall).
    ///
    /// # Errors
    ///
    /// Fails when no binary is installed.
    pub fn provide_input(&mut self, data: &[u8]) -> Result<(), EcallError> {
        self.alive()?;
        let vm = self.vm.as_mut().ok_or(EcallError::NotInstalled)?;
        if self.host.io.is_some() && !self.direct_input_pending && self.host.inbox.is_empty() {
            self.host.load_input(&mut vm.mem, data).expect("input buffer mapped");
            self.direct_input_pending = true;
            return Ok(());
        }
        self.host.inbox.push_back(data.to_vec());
        Ok(())
    }

    /// Replaces the AEX injection schedule (experiment control).
    ///
    /// # Panics
    ///
    /// Panics if no binary is installed.
    pub fn set_aex(&mut self, injector: AexInjector) {
        self.vm.as_mut().expect("binary installed").set_aex(injector);
    }

    /// Selects the VM dispatch mode (traced, or the reference oracle) —
    /// differential tests and the `ablation_icache` bench.
    ///
    /// # Panics
    ///
    /// Panics if no binary is installed.
    pub fn set_exec_mode(&mut self, mode: deflection_sgx_sim::vm::ExecMode) {
        self.vm.as_mut().expect("binary installed").set_exec_mode(mode);
    }

    /// Trace-cache event counters of the installed VM.
    ///
    /// # Panics
    ///
    /// Panics if no binary is installed.
    #[must_use]
    pub fn trace_stats(&self) -> deflection_sgx_sim::icache::TraceStats {
        self.vm.as_ref().expect("binary installed").trace_stats()
    }

    /// Marks whether an attacker occupies the sibling hyper-thread (drives
    /// the co-location probe outcomes).
    pub fn set_attacker_present(&mut self, present: bool) {
        self.host.coloc.attacker_present = present;
    }

    /// Logged values emitted through the `log` OCall.
    #[must_use]
    pub fn log_values(&self) -> &[i64] {
        &self.host.log_values
    }

    /// Read-only view of the enclave memory (diagnostics/tests).
    ///
    /// # Panics
    ///
    /// Panics if no binary is installed.
    #[must_use]
    pub fn memory(&self) -> &Memory {
        &self.vm.as_ref().expect("binary installed").mem
    }

    /// Runs the installed program from its entry with the given instruction
    /// budget.
    ///
    /// # Errors
    ///
    /// Fails only when no binary is installed; program-level failures are
    /// reported inside the [`RunReport`].
    pub fn run(&mut self, fuel: u64) -> Result<RunReport, EcallError> {
        self.alive()?;
        let vm = self.vm.as_mut().ok_or(EcallError::NotInstalled)?;
        let installed = self.installed.as_ref().expect("installed with vm");
        // Reset the CPU to the entry; memory (globals, control slots)
        // persists across runs.
        vm.cpu = Cpu::new(installed.program.entry_va);
        vm.cpu.set(Reg::RSP, self.layout.initial_rsp());
        // The P0 output budget caps each *run*: reset the counter so a
        // long-lived worker serving many in-budget requests never faults on
        // accumulated history. The send nonce and the lifetime output
        // ledger, by contrast, must never reset — a repeated counter under
        // the same owner key would reuse an AEAD nonce, and the ledger is
        // what makes the optional lifetime entropy cap cumulative.
        self.host.sent_bytes = 0;
        // The pending direct input is consumed by this run; the next
        // provide_input call refreshes the buffer.
        self.direct_input_pending = false;
        let start = vm.stats.instructions;
        let exit = vm.run(fuel, &mut self.host);
        // Queued messages belong to this run's request: whatever it did not
        // `recv` must not reach the next request, whose input would
        // otherwise queue behind them instead of loading.
        self.host.inbox.clear();
        let mut stats = vm.stats;
        // Policy-relevant outcomes land in the in-enclave audit ring; they
        // leave the enclave only via the sealed, budget-charged export.
        if matches!(exit, RunExit::PolicyAbort { .. } | RunExit::Fault(_)) {
            self.host.audit.record(AuditKind::GuardTrip, stats.instructions);
        }
        if stats.aex_injected > 0 {
            self.host.audit.record(AuditKind::AexInjected, stats.aex_injected);
        }
        // On-demand processing-time blurring (paper Section VII): idle until
        // the next quantum boundary before releasing any output, so the
        // completion time no longer modulates a covert channel. The pad is
        // taken on this run's own count: the counter is cumulative across
        // runs, and padding it would leak the earlier runs' cost.
        let mut blur_padding = 0;
        if let Some(q) = self.manifest.time_blur_quantum {
            if q > 0 {
                let rem = (stats.instructions - start) % q;
                if rem != 0 {
                    blur_padding = q - rem;
                    stats.instructions += blur_padding;
                }
            }
        }
        // Telemetry sits at the ECall boundary: everything it records here
        // (bytes sent, budget headroom, the budget-exhaustion fault below)
        // is already host-visible in the returned report, so the collector
        // adds no new channel — in-run refusals are counted only once the
        // report carrying them is handed back.
        if matches!(&exit, RunExit::Fault(Fault::OcallFailed { reason, .. })
            if reason.ends_with("entropy budget exhausted"))
        {
            METRICS.run_budget_exhaustions.add(1);
        }
        METRICS.run_reports.add(1);
        METRICS.run_sent_bytes.observe(self.host.sent_bytes as u64);
        METRICS
            .run_budget_headroom
            .set(self.manifest.output_budget.saturating_sub(self.host.sent_bytes) as i64);
        Ok(RunReport {
            exit,
            stats,
            records: std::mem::take(&mut self.host.outbox),
            untrusted_writes: vm.mem.untrusted_write_count,
            blur_padding,
        })
    }
}

/// Builds the nonce for a sealed code/data delivery.
#[must_use]
pub fn delivery_nonce(tag: &[u8; 4], counter: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..4].copy_from_slice(tag);
    nonce[4..].copy_from_slice(&counter.to_le_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySet;
    use crate::producer::produce;
    use deflection_sgx_sim::layout::MemConfig;

    fn enclave(policy: PolicySet) -> BootstrapEnclave {
        let mut manifest = Manifest::ccaas();
        manifest.policy = policy;
        BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest)
    }

    const ECHO_SRC: &str = "
        fn main() -> int {
            var n: int = input_len();
            var i: int = 0;
            while (i < n) { output_byte(i, input_byte(i) + 1); i = i + 1; }
            return send(n);
        }
    ";

    #[test]
    fn end_to_end_echo_with_sealed_output() {
        let policy = PolicySet::full();
        let obj = produce(ECHO_SRC, &policy).unwrap();
        let mut enclave = enclave(policy);
        let owner_key = [0x11u8; 32];
        enclave.set_owner_session(owner_key);
        enclave.install_plain(&obj.serialize()).unwrap();
        enclave.provide_input(b"hello").unwrap();
        let report = enclave.run(10_000_000).unwrap();
        assert_eq!(report.exit, RunExit::Halted { exit: 5 });
        assert_eq!(report.untrusted_writes, 0);
        assert_eq!(report.records.len(), 1);
        // All records are fixed-size (P0 padding).
        assert_eq!(report.records[0].len(), 4 + enclave.manifest().output_record_len + 16);
        let plain = open_record(&owner_key, 0, 0, &report.records[0]).unwrap();
        assert_eq!(plain, b"ifmmp");
    }

    #[test]
    fn sealed_delivery_roundtrip() {
        let policy = PolicySet::p1();
        let obj = produce(ECHO_SRC, &policy).unwrap();
        let mut e = enclave(policy);
        let provider_key = [0x22u8; 32];
        let owner_key = [0x33u8; 32];
        e.set_provider_session(provider_key);
        e.set_owner_session(owner_key);
        let sealed_bin = ChaCha20Poly1305::new(&provider_key).seal(
            &delivery_nonce(b"BIN\0", 0),
            b"deflection-binary",
            &obj.serialize(),
        );
        let hash = e.ecall_receive_binary(&sealed_bin).unwrap();
        assert_eq!(hash, deflection_crypto::sha256::sha256(&obj.serialize()));
        let sealed_data = ChaCha20Poly1305::new(&owner_key).seal(
            &delivery_nonce(b"DAT\0", 1),
            b"deflection-userdata",
            b"abc",
        );
        e.ecall_receive_userdata(&sealed_data).unwrap();
        let report = e.run(10_000_000).unwrap();
        assert_eq!(report.exit, RunExit::Halted { exit: 3 });
    }

    #[test]
    fn tampered_binary_delivery_rejected() {
        let policy = PolicySet::p1();
        let obj = produce(ECHO_SRC, &policy).unwrap();
        let mut e = enclave(policy);
        let provider_key = [0x22u8; 32];
        e.set_provider_session(provider_key);
        let mut sealed = ChaCha20Poly1305::new(&provider_key).seal(
            &delivery_nonce(b"BIN\0", 0),
            b"deflection-binary",
            &obj.serialize(),
        );
        sealed[10] ^= 1;
        assert!(matches!(e.ecall_receive_binary(&sealed), Err(EcallError::Channel(_))));
    }

    #[test]
    fn send_without_owner_session_faults() {
        let policy = PolicySet::p1();
        let obj = produce("fn main() -> int { return send(1); }", &policy).unwrap();
        let mut e = enclave(policy);
        e.install_plain(&obj.serialize()).unwrap();
        let report = e.run(1_000_000).unwrap();
        assert!(matches!(report.exit, RunExit::Fault(Fault::OcallFailed { .. })));
    }

    #[test]
    fn oversized_send_faults() {
        let policy = PolicySet::p1();
        let src = "fn main() -> int { return send(100000); }";
        let obj = produce(src, &policy).unwrap();
        let mut e = enclave(policy);
        e.set_owner_session([1; 32]);
        e.install_plain(&obj.serialize()).unwrap();
        let report = e.run(1_000_000).unwrap();
        assert!(matches!(report.exit, RunExit::Fault(Fault::OcallFailed { .. })));
    }

    #[test]
    fn output_budget_enforced() {
        let policy = PolicySet::p1();
        // Send 100 bytes repeatedly until the budget trips.
        let src = "
            fn main() -> int {
                var i: int = 0;
                while (i < 100) { send(100); i = i + 1; }
                return 0;
            }
        ";
        let obj = produce(src, &policy).unwrap();
        let mut manifest = Manifest::ccaas();
        manifest.policy = policy;
        manifest.output_budget = 450; // allows 4 sends of 100
        let mut e = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
        e.set_owner_session([1; 32]);
        e.install_plain(&obj.serialize()).unwrap();
        let report = e.run(10_000_000).unwrap();
        assert!(matches!(report.exit, RunExit::Fault(Fault::OcallFailed { .. })));
        assert_eq!(report.records.len(), 4);
    }

    #[test]
    fn output_budget_is_per_run_and_nonce_stays_monotonic() {
        let policy = PolicySet::p1();
        let obj = produce("fn main() -> int { return send(100); }", &policy).unwrap();
        let mut manifest = Manifest::ccaas();
        manifest.policy = policy;
        manifest.output_budget = 450; // each run sends 100, well within budget
        let owner_key = [1u8; 32];
        let mut e = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
        e.set_owner_session(owner_key);
        e.install_plain(&obj.serialize()).unwrap();
        // budget/len + 1 = 5 runs would have tripped the old cumulative
        // counter (500 > 450); one extra run for good measure.
        for run in 0..6u64 {
            let report = e.run(10_000_000).unwrap();
            assert_eq!(report.exit, RunExit::Halted { exit: 100 }, "run {run} faulted");
            assert_eq!(report.records.len(), 1);
            // The record counter never reset: run N seals under nonce N.
            assert!(open_record(&owner_key, 0, run, &report.records[0]).is_ok());
        }
        assert_eq!(e.send_nonce(), 6);
    }

    #[test]
    fn recv_dequeues_messages() {
        let policy = PolicySet::p1();
        let src = "
            fn main() -> int {
                var first: int = input_len();
                var second: int = recv();
                var third: int = recv();
                return first * 10000 + second * 100 + third;
            }
        ";
        let obj = produce(src, &policy).unwrap();
        let mut e = enclave(policy);
        e.set_owner_session([1; 32]);
        e.install_plain(&obj.serialize()).unwrap();
        e.provide_input(b"aaaa").unwrap(); // 4 bytes, loaded immediately
        e.provide_input(b"bb").unwrap(); // queued
        let report = e.run(10_000_000).unwrap();
        assert_eq!(report.exit, RunExit::Halted { exit: 4 * 10000 + 2 * 100 });
    }

    #[test]
    fn recv_without_io_block_is_a_typed_fault() {
        use crate::producer::produce_from_mir;
        use deflection_isa::Inst;
        use deflection_lang::mir::{MFunction, MirProgram};
        // `Ocall { Recv }; Halt` verifies under the full policy but has no
        // `__io` block, so a provisioned request has nowhere to land.
        let mut start = MFunction::new("__start");
        start.real(Inst::Ocall { code: OcallCode::Recv as u8 });
        start.real(Inst::Halt);
        let mir = MirProgram {
            entry: start.name.clone(),
            functions: vec![start],
            data: vec![],
            indirect_targets: vec![],
        };
        let obj = produce_from_mir(&mir, &PolicySet::full()).unwrap();
        let mut e = enclave(PolicySet::full());
        e.install_plain(&obj.serialize()).unwrap();
        e.provide_input(b"abc").unwrap();
        let report = e.run(1_000_000).unwrap();
        assert!(
            matches!(report.exit, RunExit::Fault(Fault::OcallFailed { code, .. })
                if code == OcallCode::Recv as u8),
            "{:?}",
            report.exit
        );
        // The instance stays usable: the next run faults the same way.
        e.provide_input(b"def").unwrap();
        assert!(matches!(e.run(1_000_000).unwrap().exit, RunExit::Fault(_)));
    }

    #[test]
    fn unread_queued_input_does_not_leak_into_the_next_request() {
        let policy = PolicySet::p1();
        let obj = produce("fn main() -> int { return input_byte(0); }", &policy).unwrap();
        let mut e = enclave(policy);
        e.install_plain(&obj.serialize()).unwrap();
        e.provide_input(&[10]).unwrap(); // loaded into the input buffer
        e.provide_input(&[20]).unwrap(); // queued, never received
        assert_eq!(e.run(1_000_000).unwrap().exit, RunExit::Halted { exit: 10 });
        assert!(e.host.inbox.is_empty(), "a run must consume its request's queue");
        e.provide_input(&[30]).unwrap();
        assert_eq!(e.run(1_000_000).unwrap().exit, RunExit::Halted { exit: 30 });
        assert!(e.host.inbox.is_empty());
    }

    #[test]
    fn inbox_stays_empty_for_a_binary_without_io_block() {
        use crate::attack::{corpus, Expected};
        let mut e = corpus()
            .into_iter()
            .filter(|a| matches!(a.expected, Expected::RuntimeAbort(_)))
            .find_map(|a| {
                let mut e = enclave(PolicySet::full());
                e.install_plain(&a.binary.serialize()).unwrap();
                e.host.io.is_none().then_some(e)
            })
            .expect("a runtime-abort corpus binary without an __io block");
        for _ in 0..100 {
            e.provide_input(b"request").unwrap();
            let _ = e.run(1_000_000).unwrap();
        }
        assert_eq!(e.host.inbox.len(), 0, "every request must leave with its run");
    }

    #[test]
    fn run_requires_install() {
        let mut e = enclave(PolicySet::none());
        assert!(matches!(e.run(100), Err(EcallError::NotInstalled)));
    }

    #[test]
    fn measurement_is_stable_and_layout_bound() {
        let e1 = enclave(PolicySet::none());
        let e2 = enclave(PolicySet::none());
        assert_eq!(e1.measurement(), e2.measurement());
        let other =
            BootstrapEnclave::new(EnclaveLayout::new(MemConfig::paper()), Manifest::ccaas());
        assert_ne!(e1.measurement(), other.measurement());
    }

    #[test]
    fn time_blur_hides_completion_time() {
        // Two inputs with different true costs complete at identical
        // (blurred) instruction counts.
        let policy = PolicySet::p1();
        let src = "
            fn main() -> int {
                var n: int = input_len();
                var i: int = 0;
                var s: int = 0;
                while (i < n * 100) { s = s + i; i = i + 1; }
                return s & 0xFF;
            }
        ";
        let obj = produce(src, &policy).unwrap();
        let mut manifest = Manifest::ccaas();
        manifest.policy = policy;
        manifest.time_blur_quantum = Some(1_000_000);
        let mut counts = Vec::new();
        for input in [&b"ab"[..], &b"abcdefgh"[..]] {
            let mut e =
                BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest.clone());
            e.set_owner_session([1; 32]);
            e.install_plain(&obj.serialize()).unwrap();
            e.provide_input(input).unwrap();
            let report = e.run(10_000_000).unwrap();
            assert!(matches!(report.exit, RunExit::Halted { .. }));
            assert!(report.blur_padding > 0);
            counts.push(report.stats.instructions);
        }
        assert_eq!(counts[0], counts[1], "blurred completion times must match");
    }

    #[test]
    fn time_blur_pads_each_run_of_a_long_lived_instance() {
        // One instance serves a short or a long request, then the same
        // request: that run's padded duration must not depend on which
        // came before, although the instruction counter is cumulative.
        let policy = PolicySet::p1();
        let src = "
            fn main() -> int {
                var n: int = input_len();
                var i: int = 0;
                var s: int = 0;
                while (i < n * 100) { s = s + i; i = i + 1; }
                return s & 0xFF;
            }
        ";
        let obj = produce(src, &policy).unwrap();
        let mut manifest = Manifest::ccaas();
        manifest.policy = policy;
        let q = 1_000_000;
        manifest.time_blur_quantum = Some(q);
        let mut last_padded = Vec::new();
        for first in [&b"ab"[..], &b"abcdefgh"[..]] {
            let mut e =
                BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest.clone());
            e.set_owner_session([1; 32]);
            e.install_plain(&obj.serialize()).unwrap();
            let mut executed = 0;
            let mut padded = 0;
            for input in [first, &b"abcd"[..]] {
                e.provide_input(input).unwrap();
                let report = e.run(10_000_000).unwrap();
                assert!(matches!(report.exit, RunExit::Halted { .. }));
                // The report's count stays cumulative; its pad is this
                // run's own.
                let own = report.stats.instructions - report.blur_padding - executed;
                executed += own;
                padded = own + report.blur_padding;
                assert_eq!(padded % q, 0, "each run pads its own count to the quantum");
            }
            last_padded.push(padded);
        }
        assert_eq!(last_padded[0], last_padded[1], "the padded run must not leak its history");
    }

    #[test]
    fn replay_requires_matching_measurement() {
        let policy = PolicySet::p1();
        let obj = produce(ECHO_SRC, &policy).unwrap();
        let mut source = enclave(policy);
        let prepared = source.install_capture(&obj.serialize()).unwrap();
        // Same layout and manifest: replay installs and runs identically.
        let mut twin = enclave(policy);
        twin.set_owner_session([0x11; 32]);
        assert_eq!(twin.install_replayed(&prepared).unwrap(), prepared.code_hash());
        twin.provide_input(b"abc").unwrap();
        assert_eq!(twin.run(10_000_000).unwrap().exit, RunExit::Halted { exit: 3 });
        // Different layout → different measurement → fail closed.
        let mut manifest = Manifest::ccaas();
        manifest.policy = policy;
        let mut other = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::paper()), manifest);
        assert_eq!(other.install_replayed(&prepared), Err(EcallError::PreparedMismatch));
    }

    #[test]
    fn record_seal_open_roundtrip() {
        let key = [9u8; 32];
        let sealed = seal_record(&key, 0, 7, b"result", 64);
        assert_eq!(sealed.len(), 4 + 64 + 16);
        assert_eq!(open_record(&key, 0, 7, &sealed).unwrap(), b"result");
        // Wrong counter (nonce) fails.
        assert!(open_record(&key, 0, 8, &sealed).is_err());
    }

    #[test]
    fn record_channels_are_disjoint_nonce_domains() {
        // Two enclaves sharing the owner key (pool workers) both start
        // their counters at 0: the channel id must keep their nonces — and
        // hence ciphertexts of identical plaintexts — distinct.
        let key = [9u8; 32];
        let a = seal_record(&key, 0, 0, b"same plaintext", 64);
        let b = seal_record(&key, 1, 0, b"same plaintext", 64);
        assert_ne!(a, b, "identical (key, counter, plaintext) must differ across channels");
        assert_eq!(open_record(&key, 0, 0, &a).unwrap(), b"same plaintext");
        assert_eq!(open_record(&key, 1, 0, &b).unwrap(), b"same plaintext");
        // Cross-channel opens fail authentication.
        assert!(open_record(&key, 1, 0, &a).is_err());
        assert!(open_record(&key, 0, 0, &b).is_err());
    }

    #[test]
    fn enclave_channel_feeds_the_record_nonce() {
        let policy = PolicySet::p1();
        let obj = produce("fn main() -> int { return send(3); }", &policy).unwrap();
        let owner_key = [7u8; 32];
        let run_on_channel = |channel: u32| {
            let mut e = enclave(policy);
            e.set_owner_session(owner_key);
            e.set_channel(channel);
            e.install_plain(&obj.serialize()).unwrap();
            e.provide_input(b"xyz").unwrap();
            e.run(1_000_000).unwrap().records.remove(0)
        };
        let rec0 = run_on_channel(0);
        let rec5 = run_on_channel(5);
        assert_ne!(rec0, rec5);
        assert!(open_record(&owner_key, 0, 0, &rec0).is_ok());
        assert!(open_record(&owner_key, 5, 0, &rec5).is_ok());
        assert!(open_record(&owner_key, 0, 0, &rec5).is_err());
    }

    #[test]
    fn lifetime_output_budget_caps_across_runs() {
        let policy = PolicySet::p1();
        let obj = produce("fn main() -> int { return send(100); }", &policy).unwrap();
        let mut manifest = Manifest::ccaas();
        manifest.policy = policy;
        manifest.output_budget = 450; // each run is well within this
        manifest.lifetime_output_budget = Some(250); // but only 2 runs fit
        let mut e = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
        e.set_owner_session([1; 32]);
        e.install_plain(&obj.serialize()).unwrap();
        for run in 0..2 {
            let report = e.run(1_000_000).unwrap();
            assert_eq!(report.exit, RunExit::Halted { exit: 100 }, "run {run}");
        }
        assert_eq!(e.lifetime_sent_bytes(), 200);
        // The third run's send would push the lifetime ledger past 250.
        let report = e.run(1_000_000).unwrap();
        assert!(matches!(report.exit, RunExit::Fault(Fault::OcallFailed { .. })));
        assert_eq!(e.lifetime_sent_bytes(), 200, "the refused send leaked nothing");
    }

    #[test]
    fn manifest_digest_covers_every_field() {
        // The digest binds sealed images to one manifest, so `to_json`
        // must encode every field. No `..` rest
        // pattern: a field added to `Manifest` or `PolicySet` stops this
        // test compiling until a variant below changes it.
        let base = Manifest::ccaas();
        let Manifest {
            allowed_ocalls,
            output_record_len,
            output_budget,
            lifetime_output_budget,
            input_capacity,
            output_capacity,
            aex_threshold,
            time_blur_quantum,
            policy: PolicySet { store_bounds, rsp_integrity, cfi, aex, q, elide_guards },
        } = base.clone();
        let pol = base.policy;
        let bump = |v: Option<u64>| Some(v.map_or(4096, |v| v + 1));
        let variants = [
            Manifest { allowed_ocalls: allowed_ocalls[1..].to_vec(), ..base.clone() },
            Manifest { output_record_len: output_record_len + 1, ..base.clone() },
            Manifest { output_budget: output_budget + 1, ..base.clone() },
            Manifest { lifetime_output_budget: bump(lifetime_output_budget), ..base.clone() },
            Manifest { lifetime_output_budget: bump(bump(lifetime_output_budget)), ..base.clone() },
            Manifest { input_capacity: input_capacity + 1, ..base.clone() },
            Manifest { output_capacity: output_capacity + 1, ..base.clone() },
            Manifest { aex_threshold: aex_threshold + 1, ..base.clone() },
            Manifest { time_blur_quantum: bump(time_blur_quantum), ..base.clone() },
            Manifest { time_blur_quantum: bump(bump(time_blur_quantum)), ..base.clone() },
            Manifest { policy: PolicySet { store_bounds: !store_bounds, ..pol }, ..base.clone() },
            Manifest { policy: PolicySet { rsp_integrity: !rsp_integrity, ..pol }, ..base.clone() },
            Manifest { policy: PolicySet { cfi: !cfi, ..pol }, ..base.clone() },
            Manifest { policy: PolicySet { aex: !aex, ..pol }, ..base.clone() },
            Manifest { policy: PolicySet { q: q + 1, ..pol }, ..base.clone() },
            Manifest { policy: PolicySet { elide_guards: !elide_guards, ..pol }, ..base.clone() },
        ];
        let mut digests = vec![manifest_digest(&base)];
        for v in &variants {
            let d = manifest_digest(v);
            assert!(!digests.contains(&d), "digest ignores a field change: {v:?}");
            digests.push(d);
        }
    }
}
