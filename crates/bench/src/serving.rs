//! Shared rig for the multi-tenant serving experiments: the mixed
//! workload set (https, credit, genome seqgen, two nBench kernels and
//! the stateful KV session), a pool, and an admission frontend with every
//! workload registered as a tenant. Used by the `fig_serving` bench and
//! the `loadgen` bin so both drive exactly the same traffic through the
//! real frontend and pool.

use deflection_core::admission::{AdmissionConfig, AdmissionFrontend, Ticket};
use deflection_core::policy::{Manifest, PolicySet};
use deflection_core::pool::EnclavePool;
use deflection_core::producer::produce;
use deflection_core::tenant::{TenantConfig, TenantId, TenantRegistry};
use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
use deflection_workloads::{credit, genome, kv, nbench, server};

/// Fuel budget for serving runs (matches the workloads runner default).
pub const FUEL: u64 = 2_000_000_000;
/// Requests per mixed admission batch.
pub const BATCH: usize = 32;

/// One tenant of the mixed serving workload: DCL source plus a request
/// generator (requests vary by index so batches are not degenerate).
pub struct Workload {
    /// Display name.
    pub name: &'static str,
    /// DCL source (prelude included).
    pub source: String,
    /// Request payload for the `i`-th request of a session.
    pub request: fn(u64) -> Vec<u8>,
}

/// The mixed multi-tenant workload set.
#[must_use]
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload { name: "https", source: server::source(), request: |i| server::request(i, 2048) },
        Workload { name: "credit", source: credit::source(), request: |_| credit::input(50, 10) },
        Workload {
            name: "seqgen",
            source: genome::seqgen_source(),
            request: |_| genome::seqgen_input(2_000),
        },
        Workload {
            name: "numeric_sort",
            source: nbench::numeric_sort::source(),
            request: |_| nbench::numeric_sort::input(2),
        },
        Workload {
            name: "idea",
            source: nbench::idea::source(),
            request: |_| nbench::idea::input(2),
        },
        Workload {
            name: "kv",
            source: kv::source(),
            request: |i| kv::session_request(7, i as i64),
        },
    ]
}

/// The pool manifest all serving experiments run under (full policy).
#[must_use]
pub fn serving_manifest() -> Manifest {
    let mut m = Manifest::ccaas();
    m.policy = PolicySet::full();
    m
}

/// A pool with every workload produced as its own tenant binary, plus
/// one interleaved mixed batch of request payloads.
pub struct Rig {
    /// The worker pool (persists across rounds, so its prepared-image
    /// cache makes steady-state tenant switches replays).
    pub pool: EnclavePool,
    /// One produced binary per workload, in [`workloads`] order.
    pub binaries: Vec<Vec<u8>>,
    /// `(workload index, payload)` for one mixed batch.
    pub requests: Vec<(usize, Vec<u8>)>,
}

/// Builds the serving rig with `workers` pool workers.
///
/// # Panics
///
/// Panics if a workload fails to produce — bench fixtures are trusted.
#[must_use]
pub fn rig(workers: usize) -> Rig {
    let m = serving_manifest();
    let loads = workloads();
    let binaries: Vec<Vec<u8>> = loads
        .iter()
        .map(|w| produce(&w.source, &m.policy).expect("workload verifies").serialize())
        .collect();
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut pool = EnclavePool::new(&layout, &m, workers);
    pool.set_owner_session([3; 32]);
    // Keep every tenant image cached so steady-state batches replay
    // instead of re-verifying.
    pool.set_prepared_cap(binaries.len() + 1);
    let requests: Vec<(usize, Vec<u8>)> = (0..BATCH as u64)
        .map(|i| {
            let wl = (i as usize) % loads.len();
            (wl, (loads[wl].request)(i))
        })
        .collect();
    Rig { pool, binaries, requests }
}

/// A fresh admission frontend under `config` with every rig binary
/// registered as a tenant, in [`workloads`] order. Each tenant may have a
/// full queue and a full batch in flight, so only the queue's high-water
/// mark sheds.
///
/// # Panics
///
/// Panics if a rig binary is refused registration — bench fixtures are
/// trusted.
#[must_use]
pub fn frontend(r: &Rig, config: AdmissionConfig) -> (AdmissionFrontend, Vec<TenantId>) {
    let m = serving_manifest();
    let max_in_flight = config.queue_capacity + config.batch_max;
    let frontend = AdmissionFrontend::new(config, TenantRegistry::new(&m));
    let tenants = r
        .binaries
        .iter()
        .enumerate()
        .map(|(i, b)| {
            frontend
                .register(TenantConfig {
                    name: format!("t{i}"),
                    binary: b.clone(),
                    manifest: m.clone(),
                    max_in_flight,
                    lifetime_output_budget: None,
                })
                .expect("tenant fits pool")
        })
        .collect();
    (frontend, tenants)
}

/// One admission round: fresh frontend, every workload registered as a
/// tenant, the rig's mixed batch submitted, dispatcher run, verdicts
/// awaited. Returns a checksum over the exit values (so callers can
/// detect silent corruption across rounds).
///
/// # Panics
///
/// Panics if any request of the trusted fixture batch is shed or fails.
pub fn admission_round(r: &mut Rig) -> u64 {
    let (frontend, tenants) = frontend(
        r,
        AdmissionConfig { queue_capacity: 2 * BATCH, high_water: 2 * BATCH, batch_max: BATCH },
    );
    let tickets: Vec<Ticket> = r
        .requests
        .iter()
        .map(|(wl, payload)| {
            frontend.submit(tenants[*wl], payload.clone()).expect("under high water")
        })
        .collect();
    frontend.close();
    frontend.run_dispatcher(&mut r.pool, FUEL);
    let mut acc = 0u64;
    for t in tickets {
        let report = t.wait().expect("mixed batch serves");
        acc = acc.wrapping_add(report.exit.exit_value().unwrap_or(0));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_admission_round_is_reproducible_for_stateless_tenants() {
        // Two rigs served the same batch agree on every stateless
        // tenant's verdict; the KV tenant is session-stateful, so the
        // round checksum is compared on a fresh rig at the same session
        // position instead of across positions.
        let mut a = rig(1);
        let mut b = rig(1);
        assert_eq!(admission_round(&mut a), admission_round(&mut b));
    }
}
