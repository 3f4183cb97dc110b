//! # deflection-core
//!
//! The primary contribution of *"Practical and Efficient in-Enclave
//! Verification of Privacy Compliance"* (DSN 2021): the DEFLECTION model's
//! code producer, code consumer and bootstrap-enclave runtime.
//!
//! ```text
//!   untrusted producer                      trusted consumer (in enclave)
//!  ┌────────────────────┐   binary+proof   ┌──────────────────────────────┐
//!  │ DCL compiler       │ ───────────────▶ │ loader    (relocate, table)  │
//!  │ + P1..P6 passes    │                  │ verifier  (recursive descent │
//!  │ + static linker    │                  │            + annotations)    │
//!  └────────────────────┘                  │ rewriter  (bind immediates)  │
//!                                          │ runtime   (P0 wrappers, run) │
//!                                          └──────────────────────────────┘
//! ```
//!
//! * [`policy`] — P0–P6 switches ([`policy::PolicySet`]) and the enclave
//!   [`policy::Manifest`];
//! * [`annotations`] — the annotation templates, one table of steps that
//!   the producer emits, the verifier matches and the rewriter patches;
//! * [`producer`] — instrumentation passes and the
//!   `source → instrumented object` pipeline;
//! * [`consumer`] — loader, verifier and immediate rewriter; the
//!   [`consumer::install`] pipeline;
//! * [`runtime`] — the [`runtime::BootstrapEnclave`] ECall surface with the
//!   P0 OCall wrappers (encryption, fixed-length padding, budgets);
//! * [`pool`] — concurrent serving across isolated enclave workers
//!   (the TOCTOU-free reading of the paper's Section VII);
//! * [`admission`] / [`tenant`] — the untrusted multi-tenant admission
//!   frontend: bounded queueing, work-conserving batching and typed load
//!   shedding in front of the pool (zero TCB lines);
//! * [`audit`] — the attested in-enclave audit ring: policy-relevant
//!   events, exported only as sealed, fixed-size, budget-charged records;
//! * [`attack`] — the malicious-binary corpus every policy must contain.
//!
//! # Example
//!
//! ```
//! use deflection_core::policy::{Manifest, PolicySet};
//! use deflection_core::producer::produce;
//! use deflection_core::runtime::BootstrapEnclave;
//! use deflection_sgx_sim::layout::{EnclaveLayout, MemConfig};
//!
//! let src = "fn main() -> int { return 40 + 2; }";
//! let manifest = Manifest::ccaas();
//! let binary = produce(src, &manifest.policy)?.serialize();
//! let mut enclave = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
//! enclave.install_plain(&binary)?;
//! let report = enclave.run(1_000_000)?;
//! assert_eq!(report.exit.exit_value(), Some(42));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod annotations;
pub mod attack;
pub mod audit;
pub mod consumer;
mod flight;
pub mod policy;
pub mod pool;
pub mod producer;
pub mod runtime;
pub mod sealed;
pub mod tenant;
