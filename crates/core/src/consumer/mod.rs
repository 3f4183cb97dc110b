//! The trusted code consumer inside the bootstrap enclave: dynamic loader,
//! policy verifier and immediate rewriter (paper Fig. 2/3, Section IV-D).
//!
//! The consumer is deliberately tiny and does no binary rewriting beyond
//! relocation and placeholder substitution — all heavy lifting happened in
//! the untrusted producer, which is what lets the TCB stay small
//! (Table I of the paper).

pub mod loader;
pub mod rewriter;
pub mod verifier;

use crate::policy::Manifest;
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_sgx_sim::mem::Memory;
use std::error::Error as StdError;
use std::fmt;

pub use loader::{load, resolve, LoadError, LoadedProgram, ResolvedImage};
pub use rewriter::{rewrite, Bindings};
pub use verifier::{discover, verify, verify_with_layout, Verified, VerifyError};

use crate::annotations::SSA_MARKER_VALUE;

/// Rejection reasons of the full install pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InstallError {
    /// The loader rejected the binary.
    Load(LoadError),
    /// The verifier rejected the binary.
    Verify(VerifyError),
}

impl fmt::Display for InstallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstallError::Load(e) => write!(f, "load rejected: {e}"),
            InstallError::Verify(e) => write!(f, "verification rejected: {e}"),
        }
    }
}

impl StdError for InstallError {}

impl From<LoadError> for InstallError {
    fn from(e: LoadError) -> Self {
        InstallError::Load(e)
    }
}

impl From<VerifyError> for InstallError {
    fn from(e: VerifyError) -> Self {
        InstallError::Verify(e)
    }
}

/// A fully installed program: loaded, verified, rewritten, control state
/// armed; ready for the runtime to execute.
#[derive(Debug, Clone)]
pub struct Installed {
    /// Loader output (addresses, symbols, code hash).
    pub program: LoadedProgram,
    /// Verifier output (disassembly and annotation instances).
    pub verified: Verified,
}

/// The whole consumer pipeline: parse + relocate (steps 2–3 of Fig. 3),
/// verify (step 4), rewrite immediates (step 5), and arm the shadow stack,
/// SSA marker and AEX counter.
///
/// # Errors
///
/// Returns [`InstallError`] on any load or verification failure; on error
/// the enclave must be discarded, never run.
pub fn install(
    binary: &[u8],
    manifest: &Manifest,
    mem: &mut Memory,
) -> Result<Installed, InstallError> {
    install_impl(binary, manifest, mem, true)
}

/// The trusted-replay variant of [`install`]: runs the loader and
/// re-derives the rewriter inputs via [`discover`], but executes **no**
/// policy check phase. It exists solely for the sealed install cache
/// (`crate::sealed`), whose MAC attests that the full verifying pipeline
/// already accepted the identical binary under the identical measurement
/// and manifest; because the pipeline is deterministic in those inputs,
/// this rebuild produces the byte-identical post-rewrite image. Calling it
/// on a binary without such a proof installs unverified code — never do
/// that.
///
/// # Errors
///
/// Returns [`InstallError`] if the loader rejects the binary or the image
/// cannot even be re-derived (corrupted code window).
pub fn install_trusted(
    binary: &[u8],
    manifest: &Manifest,
    mem: &mut Memory,
) -> Result<Installed, InstallError> {
    install_impl(binary, manifest, mem, false)
}

fn install_impl(
    binary: &[u8],
    manifest: &Manifest,
    mem: &mut Memory,
    verify: bool,
) -> Result<Installed, InstallError> {
    let layout: EnclaveLayout = mem.layout().clone();
    let program = load(binary, mem)?;
    let code =
        mem.peek_bytes(layout.code.start, program.code_len).expect("loader wrote the code window");
    let entry = (program.entry_va - layout.code.start) as usize;
    let verified = if verify {
        verify_with_layout(&code, entry, &program.ibt_offsets, &manifest.policy, &layout)?
    } else {
        discover(&code, entry, &program.ibt_offsets)?
    };
    let bindings =
        Bindings::from_layout(&layout, program.ibt_addresses.len() as u64, manifest.aex_threshold);
    rewrite(mem, layout.code.start, &verified, &bindings);

    // Arm the control state the annotations rely on.
    mem.poke_u64(layout.shadow_sp_slot(), layout.shadow_stack.end).expect("control page mapped");
    mem.poke_u64(layout.aex_count_slot(), 0).expect("control page mapped");
    mem.poke_u64(layout.ssa_marker_slot(), SSA_MARKER_VALUE as u64).expect("ssa mapped");

    Ok(Installed { program, verified })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicySet;
    use crate::producer::produce;
    use deflection_sgx_sim::layout::MemConfig;

    const SRC: &str = "
        var g: [int; 4];
        fn main() -> int { g[0] = 1; return g[0]; }
    ";

    #[test]
    fn install_accepts_matching_policy() {
        let manifest = Manifest::ccaas();
        let obj = produce(SRC, &manifest.policy).unwrap();
        let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
        let installed = install(&obj.serialize(), &manifest, &mut mem).unwrap();
        assert!(!installed.verified.instances.is_empty());
        // Control state armed.
        let layout = mem.layout().clone();
        assert_eq!(mem.peek_u64(layout.shadow_sp_slot()).unwrap(), layout.shadow_stack.end);
        assert_eq!(mem.peek_u64(layout.ssa_marker_slot()).unwrap(), SSA_MARKER_VALUE as u64);
    }

    #[test]
    fn trusted_install_rebuilds_identical_image() {
        let manifest = Manifest::ccaas();
        let obj = produce(SRC, &manifest.policy).unwrap();
        let mut a = Memory::new(EnclaveLayout::new(MemConfig::small()));
        let verified = install(&obj.serialize(), &manifest, &mut a).unwrap();
        let mut b = Memory::new(EnclaveLayout::new(MemConfig::small()));
        let trusted = install_trusted(&obj.serialize(), &manifest, &mut b).unwrap();
        // The deterministic pipeline re-derives the byte-identical code
        // window and the same instance set without running any checks.
        let layout = a.layout().clone();
        let len = layout.code.len() as usize;
        assert_eq!(
            a.peek_bytes(layout.code.start, len).unwrap(),
            b.peek_bytes(layout.code.start, len).unwrap()
        );
        assert_eq!(verified.verified.instances.len(), trusted.verified.instances.len());
        assert_eq!(verified.program.code_hash, trusted.program.code_hash);
    }

    #[test]
    fn install_rejects_underinstrumented_binary() {
        let manifest = Manifest::ccaas(); // requires full policy
        let obj = produce(SRC, &PolicySet::p1()).unwrap();
        let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
        let err = install(&obj.serialize(), &manifest, &mut mem).unwrap_err();
        assert!(matches!(err, InstallError::Verify(_)));
    }

    #[test]
    fn install_rejects_garbage() {
        let manifest = Manifest::ccaas();
        let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
        assert!(matches!(install(b"garbage", &manifest, &mut mem), Err(InstallError::Load(_))));
    }
}
