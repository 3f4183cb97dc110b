//! Security policies, policy switches and the enclave manifest.
//!
//! The paper defines policies P0–P6 (Section IV-B). P0 (enclave interface
//! control) is enforced by the runtime's manifest and OCall wrappers; P1–P6
//! are enforced by security annotations the producer instruments and the
//! in-enclave verifier checks. Like the paper's IR-level switches (Section
//! V-A), [`PolicySet`] selects which passes run, and the evaluation's four
//! measurement levels (`P1`, `P1+P2`, `P1–P5`, `P1–P6`) are provided as
//! constructors.

use deflection_isa::OcallCode;

/// Runtime abort codes carried by `abort` instructions, one per policy.
pub mod abort_codes {
    /// P1/P3/P4: store outside the permitted window.
    pub const STORE_BOUNDS: u8 = 1;
    /// P2: stack pointer left the stack region.
    pub const RSP_BOUNDS: u8 = 2;
    /// P5: indirect-branch index out of table range.
    pub const CFI_FORWARD: u8 = 5;
    /// P5: return address mismatch against the shadow stack.
    pub const CFI_RETURN: u8 = 7;
    /// P6: AEX threshold exceeded or co-location alarm.
    pub const AEX: u8 = 6;
}

/// Which annotation passes are applied / verified.
///
/// `store_bounds` covers P1, P3 and P4 together: the paper notes the same
/// check template enforces all three "via different boundaries", and the
/// rewriter points the bounds at the data window that excludes both the
/// security-critical pages (P3) and the RWX code pages (P4, software DEP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicySet {
    /// P1 (+P3/P4): bounds-check every memory store.
    pub store_bounds: bool,
    /// P2: check `rsp` after every explicit stack-pointer write.
    pub rsp_integrity: bool,
    /// P5: forward-edge CFI (branch-table bound check) and shadow-stack
    /// return protection.
    pub cfi: bool,
    /// P6: per-basic-block SSA marker checks with AEX counting.
    pub aex: bool,
    /// P6 granularity: a marker check at least every `q` instructions
    /// within a basic block.
    pub q: u32,
    /// Guard elision: the producer may drop P1/P2 annotations on operations
    /// its abstract interpretation proves safe, and the verifier accepts an
    /// unguarded operation only after *its own* in-enclave run of the same
    /// analysis re-derives the proof (no producer hints cross the boundary).
    pub elide_guards: bool,
}

impl PolicySet {
    /// No annotations at all (the baseline the paper measures against).
    #[must_use]
    pub fn none() -> Self {
        PolicySet {
            store_bounds: false,
            rsp_integrity: false,
            cfi: false,
            aex: false,
            q: 20,
            elide_guards: false,
        }
    }

    /// Evaluation level "P1": explicit store checks only.
    #[must_use]
    pub fn p1() -> Self {
        PolicySet { store_bounds: true, ..Self::none() }
    }

    /// Evaluation level "P1+P2": store checks plus RSP integrity.
    #[must_use]
    pub fn p1_p2() -> Self {
        PolicySet { store_bounds: true, rsp_integrity: true, ..Self::none() }
    }

    /// Evaluation level "P1–P5": all memory-write and control-flow checks.
    #[must_use]
    pub fn p1_p5() -> Self {
        PolicySet { store_bounds: true, rsp_integrity: true, cfi: true, ..Self::none() }
    }

    /// Evaluation level "P1–P6": everything, including side/covert-channel
    /// mitigation.
    #[must_use]
    pub fn full() -> Self {
        PolicySet { store_bounds: true, rsp_integrity: true, cfi: true, aex: true, ..Self::none() }
    }

    /// Turns on guard elision (producer strips provably safe P1/P2
    /// annotations; the verifier re-proves every elision in-enclave).
    #[must_use]
    pub fn with_elision(mut self) -> Self {
        self.elide_guards = true;
        self
    }

    /// The four levels in the order the paper's tables report them.
    #[must_use]
    pub fn levels() -> [(&'static str, PolicySet); 4] {
        [
            ("P1", Self::p1()),
            ("P1+P2", Self::p1_p2()),
            ("P1-P5", Self::p1_p5()),
            ("P1-P6", Self::full()),
        ]
    }
}

impl Default for PolicySet {
    fn default() -> Self {
        Self::full()
    }
}

/// The bootstrap enclave's manifest — the EDL-file analogue (Section V-B):
/// which OCalls the loaded binary may make, how P0 shapes the output
/// channel, and the P6 threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// OCall service codes the wrappers accept; anything else faults.
    pub allowed_ocalls: Vec<u8>,
    /// Every outgoing record is padded to exactly this many plaintext bytes
    /// before sealing (P0 entropy control).
    pub output_record_len: usize,
    /// Upper bound on total plaintext bytes the program may emit per run
    /// (P0 entropy budget); `send` faults beyond it. The counter resets at
    /// the start of every [`crate::runtime::BootstrapEnclave::run`], so a
    /// long-lived worker serving many in-budget requests never accumulates
    /// spurious budget pressure.
    pub output_budget: usize,
    /// Optional cap on total plaintext bytes over the enclave's whole
    /// lifetime, tracked by a ledger that never resets (and survives pool
    /// respawns of the same slot). `None` leaves cumulative output
    /// unbounded — the per-run budget alone matches the paper's
    /// per-inference P0 entropy control; deployments that need a hard
    /// bound on `budget × runs` leakage set this.
    pub lifetime_output_budget: Option<u64>,
    /// Capacity of the input buffer placed in the heap.
    pub input_capacity: usize,
    /// Capacity of the output staging buffer.
    pub output_capacity: usize,
    /// P6: abort once this many AEX events have been counted.
    pub aex_threshold: u64,
    /// Optional processing-time blurring (paper Section VII): when set, the
    /// runtime pads every run to the next multiple of this many instructions
    /// before releasing its output, closing the completion-time covert
    /// channel.
    pub time_blur_quantum: Option<u64>,
    /// The policy set the verifier must see enforced in the binary.
    pub policy: PolicySet,
}

impl Manifest {
    /// A permissive default for the CCaaS setting: `send`/`recv`/`log`/
    /// `clock` allowed, 256-byte records, generous budget.
    #[must_use]
    pub fn ccaas() -> Self {
        Manifest {
            allowed_ocalls: vec![
                OcallCode::Send as u8,
                OcallCode::Recv as u8,
                OcallCode::Log as u8,
                OcallCode::Clock as u8,
            ],
            output_record_len: 256,
            output_budget: 1 << 20,
            lifetime_output_budget: None,
            input_capacity: 1 << 20,
            output_capacity: 1 << 20,
            aex_threshold: 1000,
            time_blur_quantum: None,
            policy: PolicySet::full(),
        }
    }

    /// Whether OCall `code` is allowed.
    #[must_use]
    pub fn allows(&self, code: u8) -> bool {
        self.allowed_ocalls.contains(&code)
    }

    /// Serializes the manifest as canonical JSON — the encoding
    /// [`crate::runtime::manifest_digest`] hashes to bind sealed install
    /// images to one manifest. Hand-rolled: the enclave TCB takes no
    /// serialization dependency.
    #[must_use]
    pub fn to_json(&self) -> String {
        let ocalls: Vec<String> = self.allowed_ocalls.iter().map(u8::to_string).collect();
        let blur = match self.time_blur_quantum {
            Some(v) => v.to_string(),
            None => "null".into(),
        };
        let lifetime = match self.lifetime_output_budget {
            Some(v) => v.to_string(),
            None => "null".into(),
        };
        let p = &self.policy;
        format!(
            concat!(
                "{{\"allowed_ocalls\":[{}],\"output_record_len\":{},",
                "\"output_budget\":{},\"lifetime_output_budget\":{},",
                "\"input_capacity\":{},\"output_capacity\":{},",
                "\"aex_threshold\":{},\"time_blur_quantum\":{},\"policy\":{{",
                "\"store_bounds\":{},\"rsp_integrity\":{},\"cfi\":{},\"aex\":{},",
                "\"q\":{},\"elide_guards\":{}}}}}"
            ),
            ocalls.join(","),
            self.output_record_len,
            self.output_budget,
            lifetime,
            self.input_capacity,
            self.output_capacity,
            self.aex_threshold,
            blur,
            p.store_bounds,
            p.rsp_integrity,
            p.cfi,
            p.aex,
            p.q,
            p.elide_guards,
        )
    }
}

impl Default for Manifest {
    fn default() -> Self {
        Self::ccaas()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_monotone() {
        let levels = PolicySet::levels();
        assert!(!levels[0].1.rsp_integrity);
        assert!(levels[1].1.rsp_integrity && !levels[1].1.cfi);
        assert!(levels[2].1.cfi && !levels[2].1.aex);
        assert!(levels[3].1.aex);
    }

    #[test]
    fn manifest_allows() {
        let m = Manifest::ccaas();
        assert!(m.allows(OcallCode::Send as u8));
        assert!(!m.allows(99));
    }

    #[test]
    fn elision_switch_composes() {
        let p = PolicySet::full().with_elision();
        assert!(p.elide_guards && p.store_bounds && p.aex);
        assert!(!PolicySet::full().elide_guards);
    }
}
