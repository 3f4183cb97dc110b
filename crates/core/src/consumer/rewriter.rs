//! The immediate-operand rewriter.
//!
//! The last consumer step before execution (paper Section V-B): "resolve and
//! replace the Imm operands in instrumentations, including the base of the
//! shadow stack, and the addresses of indirect branch targets". The rewriter
//! only touches the placeholder immediates at the positions the verifier
//! proved to be annotation instructions — it never scans for magic values in
//! program code, so a program that happens to contain a placeholder-looking
//! constant is unaffected.

use crate::annotations::{Instance, TemplateKind};
use crate::consumer::verifier::Verified;
use deflection_sgx_sim::layout::EnclaveLayout;
use deflection_sgx_sim::mem::Memory;

/// Concrete values bound to the annotation placeholders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bindings {
    /// P1 lower bound (start of the writable data window).
    pub store_lo: u64,
    /// P1 upper bound (end of the writable data window, exclusive).
    pub store_hi: u64,
    /// P2 lower bound (stack start).
    pub stack_lo: u64,
    /// P2 upper bound (stack end, inclusive-as-empty).
    pub stack_hi: u64,
    /// P5 branch-table base address.
    pub bt_base: u64,
    /// P5 branch-table entry count.
    pub bt_len: u64,
    /// P5 shadow-stack top-pointer slot address.
    pub ss_slot: u64,
    /// P6 SSA marker address.
    pub ssa_marker: u64,
    /// P6 AEX counter slot address.
    pub aex_slot: u64,
    /// P6 AEX abort threshold.
    pub aex_max: u64,
}

impl Bindings {
    /// Derives the standard bindings from the enclave layout, the loaded
    /// table length, and the manifest's AEX threshold.
    #[must_use]
    pub fn from_layout(layout: &EnclaveLayout, bt_len: u64, aex_max: u64) -> Self {
        Bindings {
            store_lo: layout.store_window().start,
            store_hi: layout.store_window().end,
            stack_lo: layout.stack.start,
            stack_hi: layout.stack.end,
            bt_base: layout.branch_table.start,
            bt_len,
            ss_slot: layout.shadow_sp_slot(),
            ssa_marker: layout.ssa_marker_slot(),
            aex_slot: layout.aex_count_slot(),
            aex_max,
        }
    }
}

/// `(instruction index relative to instance start, placeholder role)` pairs
/// of the `MovRI` placeholders each template carries.
fn placeholder_sites(kind: TemplateKind) -> &'static [(usize, PlaceholderRole)] {
    match kind {
        TemplateKind::StoreGuard => &[(3, PlaceholderRole::StoreLo), (7, PlaceholderRole::StoreHi)],
        TemplateKind::RspGuard => &[(0, PlaceholderRole::StackLo), (4, PlaceholderRole::StackHi)],
        TemplateKind::CfiChecked => &[(0, PlaceholderRole::BtLen), (4, PlaceholderRole::BtBase)],
        TemplateKind::CfiUnchecked => &[(0, PlaceholderRole::BtBase)],
        TemplateKind::Prologue | TemplateKind::Epilogue => &[(0, PlaceholderRole::SsSlot)],
        TemplateKind::AexCheck => &[
            (0, PlaceholderRole::SsaMarker),
            (10, PlaceholderRole::AexSlot),
            (14, PlaceholderRole::AexMax),
            (18, PlaceholderRole::SsaMarker),
        ],
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlaceholderRole {
    StoreLo,
    StoreHi,
    StackLo,
    StackHi,
    BtBase,
    BtLen,
    SsSlot,
    SsaMarker,
    AexSlot,
    AexMax,
}

impl PlaceholderRole {
    fn value(self, b: &Bindings) -> u64 {
        match self {
            PlaceholderRole::StoreLo => b.store_lo,
            PlaceholderRole::StoreHi => b.store_hi,
            PlaceholderRole::StackLo => b.stack_lo,
            PlaceholderRole::StackHi => b.stack_hi,
            PlaceholderRole::BtBase => b.bt_base,
            PlaceholderRole::BtLen => b.bt_len,
            PlaceholderRole::SsSlot => b.ss_slot,
            PlaceholderRole::SsaMarker => b.ssa_marker,
            PlaceholderRole::AexSlot => b.aex_slot,
            PlaceholderRole::AexMax => b.aex_max,
        }
    }
}

/// The post-rewrite instruction stream: the verifier's decoded instructions
/// with every placeholder immediate replaced by its bound value — exactly
/// what re-decoding the code window after [`rewrite`] yields (the `MovRI`
/// encoding is fixed-length, so patching an immediate moves no offsets).
///
/// The install path feeds this to the VM's instruction cache: the program
/// is decoded once by the producer and once by the in-enclave verifier,
/// and pre-warming from the verifier's own decode means execution never
/// pays for a third pass.
#[must_use]
pub fn rewritten_insts(
    verified: &Verified,
    bindings: &Bindings,
) -> Vec<(usize, deflection_isa::Inst, usize)> {
    let mut insts = verified.disassembly.insts().to_vec();
    for instance in &verified.instances {
        for &(rel_idx, role) in placeholder_sites(instance.kind) {
            let idx = instance.start_idx + rel_idx;
            if let deflection_isa::Inst::MovRI { dst, .. } = insts[idx].1 {
                insts[idx].1 = deflection_isa::Inst::MovRI { dst, imm: role.value(bindings) };
            } else {
                debug_assert!(false, "placeholder site must be a MovRI (verifier checked)");
            }
        }
    }
    insts
}

/// Rewrites every placeholder immediate of every verified annotation
/// instance in the relocated code, in place via the privileged memory path.
///
/// `code_base` is the virtual address the verified code image starts at.
pub fn rewrite(mem: &mut Memory, code_base: u64, verified: &Verified, bindings: &Bindings) {
    for instance in &verified.instances {
        rewrite_instance(mem, code_base, verified, instance, bindings);
    }
}

fn rewrite_instance(
    mem: &mut Memory,
    code_base: u64,
    verified: &Verified,
    instance: &Instance,
    bindings: &Bindings,
) {
    for &(rel_idx, role) in placeholder_sites(instance.kind) {
        let idx = instance.start_idx + rel_idx;
        let (offset, inst, _) = verified.disassembly.insts()[idx];
        debug_assert!(
            matches!(inst, deflection_isa::Inst::MovRI { .. }),
            "placeholder site must be a MovRI (verifier checked the template)"
        );
        // MovRI encoding: opcode byte, register byte, then the 64-bit imm.
        let imm_va = code_base + offset as u64 + 2;
        mem.poke_u64(imm_va, role.value(bindings)).expect("verified code is mapped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::{PH_STORE_HI, PH_STORE_LO};
    use crate::consumer::verifier::verify;
    use crate::policy::PolicySet;
    use crate::producer::produce;
    use deflection_sgx_sim::layout::MemConfig;

    const SRC: &str = "
        var g: [int; 4];
        fn h() {}
        fn main() -> int {
            var f: fn() = &h;
            f();
            g[0] = 7;
            return g[0];
        }
    ";

    #[test]
    fn placeholders_replaced_with_bounds() {
        let policy = PolicySet::full();
        let obj = produce(SRC, &policy).unwrap();
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut mem = Memory::new(layout.clone());
        let loaded = crate::consumer::loader::load(&obj.serialize(), &mut mem).unwrap();
        let code = mem.peek_bytes(layout.code.start, loaded.code_len).unwrap();
        let entry = (loaded.entry_va - layout.code.start) as usize;
        let verified = verify(&code, entry, &loaded.ibt_offsets, &policy).unwrap();
        let bindings = Bindings::from_layout(&layout, loaded.ibt_addresses.len() as u64, 100);
        rewrite(&mut mem, layout.code.start, &verified, &bindings);

        // Re-disassemble: no placeholder immediates may remain, and the
        // real bounds must appear.
        let code2 = mem.peek_bytes(layout.code.start, loaded.code_len).unwrap();
        let d = deflection_isa::disassemble(&code2, entry, &loaded.ibt_offsets).unwrap();
        let mut saw_lo = false;
        for (_, inst, _) in d.insts() {
            if let deflection_isa::Inst::MovRI { imm, .. } = inst {
                assert_ne!(*imm, PH_STORE_LO, "placeholder must be rewritten");
                assert_ne!(*imm, PH_STORE_HI);
                if *imm == bindings.store_lo {
                    saw_lo = true;
                }
            }
        }
        assert!(saw_lo, "real lower bound must appear in rewritten code");

        // The predicted post-rewrite stream must equal what a fresh decode
        // of the patched memory actually sees — this is the contract the
        // icache pre-warm path depends on.
        let predicted = rewritten_insts(&verified, &bindings);
        let actual: Vec<(usize, deflection_isa::Inst, usize)> = d.insts().to_vec();
        assert_eq!(predicted, actual);
    }

    #[test]
    fn bindings_from_layout_are_consistent() {
        let layout = EnclaveLayout::new(MemConfig::small());
        let b = Bindings::from_layout(&layout, 5, 42);
        assert_eq!(b.store_lo, layout.heap.start);
        assert_eq!(b.store_hi, layout.stack.end);
        assert_eq!(b.bt_len, 5);
        assert_eq!(b.aex_max, 42);
        assert!(b.store_lo < b.store_hi);
        assert!(b.stack_lo < b.stack_hi);
    }
}
