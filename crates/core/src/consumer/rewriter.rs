//! The immediate-operand rewriter.
//!
//! The last consumer step before execution (paper Section V-B): "resolve and
//! replace the Imm operands in instrumentations, including the base of the
//! shadow stack, and the addresses of indirect branch targets". The rewriter
//! only touches the placeholder immediates at the positions the verifier
//! proved to be annotation instructions — it never scans for magic values in
//! program code, so a program that happens to contain a placeholder-looking
//! constant is unaffected.

use crate::annotations::{
    Step, PH_AEX_MAX, PH_AEX_SLOT, PH_BT_BASE, PH_BT_LEN, PH_SSA_MARKER, PH_SS_SLOT, PH_STACK_HI,
    PH_STACK_LO, PH_STORE_HI, PH_STORE_LO,
};
use crate::consumer::verifier::Verified;
use deflection_isa::{Inst, Reg};
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

impl Bindings {
    /// The value bound to the placeholder immediate `ph`; any other
    /// immediate maps to itself.
    fn value(&self, ph: u64) -> u64 {
        match ph {
            PH_STORE_LO => self.store_lo,
            PH_STORE_HI => self.store_hi,
            PH_STACK_LO => self.stack_lo,
            PH_STACK_HI => self.stack_hi,
            PH_BT_BASE => self.bt_base,
            PH_BT_LEN => self.bt_len,
            PH_SS_SLOT => self.ss_slot,
            PH_SSA_MARKER => self.ssa_marker,
            PH_AEX_SLOT => self.aex_slot,
            PH_AEX_MAX => self.aex_max,
            _ => ph,
        }
    }
}

/// `(instruction index, register, bound value)` of every placeholder
/// `MovRI` in the verified instances: each template's `MovRI` steps, which
/// the verifier matched exactly.
fn placeholders<'a>(
    verified: &'a Verified,
    bindings: &'a Bindings,
) -> impl Iterator<Item = (usize, Reg, u64)> + 'a {
    verified.instances.iter().flat_map(move |instance| {
        let steps = instance.kind.template().steps.iter().enumerate();
        steps.filter_map(move |(k, step)| match *step {
            Step::Is(Inst::MovRI { dst, imm }) => {
                Some((instance.start_idx + k, dst, bindings.value(imm)))
            }
            _ => None,
        })
    })
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
pub fn rewritten_insts(verified: &Verified, bindings: &Bindings) -> Vec<(usize, Inst, usize)> {
    let mut insts = verified.disassembly.insts().to_vec();
    for (idx, dst, imm) in placeholders(verified, bindings) {
        insts[idx].1 = Inst::MovRI { dst, imm };
    }
    insts
}

/// Rewrites every placeholder immediate of every verified annotation
/// instance in the relocated code, in place via the privileged memory path.
///
/// `code_base` is the virtual address the verified code image starts at.
pub fn rewrite(mem: &mut Memory, code_base: u64, verified: &Verified, bindings: &Bindings) {
    for (idx, _, imm) in placeholders(verified, bindings) {
        // MovRI encoding: opcode byte, register byte, then the 64-bit imm.
        let imm_va = code_base + verified.disassembly.insts()[idx].0 as u64 + 2;
        mem.poke_u64(imm_va, imm).expect("verified code is mapped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations::PLACEHOLDER_IMMS;
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
            if let Inst::MovRI { imm, .. } = inst {
                assert!(!PLACEHOLDER_IMMS.contains(imm), "placeholder {imm:#x} must be rewritten");
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
        let actual: Vec<(usize, Inst, usize)> = d.insts().to_vec();
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
