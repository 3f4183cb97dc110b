//! Parallel/serial verifier equivalence: the sharded verifier must return a
//! verdict — accepted instruction list, annotation instances, or the exact
//! rejection error — that is bit-identical to the serial verifier at every
//! thread count, for honest binaries, for the whole attack corpus, and for
//! randomly mutated binaries.
//!
//! This is the property that lets the TCB count only the serial path: the
//! parallel path is a scheduling change, never a semantic one.

use deflection::core::annotations::Instance;
use deflection::core::attack::{corpus, elision_corpus};
use deflection::core::consumer::{
    load, verify_with_layout, verify_with_layout_threaded, VerifyError,
};
use deflection::core::policy::PolicySet;
use deflection::core::producer::produce;
use deflection::isa::Inst;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::Memory;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Everything observable about a verification outcome: the full
/// address-ordered instruction list and annotation instances on accept, the
/// exact error on reject.
type Verdict = Result<(Vec<(usize, Inst, usize)>, Vec<Instance>), VerifyError>;

/// Loads `binary` exactly the way `install` does and verifies the relocated
/// code window with `threads` workers. Returns `None` when the loader
/// rejects the binary (verification never runs, so there is nothing to
/// compare).
fn verdict(binary: &[u8], policy: &PolicySet, threads: usize) -> Option<Verdict> {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut mem = Memory::new(layout.clone());
    let program = load(binary, &mut mem).ok()?;
    let code =
        mem.peek_bytes(layout.code.start, program.code_len).expect("loader wrote the code window");
    let entry = (program.entry_va - layout.code.start) as usize;
    let result = if threads == 1 {
        verify_with_layout(&code, entry, &program.ibt_offsets, policy, &layout)
    } else {
        verify_with_layout_threaded(&code, entry, &program.ibt_offsets, policy, &layout, threads)
    };
    Some(result.map(|v| (v.insts, v.instances)))
}

/// Asserts serial and parallel verdicts agree for one binary/policy pair.
fn assert_equivalent(name: &str, binary: &[u8], policy: &PolicySet) {
    let serial = verdict(binary, policy, 1);
    for threads in THREAD_COUNTS {
        let parallel = verdict(binary, policy, threads);
        assert_eq!(serial, parallel, "{name}: verdict diverged at {threads} threads");
    }
}

#[test]
fn attack_corpus_verdicts_identical_across_thread_counts() {
    let policy = PolicySet::full();
    for attack in corpus() {
        assert_equivalent(attack.name, &attack.binary.serialize(), &policy);
    }
}

#[test]
fn elision_corpus_verdicts_identical_across_thread_counts() {
    // The elision corpus exists to stress the abstract interpreter, so this
    // also pins the threaded analysis (modular fixpoints) to the serial one
    // through the verifier's own accept/reject surface.
    let policy = PolicySet::full().with_elision();
    for attack in elision_corpus() {
        assert_equivalent(attack.name, &attack.binary.serialize(), &policy);
    }
}

const HONEST: &str = "
var data: [int; 32];
fn helper(x: int) -> int { return x * 3 + 1; }
fn main() -> int {
    var n: int = input_len();
    var f: fn(int) -> int = &helper;
    var i: int = 0;
    while (i < 32) {
        data[i] = f(i + n);
        i = i + 1;
    }
    output_byte(0, data[31] & 0xFF);
    send(1);
    return data[31];
}
";

#[test]
fn honest_binary_accepted_identically_at_every_thread_count() {
    for policy in [PolicySet::full(), PolicySet::full().with_elision()] {
        let binary = produce(HONEST, &policy).expect("compiles").serialize();
        let serial = verdict(&binary, &policy, 1).expect("honest binary loads");
        assert!(serial.is_ok(), "honest binary must verify serially");
        for threads in THREAD_COUNTS {
            assert_eq!(
                Some(&serial),
                verdict(&binary, &policy, threads).as_ref(),
                "honest verdict diverged at {threads} threads"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random byte flips over an honest instrumented binary: whatever the
    /// serial verifier decides — accept, or reject with a specific error —
    /// the parallel verifier must decide identically.
    #[test]
    fn mutated_binaries_verify_identically(
        positions in proptest::collection::vec((0usize..20_000, any::<u8>()), 1..6)
    ) {
        let policy = PolicySet::full().with_elision();
        let mut binary = produce(HONEST, &policy).expect("compiles").serialize();
        for (pos, xor) in positions {
            let idx = pos % binary.len();
            binary[idx] ^= xor;
        }
        let serial = verdict(&binary, &policy, 1);
        // Mutants the loader rejects never reach the verifier; skip them.
        prop_assume!(serial.is_some());
        for threads in THREAD_COUNTS {
            let parallel = verdict(&binary, &policy, threads);
            prop_assert_eq!(&serial, &parallel, "diverged at {} threads", threads);
        }
    }
}
