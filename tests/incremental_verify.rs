//! Incremental/serial verifier equivalence: [`verify_incremental`] must
//! return a verdict — accepted instruction list, annotation instances, or
//! the exact rejection error — that is bit-identical to the serial
//! verifier, cold (empty memo) and warm (memo populated by an arbitrary
//! earlier binary), for honest builds, for the whole attack corpus, and
//! for per-function mutants. It must also re-verify *only* the expected
//! invalidation set, observed through the cache's own stats (robust
//! against unrelated tests sharing the global telemetry counters).
//!
//! This is the property that lets the TCB count only the serial path: the
//! memo is a work-avoidance change, never a semantic one.

use deflection::core::annotations::Instance;
use deflection::core::attack::{corpus, elision_corpus};
use deflection::core::consumer::incremental::{verify_incremental, IncrementalCache};
use deflection::core::consumer::{load, verify_with_layout, VerifyError};
use deflection::core::policy::PolicySet;
use deflection::core::producer::produce;
use deflection::isa::Inst;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::Memory;
use proptest::prelude::*;

/// Everything observable about a verification outcome: the full
/// address-ordered instruction list and annotation instances on accept,
/// the exact error on reject.
type Verdict = Result<(Vec<(usize, Inst, usize)>, Vec<Instance>), VerifyError>;

/// Loads `binary` exactly the way `install` does and verifies the
/// relocated code window — serially when `cache` is `None`, incrementally
/// through the given memo otherwise. Returns `None` when the loader
/// rejects the binary (verification never runs).
fn verdict(
    binary: &[u8],
    policy: &PolicySet,
    cache: Option<&mut IncrementalCache>,
) -> Option<Verdict> {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut mem = Memory::new(layout.clone());
    let program = load(binary, &mut mem).ok()?;
    let code =
        mem.peek_bytes(layout.code.start, program.code_len).expect("loader wrote the code window");
    let entry = (program.entry_va - layout.code.start) as usize;
    let result = match cache {
        None => verify_with_layout(&code, entry, &program.ibt_offsets, policy, &layout),
        Some(cache) => {
            verify_incremental(&code, entry, &program.ibt_offsets, policy, &layout, cache)
        }
    };
    Some(result.map(|v| (v.insts, v.instances)))
}

/// Asserts serial and incremental verdicts agree for one binary/policy
/// pair, both from an empty memo and from whatever `warm` already holds
/// (the warm memo is left populated by this binary for the next call).
fn assert_equivalent(name: &str, binary: &[u8], policy: &PolicySet, warm: &mut IncrementalCache) {
    let serial = verdict(binary, policy, None);
    let mut cold = IncrementalCache::new();
    assert_eq!(
        serial,
        verdict(binary, policy, Some(&mut cold)),
        "{name}: cold incremental verdict diverged"
    );
    assert_eq!(
        serial,
        verdict(binary, policy, Some(warm)),
        "{name}: warm incremental verdict diverged"
    );
}

#[test]
fn attack_corpus_verdicts_identical_cold_and_warm() {
    // One memo survives the whole corpus: every attack binary is verified
    // through a cache polluted by all previous attacks, the hardest
    // invalidation workload there is.
    let policy = PolicySet::full();
    let mut warm = IncrementalCache::new();
    for attack in corpus() {
        assert_equivalent(attack.name, &attack.binary.serialize(), &policy, &mut warm);
    }
}

#[test]
fn elision_corpus_verdicts_identical_cold_and_warm() {
    // The elision corpus stresses the abstract interpreter, so this also
    // pins the memoized fixpoints to the from-scratch analysis through
    // the verifier's own accept/reject surface.
    let policy = PolicySet::full().with_elision();
    let mut warm = IncrementalCache::new();
    for attack in elision_corpus() {
        assert_equivalent(attack.name, &attack.binary.serialize(), &policy, &mut warm);
    }
}

/// An honest build whose functions each carry a distinct constant, so a
/// single-function patch is a one-line source change.
fn honest_src(consts: &[u64]) -> String {
    let mut src = String::from("var data: [int; 32];\n");
    for (i, k) in consts.iter().enumerate() {
        src.push_str(&format!(
            "fn f{i}(x: int) -> int {{ data[{i}] = x; return data[{i}] * 3 + {k}; }}\n"
        ));
    }
    src.push_str("fn main() -> int {\n    var s: int = 0;\n");
    for i in 0..consts.len() {
        src.push_str(&format!("    s = s + f{i}({i});\n"));
    }
    src.push_str("    return s;\n}\n");
    src
}

#[test]
fn honest_build_accepted_identically_and_repatch_hits() {
    for policy in [PolicySet::full(), PolicySet::full().with_elision()] {
        let binary = produce(&honest_src(&[1, 2, 3, 4]), &policy).expect("compiles").serialize();
        let serial = verdict(&binary, &policy, None).expect("honest binary loads");
        assert!(serial.is_ok(), "honest binary must verify serially");
        let mut cache = IncrementalCache::new();
        assert_eq!(Some(&serial), verdict(&binary, &policy, Some(&mut cache)).as_ref());
        let cold = cache.last_stats();
        assert_eq!(cold.hits, 0, "empty memo cannot hit");
        assert!(cold.misses >= 5, "main + four leaves are all first sights");
        // Re-verifying the identical binary replays every function.
        assert_eq!(Some(&serial), verdict(&binary, &policy, Some(&mut cache)).as_ref());
        let warm = cache.last_stats();
        assert_eq!(warm.misses + warm.invalidated, 0, "identical binary re-verifies nothing");
        assert_eq!(warm.hits, cold.misses);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Patch one random function per round (a constant change that keeps
    /// the encoded length stable): the incremental verdict must stay
    /// bit-identical to serial, and the memo must re-verify exactly the
    /// patched function — nothing else.
    #[test]
    fn single_function_patch_invalidates_only_that_function(
        rounds in proptest::collection::vec((0usize..6, 5u64..200), 1..5)
    ) {
        let policy = PolicySet::full().with_elision();
        let mut consts = [1u64, 2, 3, 4, 1, 2];
        let mut cache = IncrementalCache::new();
        let binary = produce(&honest_src(&consts), &policy).expect("compiles").serialize();
        prop_assert_eq!(
            verdict(&binary, &policy, None),
            verdict(&binary, &policy, Some(&mut cache))
        );
        let functions = cache.last_stats().misses;
        prop_assert!(functions >= 7, "main + six leaves");
        for (which, k) in rounds {
            prop_assume!(consts[which] != k);
            consts[which] = k;
            let binary = produce(&honest_src(&consts), &policy).expect("compiles").serialize();
            let serial = verdict(&binary, &policy, None);
            prop_assert_eq!(&serial, &verdict(&binary, &policy, Some(&mut cache)));
            let s = cache.last_stats();
            prop_assert_eq!(
                s.misses + s.invalidated, 1,
                "exactly the patched function re-verifies (got {} misses, {} invalidated)",
                s.misses, s.invalidated
            );
            prop_assert_eq!(s.hits, functions - 1);
        }
    }

    /// Random byte flips over an honest instrumented binary: whatever the
    /// serial verifier decides — accept, or reject with a specific error —
    /// a warm incremental verifier must decide identically.
    #[test]
    fn mutated_binaries_verify_identically(
        positions in proptest::collection::vec((0usize..20_000, any::<u8>()), 1..6)
    ) {
        let policy = PolicySet::full().with_elision();
        let honest = produce(&honest_src(&[1, 2, 3, 4]), &policy).expect("compiles").serialize();
        let mut cache = IncrementalCache::new();
        // Warm the memo with the honest build, then mutate.
        let _ = verdict(&honest, &policy, Some(&mut cache));
        let mut binary = honest;
        for (pos, xor) in positions {
            let idx = pos % binary.len();
            binary[idx] ^= xor;
        }
        let serial = verdict(&binary, &policy, None);
        // Mutants the loader rejects never reach the verifier; skip them.
        prop_assume!(serial.is_some());
        prop_assert_eq!(&serial, &verdict(&binary, &policy, Some(&mut cache)));
    }
}

#[test]
fn memo_counters_reach_global_telemetry() {
    use deflection::telemetry::{Collector, METRICS};
    // Counters are no-ops until the collector is enabled; parallel tests
    // share the global registry, so assert only >= deltas and leave the
    // collector enabled rather than racing a disable.
    Collector::enable();
    let policy = PolicySet::full();
    let binary = produce(&honest_src(&[1, 2]), &policy).expect("compiles").serialize();
    let before_miss = METRICS.verify_memo_misses.get();
    let mut cache = IncrementalCache::new();
    let _ = verdict(&binary, &policy, Some(&mut cache));
    let before_hit = METRICS.verify_memo_hits.get();
    let _ = verdict(&binary, &policy, Some(&mut cache));
    assert!(METRICS.verify_memo_misses.get() >= before_miss + 3, "main + two leaves missed");
    assert!(METRICS.verify_memo_hits.get() >= before_hit + 3, "replay hits surfaced globally");
}
