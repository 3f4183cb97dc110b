//! Golden verdicts of the in-enclave verifier.
//!
//! Every line of the committed `tests/verify_verdicts.txt` is one verdict
//! of [`verify_with_layout`] on the small layout, rendered as
//! `Ok(<instructions>, <annotation instances>)` or as the `Debug` of the
//! [`VerifyError`], so the rejection variant and its offset are pinned,
//! not only "rejected". The cases:
//!
//! - every `attack::corpus()` entry under `PolicySet::full()`;
//! - every `attack::elision_corpus()` entry under full plus elision;
//! - the twelve onboarding kernels (nBench, HTTPS, CREDIT), each built at
//!   every `PolicySet::levels()` level and elided, each build checked under
//!   every level and under full plus elision;
//! - per build, one SHA-256 over the verdicts of seeded mutants of its
//!   resolved text: single-byte xorshift flips and truncations, each under
//!   full and under full plus elision.
//!
//! A verifier refactor that claims to keep every verdict must leave the
//! file untouched. A deliberate verdict change regenerates it (the failing
//! run writes the fresh copy next to the test binaries and prints its
//! path) and says so in the change log.

use deflection::core::attack::{corpus, elision_corpus};
use deflection::core::consumer::{resolve, verify_with_layout, Verified, VerifyError};
use deflection::core::policy::PolicySet;
use deflection::core::producer::{produce, produce_for_layout};
use deflection::crypto::sha256::sha256;
use deflection::obj::ObjectFile;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::workloads::{credit, nbench, server};
use std::fmt::Write as _;
use std::path::Path;

/// Byte-flip mutants per build and policy.
const FLIPS: usize = 24;
/// Truncation mutants per build and policy.
const CUTS: usize = 4;

fn render(v: &Result<Verified, VerifyError>) -> String {
    match v {
        Ok(v) => format!("Ok({}, {})", v.disassembly.len(), v.instances.len()),
        Err(e) => format!("{e:?}"),
    }
}

/// The verifier's inputs for `obj`: resolved text, entry offset and
/// indirect-branch target offsets, or the loader's rejection.
fn image(obj: &ObjectFile, layout: &EnclaveLayout) -> Result<(Vec<u8>, usize, Vec<usize>), String> {
    let image = resolve(obj, layout).map_err(|e| format!("Load({e:?})"))?;
    let entry = (image.entry_va - layout.code.start) as usize;
    Ok((image.text, entry, image.ibt_offsets))
}

fn verdict(obj: &ObjectFile, policy: &PolicySet, layout: &EnclaveLayout) -> String {
    match image(obj, layout) {
        Ok((text, entry, ibt)) => render(&verify_with_layout(&text, entry, &ibt, policy, layout)),
        Err(e) => e,
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Deterministic xorshift64 seeded from the build's name, so adding a
/// build never reshuffles another build's mutants.
struct Rng(u64);

impl Rng {
    fn for_name(name: &str) -> Self {
        let h = sha256(name.as_bytes());
        let mut seed = [0u8; 8];
        seed.copy_from_slice(&h[..8]);
        Rng(u64::from_le_bytes(seed) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The verdicts of `name`'s seeded mutants, one line each.
fn mutant_verdicts(name: &str, obj: &ObjectFile, layout: &EnclaveLayout) -> String {
    let Ok((text, entry, ibt)) = image(obj, layout) else {
        return String::new();
    };
    let policies = [PolicySet::full(), PolicySet::full().with_elision()];
    let mut rng = Rng::for_name(name);
    let mut mutants: Vec<Vec<u8>> = Vec::new();
    for _ in 0..FLIPS {
        let mut m = text.clone();
        let pos = (rng.next() % text.len() as u64) as usize;
        m[pos] ^= ((rng.next() >> 24) as u8) | 1;
        mutants.push(m);
    }
    for _ in 0..CUTS {
        let cut = 1 + (rng.next() % (text.len() as u64 - 1)) as usize;
        mutants.push(text[..cut].to_vec());
    }
    let mut out = String::new();
    for m in &mutants {
        for p in &policies {
            let v = render(&verify_with_layout(m, entry, &ibt, p, layout));
            writeln!(out, "{v}").expect("string write");
        }
    }
    out
}

fn kernels() -> Vec<(&'static str, String)> {
    let mut kernels: Vec<(&str, String)> =
        nbench::all().into_iter().map(|k| (k.name, (k.source)())).collect();
    kernels.push(("HTTPS", server::source()));
    kernels.push(("CREDIT", credit::source()));
    kernels
}

/// Every verdict line, plus all the mutant verdicts (for the self-check
/// that the mutants reach the decoder's truncation path).
fn verdicts(layout: &EnclaveLayout) -> (String, String) {
    let full = PolicySet::full();
    let elide = PolicySet::full().with_elision();
    let mut out = String::new();
    for a in corpus() {
        let v = verdict(&a.binary, &full, layout);
        writeln!(out, "attack/{} under P1-P6: {v}", a.name).expect("string write");
    }
    for a in elision_corpus() {
        let v = verdict(&a.binary, &elide, layout);
        writeln!(out, "elision/{} under P1-P6+elide: {v}", a.name).expect("string write");
    }
    let mut checks: Vec<(&str, PolicySet)> = PolicySet::levels().to_vec();
    checks.push(("P1-P6+elide", elide));
    let mut all_mutants = String::new();
    for (kernel, src) in kernels() {
        let mut builds: Vec<(&str, ObjectFile)> = PolicySet::levels()
            .into_iter()
            .map(|(level, p)| (level, produce(&src, &p).expect("compiles")))
            .collect();
        builds.push(("elided", produce_for_layout(&src, &elide, layout).expect("compiles")));
        for (build, obj) in &builds {
            let name = format!("{kernel}/{build}");
            for (level, p) in &checks {
                let v = verdict(obj, p, layout);
                writeln!(out, "{name} under {level}: {v}").expect("string write");
            }
            let mutants = mutant_verdicts(&name, obj, layout);
            writeln!(out, "{}  {name} mutants", hex(&sha256(mutants.as_bytes())))
                .expect("string write");
            all_mutants.push_str(&mutants);
        }
    }
    (out, all_mutants)
}

#[test]
fn verifier_verdicts_match_the_committed_file() {
    let layout = EnclaveLayout::new(MemConfig::small());
    let (actual, mutants) = verdicts(&layout);
    // The mutants must exercise both verdicts and the decoder's truncation
    // path, or their digests pin less than they claim.
    assert!(mutants.lines().any(|l| l.starts_with("Ok(")), "no mutant accepted");
    assert!(mutants.contains("Truncated"), "no mutant hit a truncated instruction");
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/verify_verdicts.txt");
    let golden =
        std::fs::read_to_string(&golden_path).expect("tests/verify_verdicts.txt committed");
    if golden != actual {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("verify_verdicts.txt");
        std::fs::write(&fresh, &actual).expect("write fresh verdicts");
        let changed: Vec<&str> =
            actual.lines().filter(|l| !golden.lines().any(|g| g == *l)).collect();
        panic!(
            "verifier verdicts drifted from tests/verify_verdicts.txt on {} line(s): {changed:?}\n\
             fresh verdicts written to {}",
            changed.len(),
            fresh.display()
        );
    }
}
