//! Golden digest of the guard-elision analysis.
//!
//! For each program this test runs [`Analysis::run`] under the verifier's
//! own configuration (`elision_analysis_config` over the small layout) and
//! renders one canonical line per instruction offset — `rsp_after`,
//! `store_addr_range` and `store_safe` — plus the CFG's block bounds and
//! edges. The SHA-256 of that rendering, per program, must equal the line
//! in the committed `tests/absint_golden.txt`.
//!
//! Producer, self-verify and in-enclave verifier all share one engine, and `PRECISION.json` counts only proven guards, so
//! this is the oracle that pins the analysis answers themselves: an
//! engine change that claims to keep every proof must leave the file
//! untouched. A deliberate precision change regenerates the file (the
//! failing run writes the fresh copy next to the test binaries and prints
//! its path) and says so in the change log.

use deflection::core::annotations::elision_analysis_config;
use deflection::core::attack::{corpus, elision_corpus};
use deflection::core::consumer::{discover, resolve};
use deflection::core::policy::PolicySet;
use deflection::core::producer::{produce, produce_for_layout};
use deflection::crypto::sha256::sha256;
use deflection::obj::ObjectFile;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::workloads::{credit, nbench, server};
use deflection_analysis::{AVal, Analysis};
use std::fmt::Write as _;
use std::path::Path;

fn render_aval(v: Option<AVal>) -> String {
    match v {
        None => "-".into(),
        Some(AVal::Top) => "T".into(),
        Some(AVal::Val(iv)) => format!("V[{},{}]", iv.lo, iv.hi),
        Some(AVal::Stack(iv)) => format!("S[{},{}]", iv.lo, iv.hi),
        Some(AVal::NonStack) => "N".into(),
        Some(AVal::EntryRbp) => "E".into(),
    }
}

/// The canonical rendering of one program's analysis, or `None` when the
/// binary does not resolve or disassemble (nothing to analyse).
fn canonical(obj: &ObjectFile, layout: &EnclaveLayout) -> Option<String> {
    let image = resolve(obj, layout).ok()?;
    let entry = usize::try_from(image.entry_va.checked_sub(layout.code.start)?).ok()?;
    let verified = discover(&image.text, entry, &image.ibt_offsets).ok()?;
    let a = Analysis::run(&verified.disassembly, elision_analysis_config(layout));
    let mut out = String::new();
    let cfg = a.cfg();
    writeln!(out, "entry {}", cfg.blocks[cfg.entry].start).expect("string write");
    for b in &cfg.blocks {
        write!(out, "block {:x}-{:x}", b.start, b.end).expect("string write");
        for e in &b.edges {
            write!(out, " {:?}:{:x}", e.kind, cfg.blocks[e.to].start).expect("string write");
        }
        out.push('\n');
    }
    for &(off, _, _) in verified.disassembly.insts() {
        let range = a.store_addr_range(off).map_or("-".into(), |(lo, hi)| format!("{lo:x}-{hi:x}"));
        writeln!(
            out,
            "{off:x} rsp={} store={range} safe={}",
            render_aval(a.rsp_after(off)),
            a.store_safe(off)
        )
        .expect("string write");
    }
    Some(out)
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Every program the digest covers: the twelve onboarding kernels in their
/// full and elided builds, then every attack-corpus binary.
fn programs(layout: &EnclaveLayout) -> Vec<(String, ObjectFile)> {
    let mut kernels: Vec<(&str, String)> =
        nbench::all().into_iter().map(|k| (k.name, (k.source)())).collect();
    kernels.push(("HTTPS", server::source()));
    kernels.push(("CREDIT", credit::source()));
    let elide = PolicySet::full().with_elision();
    let mut out = Vec::new();
    for (name, src) in kernels {
        out.push((format!("{name}/full"), produce(&src, &PolicySet::full()).expect("compiles")));
        let elided = produce_for_layout(&src, &elide, layout).expect("compiles");
        out.push((format!("{name}/elided"), elided));
    }
    out.extend(corpus().into_iter().map(|a| (format!("attack/{}", a.name), a.binary)));
    out.extend(elision_corpus().into_iter().map(|a| (format!("elision/{}", a.name), a.binary)));
    out
}

#[test]
fn analysis_answers_match_the_committed_digest() {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut actual = String::new();
    for (name, obj) in programs(&layout) {
        if let Some(text) = canonical(&obj, &layout) {
            writeln!(actual, "{}  {name}", hex(&sha256(text.as_bytes()))).expect("string write");
        }
    }
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/absint_golden.txt");
    let golden = std::fs::read_to_string(&golden_path).expect("tests/absint_golden.txt committed");
    if golden != actual {
        let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("absint_golden.txt");
        std::fs::write(&fresh, &actual).expect("write fresh digest");
        let changed: Vec<&str> =
            actual.lines().filter(|l| !golden.lines().any(|g| g == *l)).collect();
        panic!(
            "analysis answers drifted from tests/absint_golden.txt on {} program(s): {changed:?}\n\
             fresh digest written to {}",
            changed.len(),
            fresh.display()
        );
    }
}
