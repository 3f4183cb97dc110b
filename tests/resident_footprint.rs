//! Resident footprint, counted in simulated pages rather than process RSS
//! (which depends on the allocator): an instance holds only the pages
//! that were written. A fresh memory holds none; a replayed resident of
//! every serving class and every onboarding kernel, after one run, holds a
//! handful of the 1628 pages its small layout maps.

use deflection::bench::serving::{serving_manifest, workloads, FUEL};
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::producer::{produce, produce_for_layout};
use deflection::core::runtime::BootstrapEnclave;
use deflection::sgx::layout::{EnclaveLayout, MemConfig, PAGE_SIZE};
use deflection::sgx::mem::Memory;
use deflection::sgx::vm::RunExit;
use deflection::workloads::{credit, nbench, server};

/// Most pages a replayed resident may hold after one run. Measured: 7 to
/// 10 for every class and kernel below (10 for HUFFMAN with elision).
const RESIDENT_PAGES: usize = 16;

/// Pages the small layout maps: the whole ELRANGE plus untrusted memory.
fn mapped_pages(layout: &EnclaveLayout) -> usize {
    ((layout.elrange.len() + layout.config.untrusted_size) / PAGE_SIZE) as usize
}

/// Installs `binary` in one enclave, replays the captured image into a
/// second one, runs it once on `input` and returns the pages it holds.
fn replayed_pages(name: &str, binary: &[u8], manifest: &Manifest, input: &[u8]) -> usize {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut verifier = BootstrapEnclave::new(layout.clone(), manifest.clone());
    let prepared = verifier.install_capture(binary).expect("fixture verifies");
    let mut resident = BootstrapEnclave::new(layout, manifest.clone());
    resident.set_owner_session([7; 32]);
    resident.install_replayed(&prepared).expect("same measurement");
    resident.provide_input(input).expect("installed");
    let report = resident.run(FUEL).expect("installed");
    assert!(matches!(report.exit, RunExit::Halted { .. }), "{name}: {:?}", report.exit);
    resident.memory().allocated_pages()
}

#[test]
fn fresh_memory_allocates_no_page() {
    let layout = EnclaveLayout::new(MemConfig::small());
    assert_eq!(mapped_pages(&layout), 1628);
    assert_eq!(Memory::new(layout).allocated_pages(), 0);
}

#[test]
fn serving_residents_hold_few_pages() {
    let manifest = serving_manifest();
    for w in workloads() {
        let binary = produce(&w.source, &manifest.policy).expect("workload verifies").serialize();
        let pages = replayed_pages(w.name, &binary, &manifest, &(w.request)(0));
        assert!(pages <= RESIDENT_PAGES, "{}: {pages} pages", w.name);
    }
}

#[test]
fn onboarded_residents_hold_few_pages() {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full().with_elision();
    let mut kernels: Vec<(&str, String, Vec<u8>)> =
        nbench::all().into_iter().map(|k| (k.name, (k.source)(), (k.input)(1))).collect();
    kernels.push(("HTTPS", server::source(), server::request(1, 2048)));
    kernels.push(("CREDIT", credit::source(), credit::input(40, 8)));
    for (name, source, input) in kernels {
        let binary = produce_for_layout(&source, &manifest.policy, &layout)
            .expect("kernel verifies")
            .serialize();
        let pages = replayed_pages(name, &binary, &manifest, &input);
        assert!(pages <= RESIDENT_PAGES, "{name}: {pages} pages");
    }
}
