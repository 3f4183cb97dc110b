//! Formation-time successor indices over the workload corpus: every trace
//! the install path prewarms for a serving class, an nBench kernel or an
//! onboarding app must carry a `Jcc` alt index that addresses the element
//! at the branch's non-predicted successor (empty when that successor is
//! outside the trace) and a wrap index that addresses the element at its
//! last element's predicted successor. Dispatch jumps to these indices
//! without re-checking the address, so one wrong index would run the wrong
//! instruction.

use deflection::bench::serving::{serving_manifest, workloads};
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::producer::{produce, produce_for_layout};
use deflection::core::runtime::BootstrapEnclave;
use deflection::isa::{disassemble, Inst};
use deflection::obj::ObjectFile;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::vm::Vm;
use deflection::workloads::{credit, nbench, server};

/// Installs `object`, forms the install-time trace cover over the
/// installed (relocated and rewritten) code exactly as the install path
/// does, and audits every trace's indices. Returns how many were checked.
fn audited_traces(name: &str, object: &ObjectFile, manifest: &Manifest) -> usize {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut enclave = BootstrapEnclave::new(layout.clone(), manifest.clone());
    enclave.install_plain(&object.serialize()).expect("corpus binary verifies");
    let mem = enclave.memory().clone();
    let code = mem.peek_bytes(layout.code.start, object.text.len()).expect("code is mapped");
    let offset = |symbol: &str| object.symbol(symbol).expect("symbol is defined").offset as usize;
    let targets: Vec<usize> = object.indirect_branch_table.iter().map(|s| offset(s)).collect();
    let entry = offset(&object.entry_symbol);
    let dis = disassemble(&code, entry, &targets).expect("installed code disassembles");
    let entries: Vec<(u64, Inst, u8)> = dis
        .insts()
        .iter()
        .map(|&(off, inst, len)| (layout.code.start + off as u64, inst, len as u8))
        .collect();
    let mut vm = Vm::new(mem, layout.code.start + entry as u64);
    vm.prewarm_traces(&entries);
    let checked = vm.audit_trace_indices().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(checked > 0, "{name}: no trace formed");
    checked
}

#[test]
fn serving_class_traces_index_their_own_successors() {
    let manifest = serving_manifest();
    for w in workloads() {
        let object = produce(&w.source, &manifest.policy).expect("workload produces");
        audited_traces(w.name, &object, &manifest);
    }
}

#[test]
fn onboarding_kernel_traces_index_their_own_successors() {
    let layout = EnclaveLayout::new(MemConfig::small());
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full().with_elision();
    let mut kernels: Vec<(&str, String)> =
        nbench::all().into_iter().map(|k| (k.name, (k.source)())).collect();
    kernels.push(("HTTPS", server::source()));
    kernels.push(("CREDIT", credit::source()));
    let mut total = 0;
    for (name, source) in kernels {
        let object = produce_for_layout(&source, &manifest.policy, &layout).expect("produces");
        total += audited_traces(name, &object, &manifest);
    }
    assert!(total > 100, "only {total} traces over the corpus");
}
