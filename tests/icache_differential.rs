//! Differential suite for the trace cache: the VM's dispatch path —
//! superblock traces (`Vm::run_traced`) — and its oracle, the
//! decode-every-step reference interpreter, must be *bit-identical*: same
//! exit, same counters, same final memory image, same leak log — on every
//! program shape we can throw at them: the full attack corpus, the elision
//! corpus, every AEX schedule, fuel exhaustion mid-block and mid-trace,
//! self-modifying code that patches a live trace, sequences of requests
//! served by one long-lived instance, and proptest-generated programs.
//!
//! The cache is a pure performance artifact; any observable divergence is
//! a soundness bug, so these tests compare whole-machine snapshots rather
//! than spot-checking exit codes.

use deflection::core::attack::{corpus, elision_corpus, Expected};
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::producer::produce;
use deflection::core::runtime::{BootstrapEnclave, RunReport};
use deflection::crypto::sha256::sha256;
use deflection::sgx::aex::{AexInjector, AexSchedule};
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::LeakRecord;
use deflection::sgx::vm::{ExecMode, ExecStats, RunExit};
use proptest::prelude::*;

/// Everything an execution can observably produce. Two runs are equivalent
/// iff their snapshots are `==`.
#[derive(Debug, PartialEq)]
struct Snapshot {
    exit: RunExit,
    stats: ExecStats,
    records: Vec<Vec<u8>>,
    untrusted_writes: u64,
    blur_padding: u64,
    log: Vec<i64>,
    leak_log: Vec<LeakRecord>,
    enclave_digest: [u8; 32],
    untrusted_digest: [u8; 32],
}

fn snapshot(enclave: &BootstrapEnclave, report: RunReport) -> Snapshot {
    let mem = enclave.memory();
    let el = mem.layout().elrange;
    let enclave_bytes = mem.peek_bytes(el.start, el.len() as usize).expect("elrange is mapped");
    let untrusted_len = mem.layout().config.untrusted_size as usize;
    let untrusted_bytes = mem.peek_bytes(0, untrusted_len).expect("untrusted window is mapped");
    Snapshot {
        exit: report.exit,
        stats: report.stats,
        records: report.records,
        untrusted_writes: report.untrusted_writes,
        blur_padding: report.blur_padding,
        log: enclave.log_values().to_vec(),
        leak_log: mem.leak_log.clone(),
        enclave_digest: sha256(&enclave_bytes),
        untrusted_digest: sha256(&untrusted_bytes),
    }
}

/// Installs `binary` and runs it to `fuel` in the requested dispatch mode.
/// Returns `None` when installation is rejected (mode-independent: the
/// consumer pipeline never consults the trace cache).
fn run_mode(
    binary: &[u8],
    manifest: &Manifest,
    input: &[u8],
    aex: AexSchedule,
    fuel: u64,
    mode: ExecMode,
) -> Option<Snapshot> {
    let mut enclave =
        BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest.clone());
    enclave.set_owner_session([0x5A; 32]);
    if enclave.install_plain(binary).is_err() {
        return None;
    }
    enclave.set_exec_mode(mode);
    enclave.set_aex(AexInjector::new(aex));
    if !input.is_empty() {
        enclave.provide_input(input).expect("installed");
    }
    let report = enclave.run(fuel).expect("installed");
    Some(snapshot(&enclave, report))
}

/// Asserts traced dispatch agrees with the reference oracle, returning the
/// traced snapshot (if the binary installed at all).
fn assert_identical(
    name: &str,
    binary: &[u8],
    manifest: &Manifest,
    input: &[u8],
    aex: &AexSchedule,
    fuel: u64,
) -> Option<Snapshot> {
    let traced = run_mode(binary, manifest, input, aex.clone(), fuel, ExecMode::Traced);
    let reference = run_mode(binary, manifest, input, aex.clone(), fuel, ExecMode::Reference);
    assert_eq!(
        traced, reference,
        "{name}: traced and reference runs diverged ({aex:?}, fuel {fuel})"
    );
    traced
}

/// Every attack in both corpora, under the manifest that lets it execute:
/// runtime-contained attacks under the full policy (so the guards fire),
/// statically-rejected ones under no policy (so the raw malicious code
/// actually runs — including the self-modifying one, which is the hardest
/// coherence case the cache faces).
#[test]
fn attack_corpora_are_bit_identical() {
    let full = Manifest::ccaas();
    let mut permissive = Manifest::ccaas();
    permissive.policy = PolicySet::none();
    let mut executed = 0usize;
    for attack in corpus().into_iter().chain(elision_corpus()) {
        let binary = attack.binary.serialize();
        let manifest = match attack.expected {
            Expected::RuntimeAbort(_) => &full,
            Expected::VerifierReject => &permissive,
        };
        let aex = AexSchedule::Periodic { interval: 97 };
        if assert_identical(attack.name, &binary, manifest, b"", &aex, 1_000_000).is_some() {
            executed += 1;
        }
    }
    assert!(executed >= 10, "most corpus entries must actually execute ({executed} did)");
}

const HONEST_SRC: &str = "
    var g: [int; 16];
    fn mix(x: int) -> int { return x * 31 + (g[x & 15] ^ 7); }
    fn main() -> int {
        var f: fn(int) -> int = &mix;
        var acc: int = 1;
        var i: int = 0;
        while (i < 200) {
            g[i & 15] = acc;
            acc = acc + f(i);
            i = i + 1;
        }
        log(acc);
        output_byte(0, acc & 0xFF);
        send(1);
        return acc & 0x7F;
    }
";

/// The honest workload across every AEX schedule shape, including the
/// controlled-channel attacker (which trips the P6 abort — both modes must
/// abort at the identical instruction) and fuel ceilings chosen to land
/// mid-block, on a block boundary, and at instruction 1.
#[test]
fn aex_schedules_and_fuel_exhaustion_are_bit_identical() {
    let manifest = Manifest::ccaas();
    let binary = produce(HONEST_SRC, &manifest.policy).expect("compiles").serialize();
    let schedules = [
        AexSchedule::None,
        AexSchedule::Periodic { interval: 1 },
        AexSchedule::Periodic { interval: 7 },
        AexSchedule::Periodic { interval: 1000 },
        AexSchedule::Attack { interval: 3 },
        AexSchedule::Random { per_inst_prob: 0.05, seed: 11 },
        AexSchedule::Random { per_inst_prob: 0.5, seed: 3 },
    ];
    for aex in &schedules {
        for fuel in [1, 137, 10_000, u64::MAX / 2] {
            let snap = assert_identical("honest", &binary, &manifest, b"", aex, fuel)
                .expect("honest binary installs");
            if fuel == 1 {
                assert_eq!(snap.stats.instructions, 1, "fuel must be exact, not block-granular");
            }
        }
    }
}

/// The runtime's install path rewrites placeholder immediates in memory and
/// *then* forms the trace cover from the predicted post-rewrite stream. If
/// that prediction were stale (pre-rewrite decodes, wrong offsets), traced
/// execution would run with placeholder bounds and diverge. Beyond
/// bit-identity, the traced run must need **zero demand formations**:
/// every executed instruction was already covered, coherently, at install.
#[test]
fn rewriter_coherence_prewarm_serves_patched_decodes() {
    let manifest = Manifest::ccaas();
    let binary = produce(HONEST_SRC, &manifest.policy).expect("compiles").serialize();
    // Periodic AEX so the P6 AexCheck annotations — the template with the
    // most placeholder immediates — actually execute their patched form.
    let aex = AexSchedule::Periodic { interval: 50 };
    assert_identical("honest", &binary, &manifest, b"", &aex, u64::MAX / 2)
        .expect("honest binary installs");

    // Traced dispatch: the install-time greedy trace cover must serve the
    // whole run — zero demand formations.
    let mut enclave = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
    enclave.set_owner_session([0x5A; 32]);
    enclave.install_plain(&binary).expect("verifies");
    enclave.set_aex(AexInjector::new(aex));
    let report = enclave.run(u64::MAX / 2).expect("installed");
    assert!(matches!(report.exit, RunExit::Halted { .. }));
    let traces = enclave.trace_stats();
    assert!(traces.prewarmed > 0, "install must form the trace cover");
    assert_eq!(traces.formed, 0, "trace cover must need no demand formations");
    assert_eq!(traces.invalidated, 0, "nothing wrote code after install");
}

/// The hardest coherence case: code patched *while a formed trace over it
/// is live*, then re-executed. The corpus' self-modifying attack cannot
/// exercise this — its baked-in P1 guards abort the store before it lands —
/// so this builds an *unguarded* variant (produced under `PolicySet::none`,
/// run under the permissive manifest): call the victim (warming a trace
/// over its code), store over the victim's first instruction, call it
/// again. A traced VM replaying the stale trace would run the original
/// victim and diverge from the reference interpreter; the only sound
/// behavior is to kill the trace and decode the patched bytes fresh.
#[test]
fn self_modifying_store_kills_live_traces_mid_run() {
    use deflection::core::producer::produce_from_mir;
    use deflection::isa::{Inst, MemOperand, Reg};
    use deflection::lang::mir::{MFunction, MInst, MirProgram};

    let mut victim = MFunction::new("victim");
    victim.real(Inst::MovRI { dst: Reg::RAX, imm: 7 });
    victim.push(MInst::Ret);
    let mut main = MFunction::new("__start");
    main.push(MInst::CallSym("victim".into()));
    main.push(MInst::LoadSymAddr { dst: Reg::RBX, symbol: "victim".into(), addend: 0 });
    main.real(Inst::MovRI { dst: Reg::RAX, imm: 0x0101_0101 });
    main.real(Inst::Store { mem: MemOperand::base_disp(Reg::RBX, 0), src: Reg::RAX });
    main.push(MInst::CallSym("victim".into()));
    main.real(Inst::Halt);
    let mir = MirProgram {
        entry: "__start".into(),
        functions: vec![main, victim],
        data: vec![],
        indirect_targets: vec![],
    };
    let binary = produce_from_mir(&mir, &PolicySet::none()).expect("assembles").serialize();

    let mut permissive = Manifest::ccaas();
    permissive.policy = PolicySet::none();
    for aex in [AexSchedule::None, AexSchedule::Periodic { interval: 3 }] {
        assert_identical("unguarded-smc", &binary, &permissive, b"", &aex, 1_000_000)
            .expect("permissive manifest lets it run");
    }

    let mut enclave = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), permissive);
    enclave.set_owner_session([0x5A; 32]);
    enclave.install_plain(&binary).expect("installs under no policy");
    let _ = enclave.run(1_000_000).expect("installed");
    assert!(
        enclave.trace_stats().invalidated >= 1,
        "the self-modifying store must kill a live trace: {:?}",
        enclave.trace_stats()
    );
}

/// The literal warm → patch → run sequence: form the trace cover from the
/// install-time decode stream, then patch an annotation immediate through
/// the consumer's own rewriter (lowering the P6 AEX threshold to 1), then
/// run. The traced VM must execute the *patched* program — aborting with
/// the P6 code exactly like the reference interpreter — which is only
/// possible if the rewrite's generation bump killed the warm traces.
#[test]
fn rewrite_after_warm_is_observed_by_the_cache() {
    use deflection::core::consumer::rewriter::rewritten_insts;
    use deflection::core::consumer::{install, Bindings};
    use deflection::core::policy::abort_codes;
    use deflection::sgx::mem::Memory;
    use deflection::sgx::vm::{NullHost, Vm};

    const LOOP_SRC: &str = "
        var g: [int; 8];
        fn main() -> int {
            var acc: int = 0;
            var i: int = 0;
            while (i < 500) {
                g[i & 7] = acc;
                acc = acc + g[(acc ^ i) & 7] + i;
                i = i + 1;
            }
            return acc & 63;
        }
    ";
    let manifest = Manifest::ccaas();
    let binary = produce(LOOP_SRC, &manifest.policy).expect("compiles").serialize();
    let mut outcomes = Vec::new();
    for mode in [ExecMode::Traced, ExecMode::Reference] {
        let layout = EnclaveLayout::new(MemConfig::small());
        let mut mem = Memory::new(layout.clone());
        let installed = install(&binary, &manifest, &mut mem).expect("verifies");
        let bindings = Bindings::from_layout(
            &layout,
            installed.program.ibt_addresses.len() as u64,
            manifest.aex_threshold,
        );
        let mut vm = Vm::new(mem, installed.program.entry_va);
        vm.set_exec_mode(mode);
        // Warm: the exact install-time trace cover the runtime forms.
        let code_base = layout.code.start;
        let entries: Vec<_> = rewritten_insts(&installed.verified, &bindings)
            .into_iter()
            .map(|(off, inst, len)| (code_base + off as u64, inst, len as u8))
            .collect();
        vm.prewarm_traces(&entries);
        // Patch through the consumer path: AEX threshold 1000 -> 1.
        let strict = Bindings { aex_max: 1, ..bindings };
        deflection::core::consumer::rewrite(&mut vm.mem, code_base, &installed.verified, &strict);
        vm.aex = AexInjector::new(AexSchedule::Periodic { interval: 5 });
        let exit = vm.run(1_000_000, &mut NullHost);
        assert_eq!(
            exit,
            RunExit::PolicyAbort { code: abort_codes::AEX },
            "the post-warm patch must take effect ({mode:?})"
        );
        if mode == ExecMode::Traced {
            assert!(
                vm.trace_stats().invalidated > 0,
                "the rewrite must kill the install-time trace cover"
            );
        }
        outcomes.push((exit, vm.stats));
    }
    assert_eq!(outcomes[0], outcomes[1], "traced and reference runs diverged after the patch");
}

/// The reference oracle, selected through the setter, never touches the
/// trace cache: install forms the cover, and nothing uses or kills it.
#[test]
fn reference_mode_reports_empty_icache_stats() {
    let manifest = Manifest::ccaas();
    let binary = produce(HONEST_SRC, &manifest.policy).expect("compiles").serialize();
    let mut enclave = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
    enclave.set_owner_session([0x5A; 32]);
    enclave.install_plain(&binary).expect("verifies");
    enclave.set_exec_mode(ExecMode::Reference);
    let report = enclave.run(u64::MAX / 2).expect("installed");
    assert!(matches!(report.exit, RunExit::Halted { .. }));
    let traces = enclave.trace_stats();
    assert!(traces.prewarmed > 0, "install forms the cover in either mode");
    assert_eq!(traces.formed, 0, "reference mode must never form traces");
    assert_eq!(traces.chained, 0);
    assert_eq!(traces.side_exits, 0);
    assert_eq!(traces.invalidated, 0);
}

/// Serving reuses one instance for many requests: the AEX plan keys on the
/// cumulative instruction counter, and globals and trace state persist
/// from run to run. Five consecutive requests of every serving class on
/// one instance per mode must leave identical snapshots after every run.
#[test]
fn resident_request_sequences_are_bit_identical() {
    use deflection::bench::serving::{serving_manifest, workloads};
    let manifest = serving_manifest();
    let schedules = [
        AexSchedule::None,
        AexSchedule::Periodic { interval: 7 },
        AexSchedule::Random { per_inst_prob: 0.05, seed: 11 },
    ];
    for w in workloads() {
        let binary = produce(&w.source, &manifest.policy).expect("workload produces").serialize();
        for aex in &schedules {
            let mut enclaves = [ExecMode::Traced, ExecMode::Reference].map(|mode| {
                let mut enclave =
                    BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest.clone());
                enclave.set_owner_session([0x5A; 32]);
                enclave.install_plain(&binary).expect("workload verifies");
                enclave.set_exec_mode(mode);
                enclave.set_aex(AexInjector::new(aex.clone()));
                enclave
            });
            for i in 0..5 {
                let [traced, reference] = enclaves.each_mut().map(|enclave| {
                    enclave.provide_input(&(w.request)(i)).expect("installed");
                    let report = enclave.run(50_000_000).expect("installed");
                    snapshot(enclave, report)
                });
                assert_eq!(
                    traced, reference,
                    "{}: run {i} diverged on a resident instance ({aex:?})",
                    w.name
                );
            }
        }
    }
}

/// Renders a random straight-line-in-a-loop program from a compact recipe:
/// op mix, constants, global traffic, and a call in the loop body.
fn render_program(body_ops: &[(u8, i32)], trip: u8) -> String {
    let mut body = String::new();
    for (op, c) in body_ops {
        let op = ["+", "-", "*", "&", "|", "^"][*op as usize % 6];
        body.push_str(&format!("acc = (acc {op} {c}) + g[i & 7]; g[acc & 7] = acc + h(i); "));
    }
    format!(
        "var g: [int; 8];
         fn h(x: int) -> int {{ return x * 3 + g[x & 7]; }}
         fn main() -> int {{
             var acc: int = 1;
             var i: int = 0;
             while (i < {trip}) {{ {body} i = i + 1; }}
             log(acc);
             return acc & 255;
         }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Generated programs × generated AEX interval × generated fuel: traced
    /// dispatch has no program shape of its own to hide behind.
    #[test]
    fn generated_programs_are_bit_identical(
        body_ops in proptest::collection::vec((0u8..6, -100i32..100), 1..6),
        trip in 1u8..40,
        interval in proptest::option::of(1u64..64),
        fuel in prop_oneof![Just(u64::MAX / 2), 1u64..5_000],
    ) {
        let manifest = Manifest::ccaas();
        let src = render_program(&body_ops, trip);
        let binary = produce(&src, &manifest.policy).expect("generated source compiles").serialize();
        let aex = match interval {
            Some(i) => AexSchedule::Periodic { interval: i },
            None => AexSchedule::None,
        };
        let snap = assert_identical("generated", &binary, &manifest, b"", &aex, fuel)
            .expect("generated binary installs");
        prop_assert!(snap.stats.instructions > 0);
    }
}
