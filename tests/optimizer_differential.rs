//! Differential suite for the MIR optimizer mid-end (`lang::opt`): the
//! pass pipeline is a pure performance artifact, so an optimized build and
//! an unoptimized build of the same source must be *observationally
//! identical* under the full P1–P6 policy — same exit value, same sealed
//! records, same host-visible writes, same log, same leak log — on every
//! workload the repo ships (all ten nBench kernels, both genome programs,
//! the credit scorer) and on proptest-generated machine-IR programs fed
//! straight into the pass manager.
//!
//! Instruction counts and the code-layout digest are *expected* to differ
//! (that is the point of the optimizer); everything else diverging is a
//! miscompile. This mirrors the whole-machine Snapshot oracle of
//! `icache_differential`, minus the layout-dependent fields.

use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::producer::{produce, produce_from_mir, produce_unoptimized};
use deflection::core::runtime::{BootstrapEnclave, RunReport};
use deflection::crypto::sha256::sha256;
use deflection::isa::{AluOp, CondCode, Inst, Reg};
use deflection::lang::mir::{MFunction, MInst, MirProgram};
use deflection::lang::opt::optimize_pipeline;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::LeakRecord;
use deflection::sgx::vm::RunExit;
use deflection::workloads::{credit, genome, nbench};
use proptest::prelude::*;
use std::collections::HashSet;

/// Everything a run observably produces that is independent of code
/// layout. Deliberately excludes `stats` (the optimizer exists to change
/// instruction counts) and the enclave-image digest (the text section
/// differs by construction); the *untrusted* window digest stays in,
/// since host-visible bytes must not depend on the optimizer.
#[derive(Debug, PartialEq)]
struct Observable {
    exit: RunExit,
    records: Vec<Vec<u8>>,
    untrusted_writes: u64,
    blur_padding: u64,
    log: Vec<i64>,
    leak_log: Vec<LeakRecord>,
    untrusted_digest: [u8; 32],
}

fn observable(enclave: &BootstrapEnclave, report: RunReport) -> Observable {
    let mem = enclave.memory();
    let untrusted_len = mem.layout().config.untrusted_size as usize;
    let untrusted_bytes = mem.peek_bytes(0, untrusted_len).expect("untrusted window is mapped");
    Observable {
        exit: report.exit,
        records: report.records,
        untrusted_writes: report.untrusted_writes,
        blur_padding: report.blur_padding,
        log: enclave.log_values().to_vec(),
        leak_log: mem.leak_log.clone(),
        untrusted_digest: sha256(&untrusted_bytes),
    }
}

/// Installs `binary` under the full-policy manifest and runs it to
/// completion, returning the layout-independent observables plus the
/// executed-instruction count (compared *asymmetrically*: optimized must
/// not execute more).
fn run_full_policy(binary: &[u8], input: &[u8]) -> (Observable, u64) {
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full();
    let mut enclave = BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
    enclave.set_owner_session([0x5A; 32]);
    enclave.install_plain(binary).expect("binary verifies under full policy");
    if !input.is_empty() {
        enclave.provide_input(input).expect("installed");
    }
    let report = enclave.run(u64::MAX / 2).expect("installed");
    let insts = report.stats.instructions;
    (observable(&enclave, report), insts)
}

/// Compiles `source` twice — pipeline on and pipeline off — and asserts
/// the two builds are observationally identical. Returns the optimized
/// observable for workload-specific checks.
fn assert_optimizer_transparent(name: &str, source: &str, input: &[u8]) -> Observable {
    let policy = PolicySet::full();
    let optimized = produce(source, &policy).expect("optimized build compiles").serialize();
    let raw = produce_unoptimized(source, &policy).expect("raw build compiles").serialize();
    let (opt_obs, opt_insts) = run_full_policy(&optimized, input);
    let (raw_obs, raw_insts) = run_full_policy(&raw, input);
    assert_eq!(opt_obs, raw_obs, "{name}: optimized and raw builds diverged");
    assert!(
        opt_insts <= raw_insts,
        "{name}: optimized build executed more instructions ({opt_insts} vs {raw_insts})"
    );
    opt_obs
}

/// Every Table II kernel: pipeline on vs off under full P1–P6, anchored a
/// third way against the bit-exact native reference implementation.
#[test]
fn nbench_kernels_are_optimizer_transparent() {
    for kernel in nbench::all() {
        let source = (kernel.source)();
        let input = (kernel.input)(1);
        let obs = assert_optimizer_transparent(kernel.name, &source, &input);
        assert_eq!(
            obs.exit,
            RunExit::Halted { exit: (kernel.reference)(&input) },
            "{}: optimized build must still match the native reference",
            kernel.name
        );
    }
}

/// The remaining shipped workloads: both genome programs and the credit
/// scorer (the record-producing workloads, so sealed-record equality is
/// exercised, not just exit codes).
#[test]
fn genome_and_credit_workloads_are_optimizer_transparent() {
    let nw_input = genome::nw_input(64);
    let obs = assert_optimizer_transparent("genome-nw", &genome::nw_source(), &nw_input);
    assert_eq!(obs.exit, RunExit::Halted { exit: genome::nw_reference(&nw_input) });

    let seq_input = genome::seqgen_input(8);
    let obs = assert_optimizer_transparent("genome-seqgen", &genome::seqgen_source(), &seq_input);
    let (seq_exit, seq_records) = genome::seqgen_reference(&seq_input);
    assert_eq!(obs.exit, RunExit::Halted { exit: seq_exit });
    // Records come back sealed; their byte-equality across builds is part of
    // the Observable comparison. Against the reference, check the count.
    assert_eq!(obs.records.len(), seq_records.len(), "one sealed record per reference record");

    let credit_input = credit::input(16, 4);
    let obs = assert_optimizer_transparent("credit", &credit::source(), &credit_input);
    assert_eq!(obs.exit, RunExit::Halted { exit: credit::reference(&credit_input) });
}

/// The pipeline must never grow code and must stay shrinking-monotone when
/// re-applied: a pass that enlarges a program would silently eat the
/// instruction-budget headroom the producer relies on.
#[test]
fn pipeline_is_shrinking_and_stable_on_every_kernel() {
    for kernel in nbench::all() {
        let mir = deflection::lang::compile(&(kernel.source)()).expect("compiles");
        let before = mir.inst_count();
        let mut once = mir.clone();
        optimize_pipeline(&mut once);
        let after_one = once.inst_count();
        let mut twice = once.clone();
        optimize_pipeline(&mut twice);
        let after_two = twice.inst_count();
        assert!(after_one <= before, "{}: pipeline grew code", kernel.name);
        assert!(after_two <= after_one, "{}: second application grew code", kernel.name);
    }
}

// ---------------------------------------------------------------------------
// Pass-manager proptest: random machine-IR programs fed straight into the
// pipeline, then assembled, verified and executed both ways.
// ---------------------------------------------------------------------------

/// Scratch registers the generator draws from. Excludes RSP/RBP (frame
/// discipline) so every generated program is trivially stack-balanced
/// apart from the explicit push/pop pairs it emits.
const GP: [Reg; 6] = [Reg::RAX, Reg::RCX, Reg::RDX, Reg::RBX, Reg::RSI, Reg::RDI];
const CCS: [CondCode; 6] =
    [CondCode::E, CondCode::Ne, CondCode::L, CondCode::Le, CondCode::G, CondCode::Ge];

/// One straight-line arithmetic op, encoded compactly for proptest.
#[derive(Debug, Clone, Copy)]
struct ArithOp {
    kind: u8,
    reg: u8,
    other: u8,
    imm: i16,
}

impl ArithOp {
    fn emit(self, f: &mut MFunction) {
        let dst = GP[self.reg as usize % GP.len()];
        let src = GP[self.other as usize % GP.len()];
        let imm = i64::from(self.imm);
        match self.kind % 6 {
            0 => f.real(Inst::MovRI { dst, imm: imm as u64 }),
            1 => f.real(Inst::AluRI { op: AluOp::Add, dst, imm }),
            2 => f.real(Inst::AluRI { op: AluOp::Xor, dst, imm }),
            3 => f.real(Inst::AluRR { op: AluOp::Add, dst, src }),
            4 => f.real(Inst::MovRR { dst, src }),
            _ => f.real(Inst::Neg { reg: dst }),
        }
    }
}

/// One generated segment: an optional flag-disciplined conditional skip
/// (`cmp; jcc` with the branch *immediately* after the compare, matching
/// the codegen contract the verifier enforces), an optional push/pop
/// wrapper (the shape the fusion pass rewrites), and an arithmetic body.
#[derive(Debug, Clone)]
struct Segment {
    cond: Option<(u8, i16, u8)>,
    push_pop: Option<(u8, u8)>,
    body: Vec<ArithOp>,
}

/// Renders segments into a self-contained `__start` that halts with its
/// result in RAX. All branches are forward, so every generated program
/// terminates.
fn render_mir(segments: &[Segment]) -> MirProgram {
    let mut f = MFunction::new("__start");
    for seg in segments {
        let skip = f.new_label();
        if let Some((r, imm, cc)) = seg.cond {
            f.real(Inst::CmpRI { lhs: GP[r as usize % GP.len()], imm: i64::from(imm) });
            f.push(MInst::Jcc(CCS[cc as usize % CCS.len()], skip));
        }
        if let Some((p, _)) = seg.push_pop {
            f.real(Inst::Push { reg: GP[p as usize % GP.len()] });
        }
        for op in &seg.body {
            op.emit(&mut f);
        }
        if let Some((_, q)) = seg.push_pop {
            f.real(Inst::Pop { reg: GP[q as usize % GP.len()] });
        }
        if seg.cond.is_some() {
            f.push(MInst::Label(skip));
        }
    }
    f.real(Inst::Halt);
    MirProgram {
        entry: "__start".into(),
        functions: vec![f],
        data: vec![],
        indirect_targets: vec![],
    }
}

/// Every label a function's branches target must still be defined after
/// the pipeline ran — dangling targets would fail assembly, but checking
/// here localizes the offending pass.
fn assert_label_integrity(mir: &MirProgram) {
    for f in &mir.functions {
        let defined: HashSet<u32> = f
            .insts
            .iter()
            .filter_map(|i| if let MInst::Label(l) = i { Some(l.0) } else { None })
            .collect();
        for inst in &f.insts {
            let target = match inst {
                MInst::Jmp(l) | MInst::Jcc(_, l) => Some(l.0),
                _ => None,
            };
            if let Some(t) = target {
                assert!(defined.contains(&t), "{}: dangling label L{t}", f.name);
            }
        }
    }
}

fn arith_op() -> impl Strategy<Value = ArithOp> {
    (0u8..6, any::<u8>(), any::<u8>(), -500i16..500).prop_map(|(kind, reg, other, imm)| ArithOp {
        kind,
        reg,
        other,
        imm,
    })
}

fn segment() -> impl Strategy<Value = Segment> {
    (
        proptest::option::of((any::<u8>(), -500i16..500, 0u8..6)),
        proptest::option::of((any::<u8>(), any::<u8>())),
        proptest::collection::vec(arith_op(), 1..6),
    )
        .prop_map(|(cond, push_pop, body)| Segment { cond, push_pop, body })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// Random MIR → pipeline → assemble/verify/run, against the raw build
    /// of the *same* MIR: the pass manager has no generated shape of its
    /// own to hide behind (push/pop pairs, flag-paired branches, dead
    /// arithmetic, cross-segment constant flows all occur).
    #[test]
    fn generated_mir_is_optimizer_transparent(
        segments in proptest::collection::vec(segment(), 1..8),
    ) {
        let mir = render_mir(&segments);
        let mut optimized = mir.clone();
        optimize_pipeline(&mut optimized);
        prop_assert!(optimized.inst_count() <= mir.inst_count(), "pipeline grew code");
        assert_label_integrity(&optimized);

        let policy = PolicySet::full();
        let raw = produce_from_mir(&mir, &policy).expect("raw MIR assembles").serialize();
        let opt =
            produce_from_mir(&optimized, &policy).expect("optimized MIR assembles").serialize();
        let (raw_obs, raw_insts) = run_full_policy(&raw, b"");
        let (opt_obs, opt_insts) = run_full_policy(&opt, b"");
        prop_assert!(matches!(raw_obs.exit, RunExit::Halted { .. }), "generated program must halt");
        prop_assert_eq!(opt_obs, raw_obs, "optimized and raw runs diverged");
        prop_assert!(opt_insts <= raw_insts);
    }
}
