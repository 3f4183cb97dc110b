//! `dflc` — the DEFLECTION command-line driver.
//!
//! The code provider's view of the toolchain:
//!
//! ```text
//! dflc build  <src.dcl> -o <out.dflo> [--policy none|p1|p1p2|p1p5|full|fullelide]
//! dflc verify <bin.dflo>              [--policy ...]      # consumer dry-run
//! dflc disasm <bin.dflo>                                  # annotated listing
//! dflc run    <bin.dflo> [--input <hex>] [--policy ...] [--fuel N]
//! dflc inspect <bin.dflo>                                 # object headers
//! ```

use deflection::core::consumer::{install, verifier};
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::producer::produce;
use deflection::core::runtime::BootstrapEnclave;
use deflection::obj::ObjectFile;
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::sgx::mem::Memory;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dflc build <src.dcl> -o <out.dflo> [--policy none|p1|p1p2|p1p5|full|fullelide]\n  \
         dflc verify <bin.dflo> [--policy ...]\n  \
         dflc disasm <bin.dflo>\n  \
         dflc run <bin.dflo> [--input <hex>] [--policy ...] [--fuel N]\n  \
         dflc inspect <bin.dflo>"
    );
    ExitCode::from(2)
}

fn parse_policy(name: &str) -> Option<PolicySet> {
    Some(match name {
        "none" => PolicySet::none(),
        "p1" => PolicySet::p1(),
        "p1p2" => PolicySet::p1_p2(),
        "p1p5" => PolicySet::p1_p5(),
        "full" => PolicySet::full(),
        "fullelide" => PolicySet::full().with_elision(),
        _ => return None,
    })
}

struct Opts {
    positional: Vec<String>,
    policy: PolicySet,
    output: Option<String>,
    input_hex: Option<String>,
    fuel: u64,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut opts = Opts {
        positional: Vec::new(),
        policy: PolicySet::full(),
        output: None,
        input_hex: None,
        fuel: 2_000_000_000,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--policy" => {
                opts.policy = parse_policy(args.get(i + 1)?)?;
                i += 2;
            }
            "-o" | "--output" => {
                opts.output = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--input" => {
                opts.input_hex = Some(args.get(i + 1)?.clone());
                i += 2;
            }
            "--fuel" => {
                opts.fuel = args.get(i + 1)?.parse().ok()?;
                i += 2;
            }
            flag if flag.starts_with('-') => return None,
            _ => {
                opts.positional.push(args[i].clone());
                i += 1;
            }
        }
    }
    Some(opts)
}

fn unhex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok()).collect()
}

fn load_object(path: &str) -> Result<ObjectFile, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ObjectFile::parse(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else { return usage() };
    let Some(opts) = parse_opts(&args[1..]) else { return usage() };

    match cmd.as_str() {
        "build" => {
            let [src_path] = &opts.positional[..] else { return usage() };
            let Some(out_path) = &opts.output else { return usage() };
            let source = match std::fs::read_to_string(src_path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {src_path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Elision needs the target layout: the producer proves guard
            // redundancy against the same windows the verifier will use.
            let built = if opts.policy.elide_guards {
                deflection::core::producer::produce_for_layout(
                    &source,
                    &opts.policy,
                    &EnclaveLayout::new(MemConfig::small()),
                )
            } else {
                produce(&source, &opts.policy)
            };
            match built {
                Ok(obj) => {
                    let bytes = obj.serialize();
                    if let Err(e) = std::fs::write(out_path, &bytes) {
                        eprintln!("cannot write {out_path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!(
                        "built {out_path}: {} bytes text, {} bytes data, {} bss, \
                         {} indirect targets, {} total",
                        obj.text.len(),
                        obj.data.len(),
                        obj.bss_size,
                        obj.indirect_branch_table.len(),
                        bytes.len()
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{src_path}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "verify" => {
            let [bin_path] = &opts.positional[..] else { return usage() };
            let obj = match load_object(bin_path) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut manifest = Manifest::ccaas();
            manifest.policy = opts.policy;
            let mut mem = Memory::new(EnclaveLayout::new(MemConfig::small()));
            match install(&obj.serialize(), &manifest, &mut mem) {
                Ok(installed) => {
                    println!(
                        "ACCEPTED: {} instructions, {} annotation instances, code hash {}",
                        installed.verified.disassembly.len(),
                        installed.verified.instances.len(),
                        hex(&installed.program.code_hash[..8])
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    println!("REJECTED: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "disasm" => {
            let [bin_path] = &opts.positional[..] else { return usage() };
            let obj = match load_object(bin_path) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let entry = obj.symbol(&obj.entry_symbol).map(|s| s.offset as usize).unwrap_or(0);
            let ibt: Vec<usize> = obj
                .indirect_branch_table
                .iter()
                .filter_map(|n| obj.symbol(n).map(|s| s.offset as usize))
                .collect();
            match deflection::isa::disassemble(&obj.text, entry, &ibt) {
                Ok(d) => {
                    // Mark annotation instances so readers see what the
                    // verifier sees.
                    let insts: Vec<(usize, deflection::isa::Inst, usize)> = d.insts().to_vec();
                    let verified = verifier::verify(&obj.text, entry, &ibt, &PolicySet::none());
                    let interiors: std::collections::HashSet<usize> = verified
                        .map(|v| {
                            v.instances
                                .iter()
                                .flat_map(|ins| {
                                    (ins.start_idx..=ins.end_idx)
                                        .map(|i| v.disassembly.insts()[i].0)
                                        .collect::<Vec<_>>()
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    for (off, inst, _) in &insts {
                        let fn_label = obj
                            .symbols
                            .iter()
                            .find(|s| {
                                s.section == deflection::obj::SectionId::Text
                                    && s.offset as usize == *off
                            })
                            .map(|s| format!("\n{}:", s.name))
                            .unwrap_or_default();
                        if !fn_label.is_empty() {
                            println!("{}", &fn_label[1..]);
                        }
                        let tag = if interiors.contains(off) { "  ~" } else { "   " };
                        println!("{tag}{off:6x}:  {inst}");
                    }
                    println!("\n({} instructions; `~` marks annotation code)", insts.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("disassembly failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "run" => {
            let [bin_path] = &opts.positional[..] else { return usage() };
            let obj = match load_object(bin_path) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut manifest = Manifest::ccaas();
            manifest.policy = opts.policy;
            let mut enclave =
                BootstrapEnclave::new(EnclaveLayout::new(MemConfig::small()), manifest);
            enclave.set_owner_session([0xD1; 32]);
            if let Err(e) = enclave.install_plain(&obj.serialize()) {
                eprintln!("install rejected: {e}");
                return ExitCode::FAILURE;
            }
            if let Some(hex_input) = &opts.input_hex {
                let Some(bytes) = unhex(hex_input) else {
                    eprintln!("--input must be hex");
                    return ExitCode::FAILURE;
                };
                enclave.provide_input(&bytes).expect("installed");
            }
            let report = enclave.run(opts.fuel).expect("installed");
            println!(
                "exit: {:?}\ninstructions: {}\nocalls: {}\nsealed records: {}\nleaked writes: {}",
                report.exit,
                report.stats.instructions,
                report.stats.ocalls,
                report.records.len(),
                report.untrusted_writes
            );
            ExitCode::SUCCESS
        }
        "inspect" => {
            let [bin_path] = &opts.positional[..] else { return usage() };
            let obj = match load_object(bin_path) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("entry:   {}", obj.entry_symbol);
            println!(
                "text:    {} bytes   data: {} bytes   bss: {} bytes",
                obj.text.len(),
                obj.data.len(),
                obj.bss_size
            );
            println!("symbols ({}):", obj.symbols.len());
            for s in &obj.symbols {
                println!("  {:24} {:?}+{:#x} ({:?})", s.name, s.section, s.offset, s.kind);
            }
            println!("relocations: {}", obj.relocations.len());
            println!("indirect-branch proof list ({}):", obj.indirect_branch_table.len());
            for t in &obj.indirect_branch_table {
                println!("  {t}");
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}
