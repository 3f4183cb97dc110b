//! `metrics_snapshot` — drives one small serving batch with the telemetry
//! collector and flight recorder enabled and dumps what they saw.
//!
//! ```text
//! metrics_snapshot [-o METRICS_file.json] [--trace-out TRACE_file.json]
//! ```
//!
//! The flow mirrors the serving story: produce an instrumented binary,
//! install it across an [`EnclavePool`], serve a parallel batch with one
//! chaos-killed worker (so the timeline shows a fault and a respawn),
//! export the sealed audit ring from a standalone enclave, then print the
//! collector's Prometheus-style exposition, the per-request causal
//! timelines, and a profiler hot-function table. `-o` writes the
//! host-stamped JSON snapshot a `trend` run can ingest; `--trace-out`
//! writes the chrome://tracing export of the batch.
//!
//! [`EnclavePool`]: deflection::core::pool::EnclavePool

use deflection::core::audit::open_audit_export;
use deflection::core::policy::{Manifest, PolicySet};
use deflection::core::pool::EnclavePool;
use deflection::core::producer::produce_for_layout;
use deflection::core::runtime::BootstrapEnclave;
use deflection::profiling::{profile_nbench, DEFAULT_INTERVAL};
use deflection::sgx::layout::{EnclaveLayout, MemConfig};
use deflection::telemetry::{chrome_trace, json_well_formed, Collector, FlightRecorder, Timeline};
use deflection::workloads::nbench;
use std::process::ExitCode;

/// A tiny scoring routine: one pass over the input, one sealed output byte.
const PROGRAM: &str = "
fn main() -> int {
    var n: int = input_len();
    var acc: int = 0;
    var i: int = 0;
    while (i < n) {
        acc = acc + input_byte(i);
        i = i + 1;
    }
    output_byte(0, acc & 0xFF);
    send(1);
    return acc;
}
";

fn main() -> ExitCode {
    let mut output: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match (arg.as_str(), args.next()) {
            ("-o" | "--output", Some(path)) => output = Some(path),
            ("--trace-out", Some(path)) => trace_out = Some(path),
            _ => {
                eprintln!(
                    "usage:\n  metrics_snapshot [-o METRICS_file.json] [--trace-out TRACE_file.json]"
                );
                return ExitCode::from(2);
            }
        }
    }

    Collector::enable();
    Collector::reset();
    FlightRecorder::reset();
    FlightRecorder::enable();

    // Full policy set with guard elision, so the producer's analysis and
    // self-verification phases show up in the histograms too.
    let mut manifest = Manifest::ccaas();
    manifest.policy = PolicySet::full().with_elision();
    let layout = EnclaveLayout::new(MemConfig::small());
    let binary = match produce_for_layout(PROGRAM, &manifest.policy, &layout) {
        Ok(obj) => obj.serialize(),
        Err(e) => {
            eprintln!("producer failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // A four-worker pool serving an eight-request batch: exercises the
    // install cache, work stealing and the per-run output budget.
    let owner_key = [0xD1; 32];
    let mut pool = EnclavePool::new(&layout, &manifest, 4);
    pool.set_owner_session(owner_key);
    if let Err(e) = pool.install_all(&binary) {
        eprintln!("pool install failed: {e}");
        return ExitCode::FAILURE;
    }
    // One chaos-killed worker makes the timeline demo show the full fault
    // story: a lost instance, the respawn, and the request completing on
    // the fresh enclave. Slot 0 is armed because the batch is small enough
    // that the first worker thread often drains it alone.
    pool.chaos_kill_after(0, 3);
    let requests: Vec<Vec<u8>> = (0..8u8).map(|i| vec![i, i + 1, i + 2, 40]).collect();
    let reports = match pool.serve_parallel(&requests, 10_000_000) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_parallel failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "served {} requests across {} workers ({} verification pass, {} fault, {} respawn)",
        reports.len(),
        pool.len(),
        pool.verification_count(),
        pool.health().total_faulted(),
        pool.health().total_respawned()
    );

    // Per-request causal timelines reconstructed from the flight ring.
    let flight = FlightRecorder::drain();
    let timeline = Timeline::build(&flight);
    println!(
        "\nflight recorder: {} events, {} dropped, {} causal lanes",
        flight.events.len(),
        flight.dropped,
        timeline.lanes.len()
    );
    println!("{}", timeline.render());
    if let Some(path) = trace_out {
        let trace = chrome_trace(&flight);
        if !json_well_formed(&trace) {
            eprintln!("chrome trace export is not well-formed JSON");
            return ExitCode::FAILURE;
        }
        if let Err(e) = std::fs::write(&path, &trace) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    FlightRecorder::disable();

    // Profiler demo: one nBench kernel under the sampling profiler, with
    // exact instruction attribution.
    let kernels = nbench::all();
    let kernel = kernels.iter().find(|k| k.name == "NUMERIC SORT").expect("kernel exists");
    match profile_nbench(kernel, 1, DEFAULT_INTERVAL) {
        Ok(profile) => {
            println!(
                "profiler: {} — {} instructions, all attributed\n{}",
                profile.kernel,
                profile.instructions,
                profile.table()
            );
        }
        Err(e) => {
            eprintln!("profiler demo failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // A standalone enclave demonstrates the attested audit-log export: the
    // sealed blob opens under the owner key on (channel 0, the counter in
    // force after the run's own sealed records).
    let mut enclave = BootstrapEnclave::new(layout, manifest);
    enclave.set_owner_session(owner_key);
    let audit = enclave
        .install_plain(&binary)
        .and_then(|_| enclave.provide_input(&[9, 9, 9]))
        .and_then(|()| enclave.run(10_000_000))
        .map_err(|e| e.to_string())
        .and_then(|report| {
            let sealed = enclave.ecall_export_audit().map_err(|e| e.to_string())?;
            open_audit_export(&owner_key, 0, report.records.len() as u64, &sealed)
                .map_err(|e| format!("{e:?}"))
        });
    match audit {
        Ok(log) => println!(
            "audit log: {} events, {} dropped, next seq {}",
            log.events.len(),
            log.dropped(),
            log.next_seq
        ),
        Err(e) => {
            eprintln!("audit export failed: {e}");
            return ExitCode::FAILURE;
        }
    }

    // The standalone run doubles as a trace-cache health check: install
    // forms the trace cover from the verifier's decode, so demand
    // formations here mean the cover missed something.
    let traces = enclave.trace_stats();
    println!(
        "traces: {} pre-warmed, {} demand-formed, {} chained, {} side exits, {} invalidated",
        traces.prewarmed, traces.formed, traces.chained, traces.side_exits, traces.invalidated
    );

    let snapshot = Collector::snapshot();
    println!("\n{}", snapshot.to_prometheus());
    if let Some(path) = output {
        // Host-stamped so the trend gate can tell comparable snapshots
        // from host-shape changes when enforcing p50/p99 drift.
        let cores = std::thread::available_parallelism().map(|n| n.get() as u64).ok();
        if let Err(e) = std::fs::write(&path, snapshot.to_json_stamped(cores)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}
