//! The engine counter drift guard: simulates each engine scenario once
//! (one fig09/fig11/FIR point each, the fig12 small sweep, and
//! engine-focused microworkloads) and writes the simulated counters to
//! `BENCH_engine.json`. CI regenerates the file and fails if any counter
//! differs from the committed one. Wall time is not measured here: the
//! `benchmark/` crate (`benchmark compare`) owns timing.
//!
//! Usage: `cargo run --release --bin bench [-- [--jobs N] [--backend fused|interp] [<output-path>]]`
//! (default output: `BENCH_engine.json` in the current directory).
//!
//! * `--jobs N` — worker threads for the sweep scenario (`fig12_small_sweep`);
//!   default is the machine's available parallelism, `--jobs 1` forces the
//!   sequential path. Counters are bit-identical at any job count.
//! * `--backend fused|interp` — execution backend (default `fused`, the
//!   threaded-code loop-trace runner; `interp` forces the reference
//!   interpreter). Counters are bit-identical either way — the CI drift
//!   guard runs both and compares.
//!
//! # `BENCH_engine.json` schema (version 2)
//!
//! ```json
//! {
//!   "schema": "equeue-bench-engine/v2",
//!   "scenarios": [
//!     {
//!       "name": "matmul64_affine",   // scenario id, stable over time
//!       "cycles": 1572864,           // simulated cycles
//!       "events": 1572867,           // scheduler wakes
//!       "ops": 1843339               // ops interpreted
//!     }
//!   ]
//! }
//! ```
//!
//! The sweep scenario (`fig12_small_sweep`) reports the **sums** of
//! per-point cycles, scheduler wakes, and interpreted ops across the whole
//! sweep — order-independent, so the guard holds at any `--jobs` width.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use equeue_bench::{fig12_sweep, pool, scenarios, standard_library};
use equeue_core::{simulate_with, Backend, SimOptions};
use equeue_dialect::ConvDims;
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, FirCase, FirSpec, Stage, SystolicSpec,
};
use equeue_ir::Module;
use equeue_passes::Dataflow;
use std::fmt::Write as _;

/// One scenario's simulated counters.
struct Row {
    name: &'static str,
    cycles: u64,
    events: u64,
    ops: u64,
}

/// Simulates `module` once, untraced, and records its counters.
fn module_row(name: &'static str, module: &Module, backend: Backend) -> Row {
    let opts = SimOptions {
        trace: false,
        backend,
        ..Default::default()
    };
    let report = simulate_with(module, standard_library(), &opts)
        .unwrap_or_else(|e| panic!("{name}: simulation failed: {e}"));
    Row {
        name,
        cycles: report.cycles,
        events: report.events_processed,
        ops: report.ops_interpreted,
    }
}

/// Parsed command line.
struct Args {
    jobs: usize,
    backend: Backend,
    out_path: String,
}

fn parse_args() -> Args {
    let mut jobs = 0; // 0 = available parallelism (pool convention)
    let mut backend = Backend::default();
    let mut out_path: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--jobs" => jobs = pool::parse_jobs_arg("bench", argv.next()),
            "--backend" => {
                backend = match argv.next().as_deref() {
                    Some("fused") => Backend::Fused,
                    Some("interp") => Backend::Interp,
                    other => {
                        eprintln!(
                            "bench: --backend needs 'fused' or 'interp' (got {})",
                            other.unwrap_or("nothing")
                        );
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with('-') => {
                eprintln!(
                    "bench: unknown flag '{flag}' (expected --jobs N / --backend fused|interp / <output-path>)"
                );
                std::process::exit(2);
            }
            other => {
                if let Some(prev) = &out_path {
                    eprintln!("bench: two output paths given ('{prev}' and '{other}')");
                    std::process::exit(2);
                }
                out_path = Some(other.to_string());
            }
        }
    }
    Args {
        jobs,
        backend,
        out_path: out_path.unwrap_or_else(|| "BENCH_engine.json".to_string()),
    }
}

fn main() {
    let args = parse_args();
    println!(
        "bench: jobs = {}, backend = {:?}",
        pool::resolve_jobs(args.jobs),
        args.backend,
    );
    let fig09 = generate_systolic(
        &SystolicSpec {
            rows: 4,
            cols: 4,
            dataflow: Dataflow::Ws,
        },
        ConvDims::square(16, 2, 3, 1),
    );
    let fig11 = build_stage_program(
        Stage::all()[Stage::all().len() - 1],
        ConvDims::square(6, 3, 3, 4),
        (4, 4),
        Dataflow::Ws,
    );
    let fir = generate_fir(FirSpec::default(), FirCase::Balanced4);
    let mut rows = vec![
        module_row("fig09_16x16_ws", &fig09.module, args.backend),
        module_row("fig11_last_stage_6x6", &fig11.module, args.backend),
        module_row("fir_balanced4", &fir.module, args.backend),
    ];

    // The fig12 subsampled sweep (generation + simulation for every
    // config), sharded across the worker pool.
    let sweep = fig12_sweep(false, args.jobs, args.backend);
    rows.push(Row {
        name: "fig12_small_sweep",
        cycles: sweep.iter().map(|r| r.cycles).sum(),
        events: sweep.iter().map(|r| r.events_processed).sum(),
        ops: sweep.iter().map(|r| r.ops_interpreted).sum(),
    });

    // Engine microworkloads. `conv2d_systolic` onwards use the golden
    // scenario shapes, so the guard pins the modules the replay harness
    // replays; `shard_grid` gives every PE its own memory (contrast
    // `mega_grid`: one memory shared by all PEs).
    let micro = [
        ("matmul64_linalg", scenarios::matmul_linalg(64)),
        ("matmul64_affine", scenarios::matmul_affine(64)),
        ("tensor_stream_256x128", scenarios::tensor_stream(256, 128)),
        (
            "conv2d_systolic_8x3",
            scenarios::conv2d_systolic(8, 3, 2, 4),
        ),
        (
            "multi_tenant_4x16x6",
            scenarios::multi_tenant_trace(4, 16, 6),
        ),
        ("mega_grid_8x8", scenarios::mega_grid(8, 8, 4)),
        ("shard_grid_4x4", scenarios::shard_grid(4, 4, 4)),
    ];
    for (name, module) in &micro {
        rows.push(module_row(name, module, args.backend));
    }

    // Emit JSON (hand-rolled: the workspace has no serde).
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"equeue-bench-engine/v2\",\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "{:<24} cycles {:>10}   events {:>10}   ops {:>10}",
            r.name, r.cycles, r.events, r.ops
        );
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"cycles\": {}, \"events\": {}, \"ops\": {}}}{}",
            r.name,
            r.cycles,
            r.events,
            r.ops,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&args.out_path, &json) {
        eprintln!("bench: cannot write {}: {e}", args.out_path);
        std::process::exit(1);
    }
    println!("wrote {}", args.out_path);
}
