//! The engine performance baseline: runs the fig09/fig11/fig12 and FIR
//! scenarios plus engine-focused microworkloads, and writes
//! `BENCH_engine.json` so successive PRs have a perf trajectory.
//!
//! Usage: `cargo run --release --bin bench [-- [--jobs N] [--filter SUBSTR] [--backend fused|interp] [--iters N] [--fault-matrix] [--analyze] [<output-path>]]`
//! (default output: `BENCH_engine.json` in the current directory).
//!
//! * `--jobs N` — worker threads for the sweep scenarios (`fig12_small_sweep`);
//!   default is the machine's available parallelism, `--jobs 1` forces the
//!   sequential path. Cycles/events/ops are bit-identical at any job count —
//!   only wall-clock changes. This is the bench's only parallelism: each
//!   individual simulation runs on the single sequential engine.
//! * `--backend fused|interp` — execution backend (default `fused`, the
//!   threaded-code loop-trace runner; `interp` forces the reference
//!   interpreter). Counters are bit-identical either way — the CI drift
//!   guard runs both and compares.
//! * `--iters N` — override every scenario's timed iteration count
//!   (quick smoke runs use `--iters 1`).
//! * `--analyze` — instead of timing anything, run the `equeue-analysis`
//!   static passes (conflict graph, deadlock proof, fusibility, dead
//!   values, resource bounds) over every golden scenario and print each
//!   summary. Combines with `--filter`; exits non-zero if any scenario
//!   produces an Error-severity diagnostic. A pre-flight for sweeps: a
//!   scenario that fails here will wedge or trip limits at runtime.
//! * `--filter SUBSTR` — run only scenarios whose name contains `SUBSTR`
//!   (perf-iteration mode). The emitted JSON then holds a *subset* of the
//!   scenarios and must not be committed: the CI drift guard compares the
//!   full set. Unless an explicit output path is given, filtered runs
//!   write to `BENCH_engine.filtered.json` so they cannot clobber the
//!   committed baseline.
//!
//! # `BENCH_engine.json` schema (version 1)
//!
//! ```json
//! {
//!   "schema": "equeue-bench-engine/v1",
//!   "scenarios": [
//!     {
//!       "name": "matmul64_affine",   // scenario id, stable across PRs
//!       "cycles": 1835008,           // simulated cycles (must not drift)
//!       "events": 12345,             // scheduler wakes per run
//!       "ops": 67890,                // ops interpreted per run
//!       "iters": 5,                  // timed iterations (warm-ups untimed)
//!       "best_ms": 12.3,             // fastest iteration, wall ms
//!       "median_ms": 12.9,           // median iteration, wall ms
//!       "mean_ms": 13.1              // mean iteration, wall ms
//!     }
//!   ]
//! }
//! ```
//!
//! `cycles`/`events`/`ops` are determinism guards: a perf PR must leave
//! them bit-identical while driving `best_ms` down. Sweep scenarios
//! (`fig12_small_sweep`) report the **sums** of per-point cycles, scheduler
//! wakes, and interpreted ops across the whole sweep — order-independent,
//! so the guard holds at any `--jobs` width. Single-module scenarios are
//! compiled once ([`equeue_core::CompiledModule`]) and the prepass runs
//! outside the timed region, like the generators. Timings are wall-clock
//! on whatever machine ran the bench — compare relative trends, not
//! absolute numbers, across machines.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use equeue_bench::timing::{time, Sample};
use equeue_bench::{fig12_sweep_jobs_backend, pool, run_quiet, scenarios};
use equeue_core::{Backend, CompiledModule, SimLibrary, SimOptions, SimReport};
use equeue_dialect::ConvDims;
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, FirCase, FirSpec, Stage, SystolicSpec,
};
use equeue_ir::Module;
use equeue_passes::Dataflow;
use std::fmt::Write as _;

/// One scenario's measurement: the timing sample plus determinism guards.
struct Row {
    sample: Sample,
    cycles: u64,
    events: u64,
    ops: u64,
}

/// Times `iters` quiet simulations of `module` and records the report
/// counters of a reference run. The module is compiled once — the layout
/// prepass runs outside the timed region, so the row measures execution,
/// not recompilation.
fn sim_row(name: &str, iters: u32, module: Module, backend: Backend) -> Row {
    let compiled = match CompiledModule::compile(module, SimLibrary::standard()) {
        Ok(c) => c,
        Err(e) => panic!("compile failed: {e}"),
    };
    let opts = SimOptions {
        trace: false,
        backend,
        ..Default::default()
    };
    let run = || match compiled.simulate(&opts) {
        Ok(r) => r,
        Err(e) => panic!("simulation failed: {e}"),
    };
    let report: SimReport = run();
    let sample = time(name, iters, || run().cycles);
    Row {
        sample,
        cycles: report.cycles,
        events: report.events_processed,
        ops: report.ops_interpreted,
    }
}

/// Parsed command line.
struct Args {
    jobs: usize,
    filter: Option<String>,
    out_path: String,
    fault_matrix: bool,
    analyze: bool,
    backend: Backend,
    /// Overrides every scenario's timed iteration count when set.
    iters: Option<u32>,
}

fn parse_args() -> Args {
    let mut jobs = 0; // 0 = available parallelism (pool convention)
    let mut filter = None;
    let mut out_path: Option<String> = None;
    let mut fault_matrix = false;
    let mut analyze = false;
    let mut backend = Backend::default();
    let mut iters = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--jobs" => jobs = pool::parse_jobs_arg("bench", argv.next()),
            "--filter" => {
                filter = Some(argv.next().unwrap_or_else(|| {
                    eprintln!("bench: --filter needs a substring");
                    std::process::exit(2);
                }));
            }
            "--fault-matrix" => fault_matrix = true,
            "--analyze" => analyze = true,
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
            "--iters" => {
                iters = match argv.next().and_then(|v| v.parse::<u32>().ok()) {
                    Some(n) if n > 0 => Some(n),
                    _ => {
                        eprintln!("bench: --iters needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            flag if flag.starts_with('-') => {
                eprintln!(
                    "bench: unknown flag '{flag}' (expected --jobs N / --filter SUBSTR / --backend fused|interp / --iters N / --fault-matrix / --analyze / <output-path>)"
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
    // A filtered run emits a scenario *subset*: default it to a side file
    // so iterating on one scenario can never silently clobber the
    // committed full baseline the CI drift guard compares against.
    let out_path = out_path.unwrap_or_else(|| {
        if filter.is_some() {
            "BENCH_engine.filtered.json".to_string()
        } else {
            "BENCH_engine.json".to_string()
        }
    });
    Args {
        jobs,
        filter,
        out_path,
        fault_matrix,
        analyze,
        backend,
        iters,
    }
}

/// The `--analyze` mode: run the static-analysis pipeline over the golden
/// scenario set and print per-scenario summaries. Exits non-zero when any
/// scenario carries an Error-severity diagnostic.
fn run_analyze(filter: Option<&str>) -> ! {
    use equeue_analysis::{analyze_module, Severity};
    use equeue_core::RunLimits;

    let library = equeue_bench::standard_library();
    let limits = RunLimits::default();
    let mut errors = 0usize;
    let mut ran = 0usize;
    for scenario in scenarios::golden_scenarios() {
        if let Some(f) = filter {
            if !scenario.name.contains(f) {
                continue;
            }
        }
        ran += 1;
        let report = analyze_module(&scenario.module, library, &limits);
        for d in report
            .diagnostics
            .iter()
            .filter(|d| d.severity > Severity::Info)
        {
            println!("analyze: {}: {d}", scenario.name);
        }
        println!(
            "analyze: {}: {} errors, {} warnings, deadlock_free={}, fusible {}/{}, events <= {}",
            scenario.name,
            report.error_count(),
            report.warning_count(),
            report.deadlock_free,
            report.fusibility.fusible_count(),
            report.fusibility.loops.len(),
            report
                .resources
                .events_bound
                .map_or("unknown".to_string(), |b| b.to_string()),
        );
        errors += report.error_count();
    }
    if ran == 0 {
        eprintln!(
            "analyze: filter '{}' matched no scenario",
            filter.unwrap_or("")
        );
        std::process::exit(2);
    }
    if errors > 0 {
        eprintln!("analyze: {errors} error diagnostic(s) across {ran} scenario(s)");
        std::process::exit(1);
    }
    println!("analyze: {ran} scenario(s) clean");
    std::process::exit(0);
}

/// The fault-injection harness (`--fault-matrix`): perturbs a scenario
/// module with each [`equeue_core::fault::Fault`] kind, runs it under tight
/// [`equeue_core::RunLimits`], and requires every outcome to be a normal
/// report or a typed `SimError` — a panic anywhere fails the process. Also
/// checks the differential contract: a zero-fault injected run stays
/// bit-identical to the golden run.
fn run_fault_matrix() -> ! {
    use equeue_core::fault::{apply_faults, Fault};
    use equeue_core::{simulate_with, RunLimits};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    let golden = run_quiet(&scenarios::matmul_linalg(8));

    // Differential check: zero faults applied → bit-identical counters —
    // under both execution backends.
    for backend in [Backend::Fused, Backend::Interp] {
        let mut unfaulted = scenarios::matmul_linalg(8);
        assert_eq!(apply_faults(&mut unfaulted, &[]), 0);
        let again = equeue_bench::run_quiet_backend(&unfaulted, backend);
        assert_eq!(
            (
                golden.cycles,
                golden.events_processed,
                golden.ops_interpreted
            ),
            (again.cycles, again.events_processed, again.ops_interpreted),
            "zero-fault injected run diverged from golden ({backend:?} backend)"
        );
    }
    println!(
        "fault-matrix: zero-fault run bit-identical on both backends (cycles {}, events {}, ops {})",
        golden.cycles, golden.events_processed, golden.ops_interpreted
    );

    let matrix: Vec<(&str, Vec<Fault>)> = vec![
        (
            "rename-op-unknown",
            vec![Fault::RenameOp {
                nth: 6,
                to: "bogus.op".into(),
            }],
        ),
        ("drop-operand", vec![Fault::DropOperand { nth: 2 }]),
        (
            "ext-op-huge-latency",
            vec![Fault::ExtOpCycles {
                nth: 0,
                cycles: i64::MAX,
            }],
        ),
        (
            "corrupt-shape-overflow",
            vec![Fault::CorruptShape {
                nth: 0,
                dims: vec![i64::MAX, i64::MAX],
            }],
        ),
        (
            "corrupt-shape-negative",
            vec![Fault::CorruptShape {
                nth: 0,
                dims: vec![-4],
            }],
        ),
        ("drop-regions", vec![Fault::DropRegions { nth: 0 }]),
        ("zero-loop-step", vec![Fault::ZeroLoopStep { nth: 0 }]),
    ];
    let limits = RunLimits {
        max_cycles: 100_000_000,
        max_events: 10_000_000,
        wall_deadline: Some(Duration::from_secs(5)),
        ..Default::default()
    };
    let mut failures = 0;
    for (name, faults) in &matrix {
        // Perturb a Linalg-level, an affine-loop, and an ext-op-heavy
        // scenario so each fault kind meets ops it can land on.
        for (scenario, module) in [
            ("matmul8_linalg", scenarios::matmul_linalg(8)),
            ("matmul4_affine", scenarios::matmul_affine(4)),
            (
                "fir_single_core",
                generate_fir(FirSpec::default(), FirCase::SingleCore).module,
            ),
        ] {
            let mut module = module;
            let applied = apply_faults(&mut module, faults);
            // Run the perturbed module under both backends: neither may
            // panic, and both must reach the same outcome (identical
            // counters on success, the same error kind on failure).
            let mut outcomes = vec![];
            for backend in [Backend::Fused, Backend::Interp] {
                let opts = equeue_core::SimOptions {
                    trace: false,
                    limits,
                    backend,
                    ..Default::default()
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    simulate_with(&module, equeue_bench::standard_library(), &opts)
                }));
                match &outcome {
                    Ok(Ok(r)) => println!(
                        "fault-matrix[{backend:?}]: {name} on {scenario} (applied {applied}): ran to cycle {}",
                        r.cycles
                    ),
                    Ok(Err(e)) => println!(
                        "fault-matrix[{backend:?}]: {name} on {scenario} (applied {applied}): SimError: {e}"
                    ),
                    Err(_) => {
                        eprintln!("fault-matrix[{backend:?}]: {name} on {scenario}: PANICKED");
                        failures += 1;
                    }
                }
                outcomes.push(outcome);
            }
            if let [Ok(a), Ok(b)] = &outcomes[..] {
                let agree = match (a, b) {
                    (Ok(ra), Ok(rb)) => {
                        (ra.cycles, ra.events_processed, ra.ops_interpreted)
                            == (rb.cycles, rb.events_processed, rb.ops_interpreted)
                    }
                    (Err(ea), Err(eb)) => std::mem::discriminant(ea) == std::mem::discriminant(eb),
                    _ => false,
                };
                if !agree {
                    eprintln!(
                        "fault-matrix: {name} on {scenario}: backends diverged (fused {a:?} vs interp {b:?})"
                    );
                    failures += 1;
                }
            }
        }
    }
    if failures > 0 {
        eprintln!("fault-matrix: {failures} perturbation(s) panicked or diverged");
        std::process::exit(1);
    }
    println!(
        "fault-matrix: all perturbations surfaced as reports or typed SimErrors on both backends"
    );
    std::process::exit(0);
}

fn main() {
    let args = parse_args();
    if args.fault_matrix {
        run_fault_matrix();
    }
    if args.analyze {
        run_analyze(args.filter.as_deref());
    }
    let enabled = |name: &str| -> bool { args.filter.as_deref().is_none_or(|f| name.contains(f)) };
    println!(
        "bench: jobs = {} ({} requested), backend = {:?}{}",
        pool::resolve_jobs(args.jobs),
        if args.jobs == 0 {
            "auto".to_string()
        } else {
            args.jobs.to_string()
        },
        args.backend,
        args.filter
            .as_deref()
            .map(|f| format!(", filter = '{f}'"))
            .unwrap_or_default(),
    );
    let iters = |default: u32| args.iters.unwrap_or(default);
    let mut rows: Vec<Row> = vec![];

    // Figure scenarios: one representative point each (generation and the
    // compile prepass outside the timed loop — this benchmarks the engine's
    // execution, not the generators or the prepass).
    if enabled("fig09_16x16_ws") {
        let fig09 = generate_systolic(
            &SystolicSpec {
                rows: 4,
                cols: 4,
                dataflow: Dataflow::Ws,
            },
            ConvDims::square(16, 2, 3, 1),
        );
        rows.push(sim_row(
            "fig09_16x16_ws",
            iters(10),
            fig09.module,
            args.backend,
        ));
    }

    if enabled("fig11_last_stage_6x6") {
        let fig11 = build_stage_program(
            Stage::all()[Stage::all().len() - 1],
            ConvDims::square(6, 3, 3, 4),
            (4, 4),
            Dataflow::Ws,
        );
        rows.push(sim_row(
            "fig11_last_stage_6x6",
            iters(10),
            fig11.module,
            args.backend,
        ));
    }

    if enabled("fir_balanced4") {
        let fir = generate_fir(FirSpec::default(), FirCase::Balanced4);
        rows.push(sim_row(
            "fir_balanced4",
            iters(10),
            fir.module,
            args.backend,
        ));
    }

    // The fig12 subsampled sweep end-to-end (generation + simulation for
    // every config), sharded across the worker pool. The guards sum
    // per-point cycles, scheduler wakes, and interpreted ops — the sums are
    // order-independent, so the committed values hold at any --jobs width.
    if enabled("fig12_small_sweep") {
        let mut guard = (0u64, 0u64, 0u64);
        let sample = time("fig12_small_sweep", iters(3), || {
            let rows = fig12_sweep_jobs_backend(false, args.jobs, args.backend);
            guard = rows.iter().fold((0, 0, 0), |acc, r| {
                (
                    acc.0 + r.cycles,
                    acc.1 + r.events_processed,
                    acc.2 + r.ops_interpreted,
                )
            });
            rows.len()
        });
        rows.push(Row {
            sample,
            cycles: guard.0,
            events: guard.1,
            ops: guard.2,
        });
    }

    // Engine microworkloads.
    if enabled("matmul64_linalg") {
        rows.push(sim_row(
            "matmul64_linalg",
            iters(10),
            scenarios::matmul_linalg(64),
            args.backend,
        ));
    }
    if enabled("matmul64_affine") {
        rows.push(sim_row(
            "matmul64_affine",
            iters(5),
            scenarios::matmul_affine(64),
            args.backend,
        ));
    }
    if enabled("tensor_stream_256x128") {
        rows.push(sim_row(
            "tensor_stream_256x128",
            iters(10),
            scenarios::tensor_stream(256, 128),
            args.backend,
        ));
    }
    // Scenario-diversity sweep additions (same shapes as the golden list,
    // so the drift guard pins the exact modules the replay harness replays).
    if enabled("conv2d_systolic_8x3") {
        rows.push(sim_row(
            "conv2d_systolic_8x3",
            iters(10),
            scenarios::conv2d_systolic(8, 3, 2, 4),
            args.backend,
        ));
    }
    if enabled("multi_tenant_4x16x6") {
        rows.push(sim_row(
            "multi_tenant_4x16x6",
            iters(10),
            scenarios::multi_tenant_trace(4, 16, 6),
            args.backend,
        ));
    }
    if enabled("mega_grid_8x8") {
        rows.push(sim_row(
            "mega_grid_8x8",
            iters(10),
            scenarios::mega_grid(8, 8, 4),
            args.backend,
        ));
    }
    // The multi-group conflict workload: every PE+memory pair is its own
    // conflict group (contrast `mega_grid`, one shared memory, one group).
    if enabled("shard_grid_4x4") {
        rows.push(sim_row(
            "shard_grid_4x4",
            iters(10),
            scenarios::shard_grid(4, 4, 4),
            args.backend,
        ));
    }

    if rows.is_empty() {
        eprintln!(
            "bench: filter '{}' matched no scenario",
            args.filter.as_deref().unwrap_or("")
        );
        std::process::exit(2);
    }

    // Emit JSON (hand-rolled: the workspace has no serde).
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"equeue-bench-engine/v1\",\n  \"scenarios\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"cycles\": {}, \"events\": {}, \"ops\": {}, \
             \"iters\": {}, \"best_ms\": {:.3}, \"median_ms\": {:.3}, \"mean_ms\": {:.3}}}{}",
            r.sample.name,
            r.cycles,
            r.events,
            r.ops,
            r.sample.iters,
            r.sample.best_ms,
            r.sample.median_ms,
            r.sample.mean_ms,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(&args.out_path, &json) {
        eprintln!("bench: cannot write {}: {e}", args.out_path);
        std::process::exit(1);
    }
    println!("\nwrote {}", args.out_path);
    if args.filter.is_some() {
        println!("note: --filter output is a scenario subset; do not commit it");
    }

    // Quiet-run sanity: every scenario simulated deterministically.
    let check = run_quiet(&scenarios::matmul_linalg(8));
    assert!(check.cycles > 0);
}
