//! Golden-equivalence tests for the compile-once / run-many API.
//!
//! Contract: compiling a module once via [`CompiledModule`] and simulating
//! it N times — sequentially or from N threads at once — must yield
//! bit-identical `cycles` / `events_processed` / `ops_interpreted` to N
//! fresh [`simulate_with`] calls (each of which re-runs the prepass). The
//! scenarios are the paper's figure workloads: a fig09 systolic point, a
//! fig11 last-lowering-stage point, and the balanced FIR case — plus the
//! two processor grids (`shard_grid`, `mega_grid`) whose many same-time
//! wakes make them the most sensitive to nondeterministic scheduling.

use equeue_core::{simulate_with, CompiledModule, SimLibrary, SimOptions};
use equeue_dialect::ConvDims;
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, scenarios, FirCase, FirSpec, Stage,
    SystolicSpec,
};
use equeue_ir::Module;
use equeue_passes::Dataflow;

const RUNS: usize = 3;

/// The determinism fingerprint of one simulation.
type Fingerprint = (u64, u64, u64);

fn fingerprint(r: &equeue_core::SimReport) -> Fingerprint {
    (r.cycles, r.events_processed, r.ops_interpreted)
}

fn quiet() -> SimOptions {
    SimOptions {
        trace: false,
        ..Default::default()
    }
}

/// Runs the equivalence check for one module: N fresh `simulate_with` calls
/// vs one compile + N sequential runs + N concurrent runs.
fn assert_compiled_equivalent(name: &str, module: Module) {
    let opts = quiet();
    let fresh: Vec<Fingerprint> = (0..RUNS)
        .map(|_| {
            let lib = SimLibrary::standard();
            fingerprint(&simulate_with(&module, &lib, &opts).expect("fresh simulation"))
        })
        .collect();
    assert!(
        fresh.windows(2).all(|w| w[0] == w[1]),
        "{name}: fresh simulate_with calls disagree with each other: {fresh:?}"
    );
    let golden = fresh[0];

    let compiled = CompiledModule::compile(module, SimLibrary::standard()).expect("compile");
    for i in 0..RUNS {
        let got = fingerprint(&compiled.simulate(&opts).expect("compiled simulation"));
        assert_eq!(
            got, golden,
            "{name}: sequential compiled run {i} diverged from fresh simulate_with"
        );
    }

    let concurrent: Vec<Fingerprint> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..RUNS)
            .map(|_| {
                let compiled = &compiled;
                let opts = quiet();
                s.spawn(move || {
                    fingerprint(&compiled.simulate(&opts).expect("concurrent simulation"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, got) in concurrent.into_iter().enumerate() {
        assert_eq!(
            got, golden,
            "{name}: concurrent compiled run {i} diverged from fresh simulate_with"
        );
    }
}

#[test]
fn fig09_point_compiled_equivalence() {
    let prog = generate_systolic(
        &SystolicSpec {
            rows: 4,
            cols: 4,
            dataflow: Dataflow::Ws,
        },
        ConvDims::square(8, 2, 3, 1),
    );
    assert_compiled_equivalent("fig09_8x8_ws", prog.module);
}

#[test]
fn fig11_last_stage_compiled_equivalence() {
    let prog = build_stage_program(
        Stage::all()[Stage::all().len() - 1],
        ConvDims::square(4, 3, 3, 4),
        (4, 4),
        Dataflow::Ws,
    );
    assert_compiled_equivalent("fig11_last_stage_4x4", prog.module);
}

#[test]
fn fir_balanced_compiled_equivalence() {
    let prog = generate_fir(FirSpec::default(), FirCase::Balanced4);
    assert_compiled_equivalent("fir_balanced4", prog.module);
}

#[test]
fn shard_grid_compiled_equivalence() {
    // Sixteen PEs, each with its own memory, all runnable at t = 0: many
    // same-time wakes, so any scheduling nondeterminism shows here.
    assert_compiled_equivalent("shard_grid_4x4", scenarios::shard_grid(4, 4, 4));
}

#[test]
fn mega_grid_compiled_equivalence() {
    // One shared memory across a 64-PE grid: heavy same-time contention.
    assert_compiled_equivalent("mega_grid_8x8", scenarios::mega_grid(8, 8, 4));
}

#[test]
fn fir_traced_compiled_equivalence() {
    // Same contract with tracing on: the trace machinery is per-run state
    // and must not perturb timing across compiled/concurrent runs.
    let prog = generate_fir(FirSpec::default(), FirCase::Pipelined16);
    let opts = SimOptions {
        trace: true,
        ..Default::default()
    };
    let lib = SimLibrary::standard();
    let fresh = simulate_with(&prog.module, &lib, &opts).expect("fresh simulation");
    let compiled = CompiledModule::compile(prog.module, lib).expect("compile");
    let a = compiled.simulate(&opts).expect("first compiled run");
    let b = compiled.simulate(&opts).expect("second compiled run");
    assert_eq!(fingerprint(&a), fingerprint(&fresh));
    assert_eq!(fingerprint(&b), fingerprint(&fresh));
    assert_eq!(a.trace.to_chrome_json(), b.trace.to_chrome_json());
}
