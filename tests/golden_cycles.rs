//! Golden counter pins: perf-semantics invariance.
//!
//! Simulated cycles, scheduler wakes (`events_processed`) and interpreted
//! ops are contract. Speed changes are welcome, but every value below must
//! be reproduced bit-for-bit, on both backends and at any sweep job count.
//! A perf change leaves this file alone. A change that alters the timing
//! model on purpose edits the constants here in the same change and says
//! so loudly; never edit one to hide a drift. Each value is written once:
//! the figure tests below read the shared points from the table.

use equeue_bench::{
    fig09_ifmap_sweep, fig09_weight_sweep, fig11_rows, fig12_sweep, fir_rows, run_quiet, scenarios,
    standard_library,
};
use equeue_core::{simulate_with, Backend, SimOptions};
use equeue_dialect::ConvDims;
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, FirCase, FirSpec, Stage, SystolicSpec,
};
use equeue_ir::Module;
use equeue_passes::Dataflow;

/// One scenario's simulated counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    cycles: u64,
    /// Scheduler wakes (`SimReport::events_processed`).
    events: u64,
    /// Ops interpreted (`SimReport::ops_interpreted`).
    ops: u64,
}

const fn pin(cycles: u64, events: u64, ops: u64) -> Counters {
    Counters {
        cycles,
        events,
        ops,
    }
}

/// Fig. 9's 16×16 ifmap point: a 2×2×3 filter on a 4×4 WS array.
const FIG09_16X16_WS: Counters = pin(690, 79, 117);
/// Fig. 11's last lowering stage, 6×6 ifmap, WS.
const FIG11_LAST_STAGE_6X6: Counters = pin(187, 646, 888);
/// The FIR `Balanced4` case.
const FIR_BALANCED4: Counters = pin(540, 3461, 3606);
/// Sums over the 216 points of the Fig. 12 small sweep: order-independent,
/// so any job count must reproduce them.
const FIG12_SMALL_SWEEP: Counters = pin(344_442, 1_034_097, 1_368_348);

/// Every pinned module with its counters. `conv2d_systolic` onwards use
/// the golden scenario shapes, so the pin covers the modules the snapshot
/// replay harness replays; `shard_grid` gives every PE its own memory
/// (contrast `mega_grid`: one memory shared by all PEs).
fn module_pins() -> Vec<(&'static str, Module, Counters)> {
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
    vec![
        ("fig09_16x16_ws", fig09.module, FIG09_16X16_WS),
        ("fig11_last_stage_6x6", fig11.module, FIG11_LAST_STAGE_6X6),
        ("fir_balanced4", fir.module, FIR_BALANCED4),
        (
            "matmul64_linalg",
            scenarios::matmul_linalg(64),
            pin(2_097_152, 4, 11),
        ),
        (
            "matmul64_affine",
            scenarios::matmul_affine(64),
            pin(1_572_864, 1_572_867, 1_843_339),
        ),
        (
            "tensor_stream_256x128",
            scenarios::tensor_stream(256, 128),
            pin(65_536, 386, 518),
        ),
        (
            "conv2d_systolic_8x3",
            scenarios::conv2d_systolic(8, 3, 2, 4),
            pin(5634, 18, 45),
        ),
        (
            "multi_tenant_4x16x6",
            scenarios::multi_tenant_trace(4, 16, 6),
            pin(8448, 144, 147),
        ),
        (
            "mega_grid_8x8",
            scenarios::mega_grid(8, 8, 4),
            pin(12, 834, 1348),
        ),
        (
            "shard_grid_4x4",
            scenarios::shard_grid(4, 4, 4),
            pin(12, 210, 355),
        ),
    ]
}

const BACKENDS: [Backend; 2] = [Backend::Fused, Backend::Interp];

#[test]
fn engine_counters_golden() {
    for (name, module, want) in module_pins() {
        for backend in BACKENDS {
            let opts = SimOptions {
                trace: false,
                backend,
                ..Default::default()
            };
            let r = simulate_with(&module, standard_library(), &opts)
                .unwrap_or_else(|e| panic!("{name} on {backend:?}: {e}"));
            let got = pin(r.cycles, r.events_processed, r.ops_interpreted);
            assert_eq!(got, want, "{name} on {backend:?}");
        }
    }
}

#[test]
fn fig12_sweep_golden() {
    // One run per backend: the pooled one on two workers, the other
    // sequential.
    for (backend, jobs) in BACKENDS.into_iter().zip([2, 1]) {
        let rows = fig12_sweep(false, jobs, backend);
        assert_eq!(rows.len(), 216);
        let sum = pin(
            rows.iter().map(|r| r.cycles).sum(),
            rows.iter().map(|r| r.events_processed).sum(),
            rows.iter().map(|r| r.ops_interpreted).sum(),
        );
        assert_eq!(
            sum, FIG12_SMALL_SWEEP,
            "fig12 small-sweep sums on {backend:?} at jobs = {jobs}"
        );
    }
}

#[test]
fn fig09_sweeps_golden() {
    let ifmap: Vec<(String, u64)> = fig09_ifmap_sweep()
        .into_iter()
        .map(|r| (r.label, r.equeue_cycles))
        .collect();
    assert_eq!(
        ifmap,
        [
            ("2x2", 18),
            ("4x4", 42),
            ("8x8", 162),
            ("16x16", FIG09_16X16_WS.cycles),
            ("32x32", 2898)
        ]
        .map(|(l, c)| (l.to_string(), c))
    );
    let weight: Vec<(String, u64)> = fig09_weight_sweep()
        .into_iter()
        .map(|r| (r.label, r.equeue_cycles))
        .collect();
    assert_eq!(
        weight,
        [
            ("2x2", 2898),
            ("4x4", 10152),
            ("8x8", 30240),
            ("16x16", 56448),
            ("32x32", 4608)
        ]
        .map(|(l, c)| (l.to_string(), c))
    );
}

#[test]
fn fig11_grid_golden() {
    let got: Vec<u64> = fig11_rows(&[4, 6]).into_iter().map(|r| r.cycles).collect();
    let ws6 = FIG11_LAST_STAGE_6X6.cycles;
    // Stage-major, dataflow-minor (Ws, Is, Os), hw in {4, 6}.
    assert_eq!(
        got,
        vec![
            3456, 3456, 3456, 2592, 2592, 2592, 1767, 1767, 1767, 103, 103, 159, // hw = 4
            13824, 13824, 13824, 10368, 10368, 10368, 6966, 6966, 6966, ws6, 412,
            327, // hw = 6
        ]
    );
}

#[test]
fn fir_cases_golden() {
    let got: Vec<u64> = fir_rows(0).into_iter().map(|r| r.cycles).collect();
    assert_eq!(got, vec![2048, 143, 588, FIR_BALANCED4.cycles]);
}

#[test]
fn engine_scenarios_golden() {
    assert_eq!(run_quiet(&scenarios::matmul_affine(32)).cycles, 196_608);
    assert_eq!(run_quiet(&scenarios::tensor_stream(64, 16)).cycles, 2_048);
}
