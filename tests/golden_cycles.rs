//! Golden cycle-count tests: perf-semantics invariance.
//!
//! The expected values below were captured from the engine **before** the
//! dense-frame / copy-on-write hot-path refactor (the original
//! `HashMap<ValueId, SimValue>` interpreter). Any engine optimisation must
//! reproduce them bit-for-bit: speed changes are welcome, simulated cycle
//! counts are contract. If a PR intentionally changes *timing semantics*
//! (not perf), it must update these values and say so loudly.

use equeue_bench::{
    fig09_ifmap_sweep, fig09_weight_sweep, fig11_rows, fig12_sweep, fir_rows, run_quiet, scenarios,
};
use equeue_core::Backend;

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
            ("16x16", 690),
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
    // Stage-major, dataflow-minor (Ws, Is, Os), hw in {4, 6}.
    assert_eq!(
        got,
        vec![
            3456, 3456, 3456, 2592, 2592, 2592, 1767, 1767, 1767, 103, 103, 159, // hw = 4
            13824, 13824, 13824, 10368, 10368, 10368, 6966, 6966, 6966, 187, 412,
            327, // hw = 6
        ]
    );
}

#[test]
fn fig12_sweep_golden() {
    let rows = fig12_sweep(false, 0, Backend::default());
    assert_eq!(rows.len(), 216);
    let sum: u64 = rows.iter().map(|r| r.cycles).sum();
    assert_eq!(
        sum, 344_442,
        "fig12 small-sweep total simulated cycles drifted"
    );
}

#[test]
fn fir_cases_golden() {
    let got: Vec<u64> = fir_rows(0).into_iter().map(|r| r.cycles).collect();
    assert_eq!(got, vec![2048, 143, 588, 540]);
}

#[test]
fn engine_scenarios_golden() {
    assert_eq!(run_quiet(&scenarios::matmul_linalg(64)).cycles, 2_097_152);
    assert_eq!(run_quiet(&scenarios::matmul_affine(32)).cycles, 196_608);
    assert_eq!(run_quiet(&scenarios::tensor_stream(64, 16)).cycles, 2_048);
}
