//! Golden snapshots of the analysis output for representative paper
//! scenarios, plus determinism checks.
//!
//! The committed files under `tests/golden/` pin down the full text
//! rendering — deadlock verdict, fusibility table, resource bounds, and
//! every diagnostic — so an accidental change to any pass shows up as a
//! readable diff. Regenerate intentionally with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p equeue-analysis --test golden_snapshots
//! ```
//!
//! The analysis is a pure function of the module, so its output must also
//! be byte-identical across repeated runs and across threads (the parallel
//! sweep driver analyzes scenarios concurrently).

use std::path::PathBuf;

use equeue_analysis::analyze_module;
use equeue_core::{RunLimits, SimLibrary};
use equeue_gen::scenarios::golden_scenarios;

/// Scenarios pinned as snapshots: one per paper figure family, the matmul
/// microbenchmarks (both fusible and non-fusible shapes), and the
/// scenario-diversity sweep (cache + DMA staging, tenant interleaving,
/// wide processor grid), and a grid whose PEs each own a private memory.
const SNAPSHOT_SCENARIOS: &[&str] = &[
    "fig09_4x4_ws_8x8",
    "fig11_systolic_ws_8",
    "fig12_ah8_hw16_f4_c4_n8_ws",
    "fir_pipelined16",
    "matmul_linalg16",
    "matmul_affine16",
    "conv2d_systolic_8x3",
    "multi_tenant_4x16x6",
    "mega_grid_8x8",
    "shard_grid_4x4",
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn report(name: &str) -> equeue_analysis::AnalysisReport {
    let scenario = golden_scenarios()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown snapshot scenario {name}"));
    analyze_module(
        &scenario.module,
        &SimLibrary::standard(),
        &RunLimits::default(),
    )
}

fn render(name: &str) -> String {
    report(name).to_text()
}

#[test]
fn snapshots_match_golden_files() {
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    let dir = golden_dir();
    if update {
        std::fs::create_dir_all(&dir).expect("create golden dir");
    }
    let mut mismatches = Vec::new();
    for name in SNAPSHOT_SCENARIOS {
        let r = report(name);
        // Both renderings are pinned: `.txt` for readable diffs, `.json`
        // for the machine-facing form the sweep tooling consumes.
        for (ext, actual) in [("txt", r.to_text()), ("json", r.to_json())] {
            let path = dir.join(format!("{name}.{ext}"));
            if update {
                std::fs::write(&path, &actual).expect("write golden file");
                continue;
            }
            let expected = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
            if actual != expected {
                mismatches.push(format!(
                    "{name}: analysis output diverged from {}\n--- expected\n{expected}\n--- actual\n{actual}",
                    path.display()
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden snapshot mismatches (rerun with UPDATE_GOLDEN=1 if intended):\n{}",
        mismatches.join("\n")
    );
}

/// The report must be byte-identical across repeated in-process runs:
/// no iteration-order leakage from hash maps into output.
#[test]
fn reports_are_deterministic_across_runs() {
    for name in SNAPSHOT_SCENARIOS {
        let first = render(name);
        for _ in 0..3 {
            assert_eq!(render(name), first, "{name}: output varies across runs");
        }
    }
}

/// ... and across threads, because the sweep driver runs analyses
/// concurrently with `--jobs`, which must not perturb the output.
#[test]
fn reports_are_deterministic_across_threads() {
    let baseline: Vec<String> = SNAPSHOT_SCENARIOS.iter().map(|n| render(n)).collect();
    let handles: Vec<_> = SNAPSHOT_SCENARIOS
        .iter()
        .map(|name| std::thread::spawn(move || render(name)))
        .collect();
    for (handle, (name, expected)) in handles
        .into_iter()
        .zip(SNAPSHOT_SCENARIOS.iter().zip(&baseline))
    {
        let actual = handle.join().expect("analysis thread panicked");
        assert_eq!(&actual, expected, "{name}: output varies across threads");
    }
}

/// JSON rendering is deterministic too, and structurally sane: balanced
/// braces and the fixed top-level key order the sweep tooling relies on.
#[test]
fn json_rendering_is_deterministic_and_wellformed() {
    for name in SNAPSHOT_SCENARIOS {
        let scenario = golden_scenarios()
            .into_iter()
            .find(|s| s.name == *name)
            .expect("scenario");
        let report = analyze_module(
            &scenario.module,
            &SimLibrary::standard(),
            &RunLimits::default(),
        );
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b, "{name}: JSON varies across renderings");
        assert!(
            a.starts_with("{\"deadlock_free\":"),
            "{name}: key order changed"
        );
        assert!(a.contains("\"deadlock_free\":"), "{name}: missing key");
        assert!(a.contains("\"diagnostics\":"), "{name}: missing key");
        let depth = a.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "{name}: unbalanced JSON");
    }
}
