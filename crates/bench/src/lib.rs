//! # equeue-bench — the experiment harness
//!
//! One driver per table/figure of the paper's evaluation. Binaries under
//! `src/bin/` print the same rows/series the paper reports. The drivers
//! live here so binaries and integration tests (among them the counter
//! pins in `tests/golden_cycles.rs`) share one implementation; the
//! simulator's wall time is measured by the separate `benchmark/` crate.
//!
//! Sweeps over independent configurations ([`fig12_sweep`], [`fir_rows`])
//! shard their points across the std-thread worker pool in [`pool`]: they
//! take an explicit thread count (`0` = all cores) and produce
//! bit-identical rows at any job count.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod pool;

use equeue_core::{
    simulate_with, Backend, CancelToken, RunLimits, SimError, SimLibrary, SimOptions, SimReport,
};
use equeue_dialect::ConvDims;
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, FirCase, FirSpec, Stage, SystolicSpec,
};
use equeue_passes::Dataflow;
use pool::PointStatus;
use std::sync::OnceLock;
use std::time::Duration;

/// The shared standard simulator library: built once per process and handed
/// to every quiet run, so sweeps do not rebuild the profile/factory tables
/// per point. `SimLibrary` is `Send + Sync`, so worker threads borrow it
/// freely.
pub fn standard_library() -> &'static SimLibrary {
    static LIB: OnceLock<SimLibrary> = OnceLock::new();
    LIB.get_or_init(SimLibrary::standard)
}

/// Converts the pass-level dataflow enum into the baseline's.
pub fn to_scalesim(df: Dataflow) -> scalesim::Dataflow {
    match df {
        Dataflow::Ws => scalesim::Dataflow::Ws,
        Dataflow::Is => scalesim::Dataflow::Is,
        Dataflow::Os => scalesim::Dataflow::Os,
    }
}

/// Converts a [`ConvDims`] into the baseline's shape type.
pub fn to_conv_shape(d: ConvDims) -> scalesim::ConvShape {
    scalesim::ConvShape {
        h: d.h,
        w: d.w,
        fh: d.fh,
        fw: d.fw,
        c: d.c,
        n: d.n,
    }
}

/// Simulates a module without tracing (sweep mode).
///
/// # Panics
///
/// Panics if the simulation fails (benchmark scenarios are known-good).
pub fn run_quiet(module: &equeue_ir::Module) -> SimReport {
    match simulate_with(
        module,
        standard_library(),
        &SimOptions {
            trace: false,
            ..Default::default()
        },
    ) {
        Ok(report) => report,
        Err(e) => panic!("simulation failed: {e}"),
    }
}

// ---------------------------------------------------------------------------
// Fig. 9 — EQueue vs SCALE-Sim on a 4×4 WS array
// ---------------------------------------------------------------------------

/// One comparison point of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig09Row {
    /// Sweep label (`"8x8"`).
    pub label: String,
    /// EQueue simulated cycles.
    pub equeue_cycles: u64,
    /// SCALE-Sim cycles.
    pub scalesim_cycles: u64,
    /// EQueue average SRAM ofmap write bandwidth (B/cycle).
    pub equeue_ofmap_bw: f64,
    /// SCALE-Sim average ofmap write bandwidth (B/cycle).
    pub scalesim_ofmap_bw: f64,
    /// EQueue wall-clock simulation time.
    pub equeue_time: Duration,
}

impl Fig09Row {
    /// Relative cycle error |EQ − SS| / SS.
    pub fn cycle_error(&self) -> f64 {
        (self.equeue_cycles as f64 - self.scalesim_cycles as f64).abs()
            / self.scalesim_cycles.max(1) as f64
    }
}

fn fig09_point(dims: ConvDims) -> Fig09Row {
    let spec = SystolicSpec {
        rows: 4,
        cols: 4,
        dataflow: Dataflow::Ws,
    };
    let prog = generate_systolic(&spec, dims);
    let report = run_quiet(&prog.module);
    let ss = scalesim::scale_sim(
        scalesim::ArrayShape { rows: 4, cols: 4 },
        to_conv_shape(dims),
        scalesim::Dataflow::Ws,
    );
    Fig09Row {
        label: format!("{}x{}", dims.h, dims.w),
        equeue_cycles: report.cycles,
        scalesim_cycles: ss.cycles,
        equeue_ofmap_bw: report
            .memory_named("OfmapSRAM")
            .map(|m| m.avg_write_bw)
            .unwrap_or(0.0),
        scalesim_ofmap_bw: ss.avg_ofmap_write_bw,
        equeue_time: report.execution_time,
    }
}

/// Fig. 9a/b: ifmap sweep 2²…32² with fixed 2×2×3 weights.
pub fn fig09_ifmap_sweep() -> Vec<Fig09Row> {
    [2usize, 4, 8, 16, 32]
        .into_iter()
        .map(|hw| fig09_point(ConvDims::square(hw, 2.min(hw), 3, 1)))
        .collect()
}

/// Fig. 9c/d: filter sweep 2²…32² with a fixed 32×32 ifmap.
pub fn fig09_weight_sweep() -> Vec<Fig09Row> {
    [2usize, 4, 8, 16, 32]
        .into_iter()
        .map(|f| {
            let dims = ConvDims {
                h: 32,
                w: 32,
                fh: f,
                fw: f,
                c: 3,
                n: 1,
            };
            let mut row = fig09_point(dims);
            row.label = format!("{f}x{f}");
            row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 11 — metrics along the lowering pipeline
// ---------------------------------------------------------------------------

/// One (stage, dataflow, size) measurement of Fig. 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Lowering stage.
    pub stage: Stage,
    /// Dataflow (stages before Systolic are dataflow-independent; the
    /// value records which pipeline produced the row).
    pub dataflow: Dataflow,
    /// Ifmap height/width.
    pub hw: usize,
    /// Wall-clock simulation time.
    pub execution_time: Duration,
    /// Simulated cycles.
    pub cycles: u64,
    /// Average SRAM read bandwidth.
    pub sram_read_bw: f64,
    /// Average SRAM write bandwidth.
    pub sram_write_bw: f64,
    /// Average register read bandwidth.
    pub reg_read_bw: f64,
    /// Average register write bandwidth.
    pub reg_write_bw: f64,
}

/// Runs the Fig. 11 grid: stages × dataflows for the given sizes, on a
/// 4×4 array with `Fh=Fw=3, C=3, N=4`.
pub fn fig11_rows(sizes: &[usize]) -> Vec<Fig11Row> {
    let mut rows = vec![];
    for &hw in sizes {
        let dims = ConvDims::square(hw, 3, 3, 4);
        for stage in Stage::all() {
            for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
                let prog = build_stage_program(stage, dims, (4, 4), df);
                let report = run_quiet(&prog.module);
                rows.push(Fig11Row {
                    stage,
                    dataflow: df,
                    hw,
                    execution_time: report.execution_time,
                    cycles: report.cycles,
                    sram_read_bw: report.read_bw_of_kind("SRAM"),
                    sram_write_bw: report.write_bw_of_kind("SRAM"),
                    reg_read_bw: report.read_bw_of_kind("Register"),
                    reg_write_bw: report.write_bw_of_kind("Register"),
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Fig. 12 — scalability sweep
// ---------------------------------------------------------------------------

/// One point of the Fig. 12 scatter plots.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Array rows (`Ah`; `Aw = 64/Ah`).
    pub ah: usize,
    /// Problem size (`H = W`).
    pub hw: usize,
    /// Filter size (`Fh = Fw`).
    pub f: usize,
    /// Channels.
    pub c: usize,
    /// Filters.
    pub n: usize,
    /// Dataflow.
    pub dataflow: Dataflow,
    /// EQueue simulated cycles.
    pub cycles: u64,
    /// SCALE-Sim cycles (cross-check).
    pub scalesim_cycles: u64,
    /// EQueue SRAM bytes read, summed over the program's memories.
    pub sram_read_bytes: u64,
    /// EQueue SRAM bytes written, summed over the program's memories.
    pub sram_write_bytes: u64,
    /// SCALE-Sim ifmap plus weight bytes read (cross-check).
    pub scalesim_read_bytes: u64,
    /// SCALE-Sim ofmap bytes written (cross-check).
    pub scalesim_write_bytes: u64,
    /// Wall-clock simulation time.
    pub execution_time: Duration,
    /// SRAM peak write bandwidth × portion (Fig. 12b's y-axis).
    pub peak_write_bw_x_portion: f64,
    /// The paper's loop-iteration count `⌈D1/Ah⌉·⌈D2/Aw⌉`.
    pub loop_iterations: usize,
    /// Scheduler wakes of the EQueue simulation (the golden counter pin
    /// sums these across the sweep).
    pub events_processed: u64,
    /// Ops interpreted by the EQueue simulation (summed likewise).
    pub ops_interpreted: u64,
}

/// One sweep coordinate: `(ah, hw, f, c, n, dataflow)`.
pub type Fig12Config = (usize, usize, usize, usize, usize, Dataflow);

/// Enumerates the sweep. `full` gives the paper's complete grid
/// (5×5×3×3×6×3 = 4,050 candidate combinations before validity
/// filtering); otherwise a subsample.
pub fn fig12_configs(full: bool) -> Vec<Fig12Config> {
    type Axes = (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>);
    let (ahs, hws, fs, cs, ns): Axes = if full {
        (
            vec![2, 4, 8, 16, 32],
            vec![2, 4, 8, 16, 32],
            vec![1, 2, 4],
            vec![1, 2, 4],
            vec![1, 2, 4, 8, 16, 32],
        )
    } else {
        (
            vec![2, 8, 32],
            vec![4, 16],
            vec![1, 4],
            vec![1, 4],
            vec![1, 8, 32],
        )
    };
    let mut out = vec![];
    for &ah in &ahs {
        for &hw in &hws {
            for &f in &fs {
                if f > hw {
                    continue; // filter must fit
                }
                for &c in &cs {
                    for &n in &ns {
                        for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
                            out.push((ah, hw, f, c, n, df));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Runs one sweep point under explicit [`SimOptions`] (limits, cancel
/// token), surfacing failures as typed [`SimError`]s instead of panicking.
///
/// # Errors
///
/// Whatever the underlying simulation returns — including
/// [`SimError::Limit`] and [`SimError::Cancelled`].
pub fn try_fig12_point(
    ah: usize,
    hw: usize,
    f: usize,
    c: usize,
    n: usize,
    df: Dataflow,
    options: &SimOptions,
) -> Result<Fig12Row, SimError> {
    let aw = 64 / ah;
    let dims = ConvDims {
        h: hw,
        w: hw,
        fh: f,
        fw: f,
        c,
        n,
    };
    let spec = SystolicSpec {
        rows: ah,
        cols: aw,
        dataflow: df,
    };
    let prog = generate_systolic(&spec, dims);
    let report = simulate_with(&prog.module, standard_library(), options)?;
    let ss = scalesim::scale_sim(
        scalesim::ArrayShape { rows: ah, cols: aw },
        to_conv_shape(dims),
        to_scalesim(df),
    );
    // The ofmap drain connection is the second one created.
    let peak = report
        .connections
        .get(1)
        .map(|cr| cr.write.max_bw * cr.write.max_bw_portion)
        .unwrap_or(0.0);
    Ok(Fig12Row {
        ah,
        hw,
        f,
        c,
        n,
        dataflow: df,
        cycles: report.cycles,
        scalesim_cycles: ss.cycles,
        sram_read_bytes: report.memories.iter().map(|m| m.bytes_read).sum(),
        sram_write_bytes: report.memories.iter().map(|m| m.bytes_written).sum(),
        scalesim_read_bytes: ss.ifmap_read_bytes + ss.weight_read_bytes,
        scalesim_write_bytes: ss.ofmap_write_bytes,
        execution_time: report.execution_time,
        peak_write_bw_x_portion: peak,
        loop_iterations: prog.loop_iterations(),
        events_processed: report.events_processed,
        ops_interpreted: report.ops_interpreted,
    })
}

/// Runs the whole sweep sharded across `jobs` worker threads (`0` = all
/// cores) under `backend`. Every point is an independent simulation; rows
/// come back in configuration order with bit-identical cycles/events/ops
/// at any job count and on either backend.
pub fn fig12_sweep(full: bool, jobs: usize, backend: Backend) -> Vec<Fig12Row> {
    let configs = fig12_configs(full);
    pool::run_batch(jobs, &configs, move |&(ah, hw, f, c, n, df)| {
        let opts = SimOptions {
            trace: false,
            backend,
            ..Default::default()
        };
        match try_fig12_point(ah, hw, f, c, n, df, &opts) {
            Ok(row) => row,
            Err(e) => panic!("simulation failed: {e}"),
        }
    })
}

/// Runs the sweep under per-point [`RunLimits`] and a shared
/// [`CancelToken`]: the token is threaded both into the pool (workers stop
/// claiming points once cancelled) and into every engine run (an in-flight
/// point stops within one scheduler epoch). Returns one well-formed
/// [`PointStatus`] per configuration, in configuration order — completed
/// points keep their rows, cancelled points report
/// [`PointStatus::Cancelled`], and any other failure (limit hit, malformed
/// module, worker panic) becomes [`PointStatus::Failed`] with the typed
/// error's message.
pub fn fig12_sweep_cancellable(
    full: bool,
    jobs: usize,
    limits: RunLimits,
    cancel: &CancelToken,
) -> Vec<PointStatus<Fig12Row>> {
    let configs = fig12_configs(full);
    pool::run_batch_status(jobs, &configs, Some(cancel), |&(ah, hw, f, c, n, df)| {
        let opts = SimOptions {
            trace: false,
            limits,
            cancel: Some(cancel.clone()),
            ..Default::default()
        };
        match try_fig12_point(ah, hw, f, c, n, df, &opts) {
            Ok(row) => PointStatus::Done(row),
            Err(SimError::Cancelled(_)) => PointStatus::Cancelled,
            Err(e) => PointStatus::Failed(e.to_string()),
        }
    })
}

// ---------------------------------------------------------------------------
// §VII — FIR cases
// ---------------------------------------------------------------------------

/// One FIR case measurement.
#[derive(Debug, Clone)]
pub struct FirRow {
    /// Which case.
    pub case: FirCase,
    /// EQueue simulated cycles.
    pub cycles: u64,
    /// The paper's EQueue result for the case.
    pub paper_cycles: u64,
    /// The Xilinx AIE simulator reference, where published.
    pub xilinx_cycles: Option<u64>,
    /// Wall-clock simulation time (paper: 0.07 s for case 4 vs the AIE
    /// simulator's 8 minutes).
    pub execution_time: Duration,
    /// Chrome trace JSON (Figs. 13/14 artifacts).
    pub trace_json: String,
}

/// Runs all four FIR cases, one worker per case up to `jobs` threads
/// (`0` = all cores). Traces are recorded per case; rows come back in case
/// order.
pub fn fir_rows(jobs: usize) -> Vec<FirRow> {
    use equeue_gen::fir_reference as r;
    pool::run_batch(jobs, &FirCase::all(), |&case| {
        let prog = generate_fir(FirSpec::default(), case);
        let traced = SimOptions {
            trace: true,
            ..Default::default()
        };
        let report = match simulate_with(&prog.module, &SimLibrary::standard(), &traced) {
            Ok(r) => r,
            Err(e) => panic!("simulation failed: {e}"),
        };
        let (paper, xilinx) = match case {
            FirCase::SingleCore => (r::PAPER_CASE1, Some(r::XILINX_CASE1)),
            FirCase::Pipelined16 => (r::PAPER_CASE2, None),
            FirCase::Bandwidth16 => (r::PAPER_CASE3, None),
            FirCase::Balanced4 => (r::PAPER_CASE4, Some(r::XILINX_CASE4)),
        };
        FirRow {
            case,
            cycles: report.cycles,
            paper_cycles: paper,
            xilinx_cycles: xilinx,
            execution_time: report.execution_time,
            trace_json: report.trace.to_chrome_json(),
        }
    })
}

// ---------------------------------------------------------------------------
// Engine scenarios (pinned in `tests/golden_cycles.rs`)
// ---------------------------------------------------------------------------

/// Module builders for the engine scenarios.
///
/// Moved to `equeue_gen::scenarios` so the static-analysis crate can reach
/// them without depending on the bench harness; re-exported here to keep
/// `equeue_bench::scenarios::` paths working.
pub use equeue_gen::scenarios;

#[cfg(test)]
mod tests {
    use super::*;

    /// `(cycles, SRAM bytes read, SRAM bytes written)` from EQueue and
    /// from SCALE-Sim.
    type Totals = (u64, u64, u64);
    fn totals(r: &Fig12Row) -> (Totals, Totals) {
        (
            (r.cycles, r.sram_read_bytes, r.sram_write_bytes),
            (
                r.scalesim_cycles,
                r.scalesim_read_bytes,
                r.scalesim_write_bytes,
            ),
        )
    }

    #[test]
    fn fig09_equeue_tracks_scalesim() {
        for row in fig09_ifmap_sweep().into_iter().chain(fig09_weight_sweep()) {
            assert_eq!(row.equeue_cycles, row.scalesim_cycles, "{}", row.label);
        }
    }

    #[test]
    fn fig12_small_sweep_consistent() {
        let rows = fig12_sweep(false, 0, Backend::default());
        assert!(rows.len() > 100, "sweep too small: {}", rows.len());
        for r in &rows {
            // Cycles and SRAM traffic both equal the analytical model's.
            let (equeue, scalesim) = totals(r);
            assert_eq!(
                equeue, scalesim,
                "ah={} hw={} f={} c={} n={} {:?}",
                r.ah, r.hw, r.f, r.c, r.n, r.dataflow
            );
            // Cycles are proportional to loop iterations (Fig. 12c–e).
            assert!(r.cycles as usize >= r.loop_iterations);
        }
    }

    /// The full 3780-point grid agrees exactly with `scalesim` on cycles
    /// and SRAM traffic. Ignored by default (about half a minute in release
    /// on two cores); CI's release job runs it by name.
    #[test]
    #[ignore]
    fn fig12_full_sweep_matches_scalesim() {
        let rows = fig12_sweep(true, 0, Backend::default());
        assert_eq!(rows.len(), 3780);
        let mismatches: Vec<String> = rows
            .iter()
            .map(|r| (r, totals(r)))
            .filter(|(_, (equeue, scalesim))| equeue != scalesim)
            .map(|(r, (equeue, scalesim))| {
                format!(
                    "ah={} hw={} f={} c={} n={} {:?}: (cycles, read, written) {:?} != {:?}",
                    r.ah, r.hw, r.f, r.c, r.n, r.dataflow, equeue, scalesim
                )
            })
            .collect();
        assert!(
            mismatches.is_empty(),
            "{} mismatches:\n{}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }

    /// EQueue and `scalesim` cycles for one point on a 4×4 array.
    fn systolic_vs_scalesim(df: Dataflow, dims: ConvDims) -> (u64, u64) {
        let spec = SystolicSpec {
            rows: 4,
            cols: 4,
            dataflow: df,
        };
        let equeue = run_quiet(&generate_systolic(&spec, dims).module).cycles;
        let ss = scalesim::scale_sim(
            scalesim::ArrayShape { rows: 4, cols: 4 },
            to_conv_shape(dims),
            to_scalesim(df),
        );
        (equeue, ss.cycles)
    }

    #[test]
    fn systolic_matches_scalesim_ws() {
        for hw in [4usize, 8, 16] {
            let (equeue, ss) = systolic_vs_scalesim(Dataflow::Ws, ConvDims::square(hw, 2, 3, 2));
            assert_eq!(equeue, ss, "hw={hw}");
        }
    }

    #[test]
    fn systolic_matches_scalesim_is() {
        let (equeue, ss) = systolic_vs_scalesim(Dataflow::Is, ConvDims::square(8, 2, 3, 4));
        assert_eq!(equeue, ss);
    }

    #[test]
    fn systolic_matches_scalesim_os() {
        let (equeue, ss) = systolic_vs_scalesim(Dataflow::Os, ConvDims::square(8, 2, 3, 4));
        assert_eq!(equeue, ss);
    }

    #[test]
    fn sweep_points_identical_at_any_job_count() {
        // A slice of the sweep, sequential vs pooled: same rows, same order,
        // same determinism counters.
        let configs: Vec<Fig12Config> = fig12_configs(false).into_iter().take(12).collect();
        let opts = SimOptions {
            trace: false,
            ..Default::default()
        };
        let point = |&(ah, hw, f, c, n, df): &Fig12Config| {
            try_fig12_point(ah, hw, f, c, n, df, &opts).unwrap()
        };
        let seq: Vec<Fig12Row> = configs.iter().map(point).collect();
        let par = pool::run_batch(4, &configs, point);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(
                (s.ah, s.hw, s.f, s.c, s.n, s.dataflow),
                (p.ah, p.hw, p.f, p.c, p.n, p.dataflow)
            );
            assert_eq!(s.cycles, p.cycles);
            assert_eq!(s.events_processed, p.events_processed);
            assert_eq!(s.ops_interpreted, p.ops_interpreted);
        }
    }

    #[test]
    fn cancelled_sweep_returns_per_point_statuses() {
        // Pre-cancelled: the pool never claims a point; every status is
        // well-formed Cancelled and nothing simulates.
        let token = CancelToken::new();
        token.cancel();
        let st = fig12_sweep_cancellable(false, 2, RunLimits::default(), &token);
        assert_eq!(st.len(), fig12_configs(false).len());
        assert!(st.iter().all(|s| matches!(s, PointStatus::Cancelled)));
    }

    #[test]
    fn starved_sweep_fails_per_point_without_panicking() {
        // An absurd event budget: every point stops with a typed limit
        // error, surfaced per point — the batch itself never dies.
        let token = CancelToken::new();
        let limits = RunLimits {
            max_events: 1,
            ..Default::default()
        };
        let st = fig12_sweep_cancellable(false, 2, limits, &token);
        assert_eq!(st.len(), fig12_configs(false).len());
        assert!(st
            .iter()
            .all(|s| matches!(s, PointStatus::Failed(m) if m.contains("event limit"))));
    }

    #[test]
    fn fir_rows_match_paper() {
        let rows = fir_rows(0);
        assert_eq!(rows[0].cycles, rows[0].paper_cycles);
        assert_eq!(rows[1].cycles, rows[1].paper_cycles);
        assert_eq!(rows[2].cycles, rows[2].paper_cycles);
        let last = &rows[3];
        let err = (last.cycles as f64 - last.paper_cycles as f64).abs() / last.paper_cycles as f64;
        assert!(err < 0.01);
    }
}
