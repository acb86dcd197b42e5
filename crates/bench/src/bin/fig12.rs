//! Regenerates Fig. 12: the scalability sweep. Prints one row per
//! configuration (execution time vs cycles, peak write bandwidth ×
//! portion, and loop iterations) plus the per-dataflow summaries the paper
//! reads off the scatter plots.
//!
//! Run with `--full` for the complete 4,050-candidate grid (Ah ∈
//! {2,4,8,16,32} × H/W ∈ {2,4,8,16,32} × F ∈ {1,2,4} × C ∈ {1,2,4} × N ∈
//! {1,2,4,8,16,32} × 3 dataflows, minus invalid filter sizes); the default
//! is a representative subsample. `--jobs N` shards the independent
//! simulations across N worker threads (default: all cores; results and
//! row order are bit-identical at any width).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use equeue_bench::{fig12_configs, fig12_sweep_jobs, pool, Fig12Row};
use equeue_passes::Dataflow;

fn main() {
    let mut full = false;
    let mut jobs = 0; // 0 = available parallelism
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--jobs" => jobs = pool::parse_jobs_arg("fig12", argv.next()),
            other => {
                eprintln!("fig12: unknown argument '{other}' (expected --full / --jobs N)");
                std::process::exit(2);
            }
        }
    }
    let configs = fig12_configs(full);
    println!(
        "Fig. 12 — scalability sweep over {} configurations ({}; {} worker threads)",
        configs.len(),
        if full {
            "full grid"
        } else {
            "subsample; pass --full for the paper's grid"
        },
        pool::resolve_jobs(jobs),
    );
    println!(
        "{:>3}x{:<3} {:>4} {:>2} {:>2} {:>3} {:>3} | {:>10} {:>10} {:>7} | {:>11} | {:>9} | {:>6}",
        "Ah",
        "Aw",
        "H/W",
        "F",
        "C",
        "N",
        "df",
        "EQ cycles",
        "SS cycles",
        "err",
        "exec time",
        "pkBWxP",
        "iters"
    );
    println!("{}", "-".repeat(108));

    // Simulate the whole grid on the pool, then print in sweep order.
    let rows: Vec<Fig12Row> = fig12_sweep_jobs(full, jobs);
    for r in &rows {
        println!(
            "{:>3}x{:<3} {:>4} {:>2} {:>2} {:>3} {:>3} | {:>10} {:>10} {:>6.2}% | {:>9.1?} | {:>9.3} | {:>6}",
            r.ah,
            64 / r.ah,
            r.hw,
            r.f,
            r.c,
            r.n,
            r.dataflow.as_str(),
            r.cycles,
            r.scalesim_cycles,
            100.0 * (r.cycles as f64 - r.scalesim_cycles as f64).abs()
                / r.scalesim_cycles.max(1) as f64,
            r.execution_time,
            r.peak_write_bw_x_portion,
            r.loop_iterations,
        );
    }

    println!("\nper-dataflow summary (paper's Fig. 12 observations):");
    for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
        let sel: Vec<&Fig12Row> = rows.iter().filter(|r| r.dataflow == df).collect();
        let min_cycles = sel.iter().map(|r| r.cycles).min().unwrap_or(0);
        let mean_peak: f64 =
            sel.iter().map(|r| r.peak_write_bw_x_portion).sum::<f64>() / sel.len().max(1) as f64;
        // Fig. 12c–e: cycles per loop iteration should be roughly constant
        // for a fixed stream length; report the correlation via the ratio
        // spread instead of a full regression.
        let ratios: Vec<f64> = sel
            .iter()
            .map(|r| r.cycles as f64 / r.loop_iterations.max(1) as f64)
            .collect();
        let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
        println!(
            "  {}: {:>4} points, min cycles {:>7}, mean peak-write-BWxportion {:>7.3}, \
             mean cycles/iteration {:>8.1}",
            df.as_str(),
            sel.len(),
            min_cycles,
            mean_peak,
            mean_ratio,
        );
    }
    let total_time: std::time::Duration = rows.iter().map(|r| r.execution_time).sum();
    println!("\ntotal simulation wall-clock: {total_time:.1?}");
}
