//! Regenerates the §VII AI Engine FIR case study: the four design
//! iterations with their cycle counts compared against the paper's EQueue
//! results and the published Xilinx AIE simulator numbers, plus the Chrome
//! trace JSON files behind Figs. 13 and 14.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use equeue_bench::fir_rows;
use std::fs;

fn main() {
    println!("§VII — ACAP AI Engine FIR case study (32 taps, 512 samples)");
    println!(
        "{:>28} | {:>9} {:>9} {:>9} | {:>10}",
        "case", "EQueue", "paper-EQ", "Xilinx", "exec time"
    );
    println!("{}", "-".repeat(76));
    let rows = fir_rows(0);
    for r in &rows {
        println!(
            "{:>28} | {:>9} {:>9} {:>9} | {:>8.1?}",
            r.case.as_str(),
            r.cycles,
            r.paper_cycles,
            r.xilinx_cycles
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            r.execution_time,
        );
    }

    // Emit the visualisable traces (open in chrome://tracing or Perfetto).
    let out_dir = std::path::Path::new("target/traces");
    if let Err(e) = fs::create_dir_all(out_dir) {
        panic!("create target/traces: {e}");
    }
    for r in &rows {
        let path = out_dir.join(format!("fir_{}.json", r.case.as_str()));
        if let Err(e) = fs::write(&path, &r.trace_json) {
            panic!("write {}: {e}", path.display());
        }
        println!("trace written: {}", path.display());
    }
    println!(
        "\nFig. 13's stall pattern (3 of 4 cycles idle) is visible in \
         fir_case3-16-cores-32bit.json;\nFig. 14's stall-free steady state in \
         fir_case4-4-cores-balanced.json."
    );
}
