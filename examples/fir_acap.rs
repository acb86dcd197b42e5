//! The §VII ACAP AI Engine FIR case study as a runnable walk-through:
//! start simple, find the bottleneck in the trace, and iterate — the
//! paper's recommended co-design loop.
//!
//! Run with: `cargo run --release --example fir_acap`

use equeue::gen::{fir_reference, generate_fir, FirCase, FirSpec};
use equeue::prelude::*;
use std::fs::File;
use std::io::{BufWriter, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = FirSpec::default(); // 32 taps, 512 samples
    std::fs::create_dir_all("target/traces")?;

    println!(
        "AI Engine FIR, {} taps over {} samples\n",
        spec.taps, spec.samples
    );

    for case in FirCase::all() {
        let prog = generate_fir(spec, case);
        // Tracing is off by default; this walk-through reads the trace.
        let traced = SimOptions {
            trace: true,
            ..Default::default()
        };
        let report = simulate_with(&prog.module, &SimLibrary::standard(), &traced)?;
        println!("{}:", case.as_str());
        println!("  cycles        : {}", report.cycles);
        match case {
            FirCase::SingleCore => println!(
                "  references    : paper-EQueue {}, Xilinx AIE simulator {} \
                 (EQueue omits loop-control overhead)",
                fir_reference::PAPER_CASE1,
                fir_reference::XILINX_CASE1
            ),
            FirCase::Pipelined16 => println!(
                "  references    : paper-EQueue {} (15 warm-up + 128 groups)",
                fir_reference::PAPER_CASE2
            ),
            FirCase::Bandwidth16 => {
                println!(
                    "  references    : paper-EQueue {} (79-cycle warm-up, stalls 3 of 4)",
                    fir_reference::PAPER_CASE3
                );
                // Quantify the §VII-E observation from the trace: compute
                // utilisation of a middle core.
                let busy: u64 = report
                    .trace
                    .events()
                    .filter(|e| e.tid() == "AIE7")
                    .map(|e| e.dur())
                    .sum();
                println!(
                    "  AIE7 busy     : {busy} of {} cycles ({:.0}% wasted — the paper's 75%)",
                    report.cycles,
                    100.0 * (1.0 - busy as f64 / report.cycles as f64)
                );
            }
            FirCase::Balanced4 => println!(
                "  references    : paper-EQueue {}, Xilinx AIE simulator {}",
                fir_reference::PAPER_CASE4,
                fir_reference::XILINX_CASE4
            ),
        }
        println!("  wall-clock    : {:.2?}", report.execution_time);
        let path = format!("target/traces/example_{}.json", case.as_str());
        let mut file = BufWriter::new(File::create(&path)?);
        report.trace.write_chrome_json(&mut file)?;
        file.flush()?;
        println!("  trace         : {path}\n");
    }

    println!(
        "The paper's punchline: going from case 3 to case 4 (16 cores -> 4) \
         keeps throughput but saves 75% of the area — found by reading the \
         stall pattern in the trace, after three small, local edits to the \
         EQueue program."
    );
    Ok(())
}
