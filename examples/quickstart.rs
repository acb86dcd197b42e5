//! Quickstart: the paper's Fig. 2 toy accelerator, built with the EQueue
//! builder API, simulated, and traced.
//!
//! An ARM kernel distributes work to a DMA engine and two MAC processing
//! elements: the DMA copies an input buffer from SRAM into PE0's register
//! file, then both PEs start simultaneously.
//!
//! Run with: `cargo run --example quickstart`

use equeue::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- structure specification (Fig. 2a, part 1) ----------------------
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let kernel = b.create_proc(kinds::ARM_R6);
    let sram = b.create_mem(kinds::SRAM, &[64], 32, 4);
    let dma = b.create_dma();
    let accel = b.create_comp(&["Kernel", "SRAM", "DMA"], vec![kernel, sram, dma]);
    let pe0 = b.create_proc(kinds::MAC);
    let reg0 = b.create_mem(kinds::REGISTER, &[4], 32, 1);
    let pe1 = b.create_proc(kinds::MAC);
    let reg1 = b.create_mem(kinds::REGISTER, &[4], 32, 1);
    b.add_comp(
        accel,
        &["PE0", "Reg0", "PE1", "Reg1"],
        vec![pe0, reg0, pe1, reg1],
    );

    let input = b.alloc(sram, &[4], Type::I32);
    let buf0 = b.alloc(reg0, &[4], Type::I32);
    let buf1 = b.alloc(reg1, &[4], Type::I32);

    // ---- control flow (Fig. 2a, part 2) ----------------------------------
    let start = b.control_start();
    let outer = b.launch(start, kernel, &[], vec![]);
    {
        let mut ob = OpBuilder::at_end(b.module_mut(), outer.body);
        let copy_dep = ob.control_start();
        let launch_dep = ob.memcpy(copy_dep, input, buf0, dma, None);
        let l0 = ob.launch(launch_dep, pe0, &[buf0], vec![]);
        {
            let mut ib = OpBuilder::at_end(ob.module_mut(), l0.body);
            let ifmap = ib.read(l0.body_args[0], None);
            let four = ib.const_int(4, Type::I32);
            let _ofmap = ib.addi(ifmap, four); // ofmap = addi(ifmap, 4)
            ib.ret(vec![]);
        }
        let mut ob = OpBuilder::at_end(&mut m, outer.body);
        let l1 = ob.launch(launch_dep, pe1, &[buf1], vec![]);
        {
            let mut ib = OpBuilder::at_end(ob.module_mut(), l1.body);
            ib.ext_op("mac", vec![], vec![]);
            ib.ret(vec![]);
        }
        let mut ob = OpBuilder::at_end(&mut m, outer.body);
        ob.await_all(vec![l0.done, l1.done]);
        ob.ret(vec![]);
    }
    let outer_done = outer.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![outer_done]);

    // ---- verify, print, simulate ----------------------------------------
    verify_module(&m, &standard_registry())?;
    println!("=== EQueue program ===\n{}", print_module(&m));

    // Tracing is off by default; this walk-through reads the trace.
    let traced = SimOptions {
        trace: true,
        ..Default::default()
    };
    let report = simulate_with(&m, &SimLibrary::standard(), &traced)?;
    println!("=== profiling summary (§IV-B) ===\n{}", report.summary());

    let json = report.trace.to_chrome_json();
    std::fs::create_dir_all("target/traces")?;
    std::fs::write("target/traces/quickstart.json", &json)?;
    println!("trace written to target/traces/quickstart.json (open in chrome://tracing)");

    assert_eq!(
        report.cycles, 2,
        "copy (1 cycle) then both PEs in parallel (1 cycle)"
    );
    Ok(())
}
