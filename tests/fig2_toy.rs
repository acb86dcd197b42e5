//! End-to-end test of the paper's Fig. 2 toy accelerator: build with the
//! EQueue builder API, verify, print, reparse, and simulate — the printed
//! and reparsed program must behave identically.

use equeue::prelude::*;
use equeue_ir::ValueId;

fn build() -> Module {
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
            let _ = ib.addi(ifmap, four);
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
    m
}

/// Simulates `m` with tracing on, for the tests that read the trace.
fn traced(m: &Module) -> SimReport {
    let opts = SimOptions {
        trace: true,
        ..Default::default()
    };
    simulate_with(m, &SimLibrary::standard(), &opts).unwrap()
}

#[test]
fn verifies_and_takes_two_cycles() {
    let m = build();
    verify_module(&m, &standard_registry()).unwrap();
    let report = simulate(&m).unwrap();
    assert_eq!(report.cycles, 2);
    // Structure: the accelerator has seven named children.
    assert!(report.memory_named("SRAM").is_some());
    assert_eq!(report.memory_named("SRAM").unwrap().bytes_read, 16);
    assert_eq!(report.memory_named("Reg0").unwrap().bytes_written, 16);
}

#[test]
fn print_parse_simulate_is_equivalent() {
    let m = build();
    let text = print_module(&m);
    let reparsed = parse_module(&text).unwrap();
    verify_module(&reparsed, &standard_registry()).unwrap();
    let a = traced(&m);
    let b = traced(&reparsed);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.trace.len(), b.trace.len());
    // And the text itself is a fixed point.
    assert_eq!(print_module(&reparsed), text);
}

#[test]
fn both_pes_run_in_parallel() {
    let m = build();
    let report = traced(&m);
    let start_of = |tid: &str| {
        report
            .trace
            .events()
            .filter(|e| e.tid() == tid)
            .map(|e| e.ts())
            .min()
    };
    // Both PEs start at the same cycle, right after the DMA copy (§II-B:
    // "PE0 and PE1 start simultaneously").
    let pe0 = start_of("PE0").expect("PE0 traced");
    let pe1 = start_of("PE1").expect("PE1 traced");
    assert_eq!(pe0, pe1);
    assert_eq!(pe0, 1);
}

#[test]
fn get_comp_resolves_hierarchy() {
    // Extend the program with get_comp lookups (Fig. 3's `get_comp(accel,
    // "DMA")`) and check they simulate.
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let kernel = b.create_proc(kinds::ARM_R5);
    let dma = b.create_dma();
    let accel = b.create_comp(&["Kernel", "DMA"], vec![kernel, dma]);
    let looked: ValueId = b.get_comp(accel, "Kernel", Type::Proc);
    let start = b.control_start();
    let l = b.launch(start, looked, &[], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        ib.ext_op("mac", vec![], vec![]);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    let report = simulate(&m).unwrap();
    assert_eq!(report.cycles, 1);
}

#[test]
fn missing_component_is_runtime_error() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let kernel = b.create_proc(kinds::ARM_R5);
    let accel = b.create_comp(&["Kernel"], vec![kernel]);
    let ghost = b.get_comp(accel, "Ghost", Type::Proc);
    let start = b.control_start();
    let l = b.launch(start, ghost, &[], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    let err = simulate(&m).unwrap_err();
    assert!(err.to_string().contains("Ghost"), "{err}");
}
