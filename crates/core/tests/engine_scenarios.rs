//! Scenario tests for the simulation engine: each exercises one modelled
//! hardware behaviour end to end through a small EQueue program.

use equeue_core::{
    simulate, simulate_with, ProcProfile, RunLimits, SimError, SimLibrary, SimOptions,
    MAX_CYCLE_COST,
};
use equeue_dialect::{kinds, ArithBuilder, ConnKind, EqueueBuilder};
use equeue_ir::{Module, OpBuilder, Type, ValueId};

fn one_pe_reading(
    mem_kind: &str,
    mem_attrs: &[(&str, i64)],
    elems: usize,
    banks: u32,
    conn: Option<(ConnKind, u32)>,
) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let mut spec = b
        .op("equeue.create_mem")
        .attr("kind", mem_kind)
        .attr("shape", vec![elems as i64])
        .attr("data_bits", 32i64)
        .attr("banks", banks as i64);
    for (k, v) in mem_attrs {
        spec = spec.attr(k, *v);
    }
    let mem = spec.result(Type::Mem).finish_value();
    let buf = b.alloc(mem, &[elems], Type::I32);
    let connection = conn.map(|(kind, bw)| b.create_connection(kind, bw));
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        ib.read(l.body_args[0], connection);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

#[test]
fn dram_latency_dominates_small_reads() {
    // DRAM: 10-cycle activation + 2 cycles per beat (defaults).
    let m = one_pe_reading(kinds::DRAM, &[], 4, 4, None);
    let report = simulate(&m).unwrap();
    assert_eq!(report.cycles, 10 + 2);
}

#[test]
fn dram_latency_configurable_via_attrs() {
    let m = one_pe_reading(
        kinds::DRAM,
        &[("latency", 50), ("cycles_per_access", 1)],
        4,
        4,
        None,
    );
    let report = simulate(&m).unwrap();
    assert_eq!(report.cycles, 50 + 1);
}

#[test]
fn cache_cold_miss_then_hit() {
    // Two reads of the same buffer: first access misses per line, second
    // hits. Geometry: one 4-elem line covers the whole buffer.
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let mem = b
        .op("equeue.create_mem")
        .attr("kind", kinds::CACHE)
        .attr("shape", vec![4i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr("line_elems", 4i64)
        .attr("hit_cycles", 1i64)
        .attr("miss_cycles", 10i64)
        .result(Type::Mem)
        .finish_value();
    let buf = b.alloc(mem, &[4], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        ib.read(l.body_args[0], None); // miss: 10
        ib.read(l.body_args[0], None); // hit: 1
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    let report = simulate(&m).unwrap();
    assert_eq!(report.cycles, 11);
}

#[test]
fn window_connection_serialises_read_and_write() {
    // A Window connection locks for exclusive access (§III-A); a Streaming
    // one overlaps directions. Program: one PE reads while another writes
    // through the same connection.
    fn build(kind: ConnKind) -> Module {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe0 = b.create_proc(kinds::MAC);
        let pe1 = b.create_proc(kinds::MAC);
        let mem = b.create_mem(kinds::REGISTER, &[32], 32, 1);
        let src = b.alloc(mem, &[8], Type::I32); // 32 bytes
        let dst = b.alloc(mem, &[8], Type::I32);
        let conn = b.create_connection(kind, 4); // 8 cycles per transfer
        let start = b.control_start();
        let l0 = b.launch(start, pe0, &[src, conn], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l0.body);
            ib.read(l0.body_args[0], Some(l0.body_args[1]));
            ib.ret(vec![]);
        }
        let mut b = OpBuilder::at_end(&mut m, blk);
        let l1 = b.launch(start, pe1, &[dst, conn], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l1.body);
            let zero = ib.const_int(0, Type::I32);
            ib.write(zero, l1.body_args[0], Some(l1.body_args[1]));
            ib.ret(vec![]);
        }
        let all = {
            let mut b = OpBuilder::at_end(&mut m, blk);
            let s = b.control_and(vec![l0.done, l1.done]);
            b.await_all(vec![s]);
            s
        };
        let _ = all;
        m
    }
    let streaming = simulate(&build(ConnKind::Streaming)).unwrap().cycles;
    let window = simulate(&build(ConnKind::Window)).unwrap().cycles;
    assert_eq!(streaming, 8); // directions overlap
    assert_eq!(window, 16); // exclusive lock serialises
}

#[test]
fn nested_launches_three_deep() {
    // Fig. 6's control hierarchy: ARMr5 launches a kernel which launches a
    // MAC; signals propagate back up through return values.
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let arm = b.create_proc(kinds::ARM_R5);
    let kernel = b.create_proc(kinds::GENERIC);
    let mac = b.create_proc(kinds::MAC);
    let start = b.control_start();
    let outer = b.launch(start, arm, &[], vec![]);
    {
        let mut ob = OpBuilder::at_end(b.module_mut(), outer.body);
        let s1 = ob.control_start();
        let mid = ob.launch(s1, kernel, &[], vec![]);
        {
            let mut mb = OpBuilder::at_end(ob.module_mut(), mid.body);
            let s2 = mb.control_start();
            let inner = mb.launch(s2, mac, &[], vec![]);
            {
                let mut ib = OpBuilder::at_end(mb.module_mut(), inner.body);
                ib.ext_op("mac", vec![], vec![]);
                ib.ext_op("mac", vec![], vec![]);
                ib.ret(vec![]);
            }
            let mut mb = OpBuilder::at_end(&mut m, mid.body);
            mb.await_all(vec![inner.done]);
            mb.ret(vec![]);
        }
        let mut ob = OpBuilder::at_end(&mut m, outer.body);
        ob.await_all(vec![mid.done]);
        ob.ret(vec![]);
    }
    let outer_done = outer.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![outer_done]);
    let report = simulate(&m).unwrap();
    assert_eq!(report.cycles, 2); // the two macs; all control is free
}

#[test]
fn memcpy_through_bandwidth_limited_connection() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let mem = b.create_mem(kinds::REGISTER, &[64], 32, 1);
    let src = b.alloc(mem, &[16], Type::I32); // 64 bytes
    let dst = b.alloc(mem, &[16], Type::I32);
    let dma = b.create_dma();
    let conn = b.create_connection(ConnKind::Streaming, 8); // 8 cycles
    let start = b.control_start();
    let done = b.memcpy(start, src, dst, dma, Some(conn));
    b.await_all(vec![done]);
    let report = simulate(&m).unwrap();
    assert_eq!(report.cycles, 8);
}

#[test]
fn launch_can_target_dma() {
    // After --memcpy-to-launch, launches run on DMA components.
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let dma = b.create_dma();
    let start = b.control_start();
    let l = b.launch(start, dma, &[], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        ib.ext_op("mac", vec![], vec![]);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    assert_eq!(simulate(&m).unwrap().cycles, 1);
}

#[test]
fn energy_orders_register_sram_dram() {
    let run = |kind: &str| {
        let m = one_pe_reading(kind, &[], 8, 1, None);
        simulate(&m).unwrap().total_memory_energy_pj()
    };
    let reg = run(kinds::REGISTER);
    let sram = run(kinds::SRAM);
    let dram = run(kinds::DRAM);
    assert!(reg < sram, "register {reg} !< sram {sram}");
    assert!(sram < dram, "sram {sram} !< dram {dram}");
    assert!(reg > 0.0);
}

#[test]
fn energy_attr_overrides_kind_default() {
    let m = one_pe_reading(kinds::SRAM, &[], 8, 1, None);
    let base = simulate(&m).unwrap().total_memory_energy_pj();
    let m2 = one_pe_reading(kinds::SRAM, &[("energy_pj", 7)], 8, 1, None);
    let custom = simulate(&m2).unwrap().total_memory_energy_pj();
    assert!((base - 1.0).abs() < 1e-9); // one access × 1 pJ
    assert!((custom - 7.0).abs() < 1e-9);
}

#[test]
fn await_can_wait_on_multiple_unordered_signals() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let start = b.control_start();
    let mut dones: Vec<ValueId> = vec![];
    for len in [5i64, 2, 9] {
        let pe = b.create_proc(kinds::MAC);
        let l = b.launch(start, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.op("equeue.op")
                .attr("signature", "w")
                .attr("cycles", len)
                .finish();
            ib.ret(vec![]);
        }
        dones.push(l.done);
        b = OpBuilder::at_end(&mut m, blk);
    }
    // Await them all directly (no control_and).
    b.await_all(dones);
    assert_eq!(simulate(&m).unwrap().cycles, 9);
}

#[test]
fn allocation_overflow_is_a_port_error() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let mem = b.create_mem(kinds::SRAM, &[4], 32, 1);
    b.alloc(mem, &[3], Type::I32);
    b.alloc(mem, &[3], Type::I32); // 6 > 4
    let err = simulate(&m).unwrap_err();
    assert!(matches!(err, SimError::Port(_)), "{err}");
    assert!(err.to_string().contains("overflow"));
}

#[test]
fn wake_limit_guards_runaway_programs() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let start = b.control_start();
    let mut dep = start;
    for _ in 0..100 {
        let l = b.launch(dep, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.ext_op("mac", vec![], vec![]);
            ib.ret(vec![]);
        }
        dep = l.done;
        b = OpBuilder::at_end(&mut m, blk);
    }
    b.await_all(vec![dep]);
    let lib = SimLibrary::standard();
    let err = simulate_with(
        &m,
        &lib,
        &SimOptions {
            trace: false,
            limits: RunLimits {
                max_events: 10,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, SimError::Limit(_)), "{err}");
}

#[test]
fn dealloc_releases_capacity_mid_program() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let mem = b.create_mem(kinds::SRAM, &[4], 32, 1);
    let first = b.alloc(mem, &[3], Type::I32);
    b.dealloc(first);
    b.alloc(mem, &[3], Type::I32); // fits after dealloc
    assert!(simulate(&m).is_ok());
}

/// A `proc_kind` processor reads a one-element buffer in a `ScratchPad`
/// memory, then adds two constants.
fn read_then_add(proc_kind: &str, mem_attrs: &[(&str, i64)]) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(proc_kind);
    let mut spec = b
        .op("equeue.create_mem")
        .attr("kind", "ScratchPad")
        .attr("shape", vec![8i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64);
    for (k, v) in mem_attrs {
        spec = spec.attr(k, *v);
    }
    let mem = spec.result(Type::Mem).finish_value();
    let buf = b.alloc(mem, &[1], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        ib.read(l.body_args[0], None);
        let c = ib.const_int(3, Type::I32);
        ib.addi(c, c);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

#[test]
fn registered_proc_profile_and_energy_reach_the_report() {
    let mut lib = SimLibrary::standard();
    let mut profile = ProcProfile::uniform(0);
    profile.per_op.insert("arith.addi".into(), 7);
    lib.register_proc_profile("Accel", profile).unwrap();
    lib.register_energy("ScratchPad", 3.5);
    let run = |m: &Module| simulate_with(m, &lib, &SimOptions::default()).unwrap();
    let energy = |r: &equeue_core::SimReport| {
        let mem = r.memories.iter().find(|m| m.kind == "ScratchPad");
        mem.expect("the ScratchPad memory is reported").energy_pj
    };

    // One SRAM-timed read (an unknown memory kind times as SRAM: one
    // cycle), then the registered kind's 7-cycle add; constants are free.
    let report = run(&read_then_add("Accel", &[]));
    assert_eq!(report.cycles, 1 + 7);
    assert!((energy(&report) - 3.5).abs() < 1e-9); // one access × 3.5 pJ
                                                   // An unregistered kind gets the default profile: a 1-cycle add.
    assert_eq!(run(&read_then_add("Other", &[])).cycles, 1 + 1);
    // The `create_mem` attribute still overrides the registered energy.
    let custom = run(&read_then_add("Accel", &[("energy_pj", 9)]));
    assert!((energy(&custom) - 9.0).abs() < 1e-9);
}

/// A processor profile whose op costs would overflow the clock is
/// rejected when registered, and registers nothing; a cost at the bound
/// is charged in full.
#[test]
fn registered_proc_costs_are_bounded() {
    let mut lib = SimLibrary::standard();
    let err = lib
        .register_proc_profile("Accel", ProcProfile::uniform(u64::MAX))
        .unwrap_err();
    assert!(
        matches!(&err, SimError::Unsupported(msg) if msg.contains("'Accel'")),
        "{err}"
    );
    let mut profile = ProcProfile::uniform(1);
    profile
        .per_op
        .insert("arith.addi".into(), MAX_CYCLE_COST + 1);
    assert!(lib.register_proc_profile("Accel", profile).is_err());
    let cycles = |lib: &SimLibrary| {
        let report = simulate_with(&read_then_add("Accel", &[]), lib, &SimOptions::default());
        report.unwrap().cycles
    };
    // Still unregistered: a one-cycle read and a one-cycle add.
    assert_eq!(cycles(&lib), 1 + 1);
    lib.register_proc_profile("Accel", ProcProfile::uniform(MAX_CYCLE_COST))
        .unwrap();
    assert_eq!(cycles(&lib), 1 + MAX_CYCLE_COST);
}
