//! Error-path coverage: malformed EQueue ops must be rejected by the
//! structured views and verifiers with actionable messages, not panics.

use equeue_dialect::{
    create_mem_view, kinds, launch_view, memcpy_view, read_view, standard_registry, write_view,
    EqueueBuilder, MAX_MEM_PORTS,
};
use equeue_ir::{verify_module, AttrMap, Module, OpBuilder, Type};

fn module_with_buffer() -> (Module, equeue_ir::ValueId) {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let mem = b.create_mem(kinds::SRAM, &[64], 32, 4);
    let buf = b.alloc(mem, &[8], Type::I32);
    (m, buf)
}

#[test]
fn read_without_segments_rejected() {
    let (mut m, buf) = module_with_buffer();
    let op = m.create_op(
        "equeue.read",
        vec![buf],
        vec![Type::I32],
        AttrMap::new(),
        vec![],
    );
    m.append_op(m.top_block(), op);
    let err = read_view(&m, op).unwrap_err();
    assert!(err.contains("segments"), "{err}");
    assert!(verify_module(&m, &standard_registry()).is_err());
}

#[test]
fn read_with_inconsistent_segments_rejected() {
    let (mut m, buf) = module_with_buffer();
    let mut attrs = AttrMap::new();
    attrs.set("segments", vec![1i64, 5, 0]); // claims 5 indices, has none
    let op = m.create_op("equeue.read", vec![buf], vec![Type::I32], attrs, vec![]);
    m.append_op(m.top_block(), op);
    assert!(read_view(&m, op).unwrap_err().contains("segments"));
}

#[test]
fn write_wrong_segment_arity_rejected() {
    let (mut m, buf) = module_with_buffer();
    let mut attrs = AttrMap::new();
    attrs.set("segments", vec![1i64, 1]); // needs 4 entries
    let op = m.create_op("equeue.write", vec![buf, buf], vec![], attrs, vec![]);
    m.append_op(m.top_block(), op);
    assert!(write_view(&m, op).unwrap_err().contains("4 entries"));
}

#[test]
fn memcpy_missing_operands_rejected() {
    let (mut m, buf) = module_with_buffer();
    let mut attrs = AttrMap::new();
    attrs.set("segments", vec![1i64, 1, 1, 1, 0]);
    let op = m.create_op(
        "equeue.memcpy",
        vec![buf, buf],
        vec![Type::Signal],
        attrs,
        vec![],
    );
    m.append_op(m.top_block(), op);
    assert!(memcpy_view(&m, op).unwrap_err().contains("segments"));
}

#[test]
fn launch_without_region_rejected() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let start = b.control_start();
    let op = m.create_op(
        "equeue.launch",
        vec![start, pe],
        vec![Type::Signal],
        AttrMap::new(),
        vec![],
    );
    m.append_op(m.top_block(), op);
    assert!(launch_view(&m, op).unwrap_err().contains("region"));
}

#[test]
fn launch_capture_arity_mismatch_rejected() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let mem = b.create_mem(kinds::SRAM, &[8], 32, 1);
    let buf = b.alloc(mem, &[4], Type::I32);
    let start = b.control_start();
    // Region takes zero args but the launch passes one capture.
    let (region, body) = b.region_with_block(vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), body);
        ib.ret(vec![]);
    }
    let op = m.create_op(
        "equeue.launch",
        vec![start, pe, buf],
        vec![Type::Signal],
        AttrMap::new(),
        vec![region],
    );
    m.append_op(m.top_block(), op);
    let err = verify_module(&m, &standard_registry()).unwrap_err();
    assert!(err.to_string().contains("captures"), "{err}");
}

#[test]
fn launch_on_memory_rejected() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let mem = b.create_mem(kinds::SRAM, &[8], 32, 1);
    let start = b.control_start();
    let (region, body) = b.region_with_block(vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), body);
        ib.ret(vec![]);
    }
    let op = m.create_op(
        "equeue.launch",
        vec![start, mem],
        vec![Type::Signal],
        AttrMap::new(),
        vec![region],
    );
    m.append_op(m.top_block(), op);
    let err = verify_module(&m, &standard_registry()).unwrap_err();
    assert!(err.to_string().contains("processor"), "{err}");
}

#[test]
fn control_start_with_operands_rejected() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let s = b.control_start();
    let op = m.create_op(
        "equeue.control_start",
        vec![s],
        vec![Type::Signal],
        AttrMap::new(),
        vec![],
    );
    m.append_op(m.top_block(), op);
    let err = verify_module(&m, &standard_registry()).unwrap_err();
    assert!(err.to_string().contains("no operands"), "{err}");
}

#[test]
fn create_mem_with_zero_banks_rejected() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.op("equeue.create_mem")
        .attr("kind", "SRAM")
        .attr("shape", vec![8i64])
        .attr("data_bits", 32i64)
        .attr("banks", 0i64)
        .result(Type::Mem)
        .finish();
    let err = verify_module(&m, &standard_registry()).unwrap_err();
    assert!(err.to_string().contains("banks"), "{err}");
}

/// A well-formed SRAM `create_mem` with one attribute replaced or added.
fn create_mem_with(name: &str, value: i64) -> (Module, equeue_ir::OpId) {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let op = b
        .op("equeue.create_mem")
        .attr("kind", "SRAM")
        .attr("shape", vec![8i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr(name, value)
        .result(Type::Mem)
        .finish();
    (m, op)
}

#[test]
fn create_mem_integers_out_of_range_rejected() {
    let cap = MAX_MEM_PORTS as i64;
    for (name, value) in [
        // 2^61: a `vec![0; ports]` of this length fails to allocate.
        ("ports", 2_305_843_009_213_693_952),
        ("ports", cap + 1),
        ("ports", 0),
        ("ports", -1),
        // 2^32 and 2^32 + 8 would narrow to 0 and 8 under `as u32`.
        ("banks", 4_294_967_296),
        ("data_bits", 4_294_967_304),
        ("data_bits", 0),
    ] {
        let (m, op) = create_mem_with(name, value);
        let err = create_mem_view(&m, op).unwrap_err();
        assert!(
            err.contains(name) && err.contains(&value.to_string()),
            "{name} = {value}: {err}"
        );
        let err = verify_module(&m, &standard_registry()).unwrap_err();
        assert!(err.to_string().contains(name), "{name} = {value}: {err}");
    }
}

#[test]
fn create_mem_integers_at_their_bounds_accepted() {
    for (name, value) in [
        ("ports", 1),
        ("ports", MAX_MEM_PORTS as i64),
        ("banks", i64::from(u32::MAX)),
        ("data_bits", i64::from(u32::MAX)),
    ] {
        let (m, op) = create_mem_with(name, value);
        verify_module(&m, &standard_registry()).unwrap();
        let view = create_mem_view(&m, op).unwrap();
        let got = match name {
            "ports" => view.ports.map(|p| p as i64),
            "banks" => view.banks.map(i64::from),
            _ => view.data_bits.map(i64::from),
        };
        assert_eq!(got, Some(value), "{name}");
    }
}

#[test]
fn create_mem_with_overflowing_capacity_rejected() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.op("equeue.create_mem")
        .attr("kind", "SRAM")
        .attr("shape", vec![4_294_967_296i64, 4_294_967_296])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .result(Type::Mem)
        .finish();
    let err = verify_module(&m, &standard_registry()).unwrap_err();
    assert!(err.to_string().contains("capacity overflows"), "{err}");
}

#[test]
fn alloc_larger_than_declared_type_ok_but_capacity_checked_at_runtime() {
    // The verifier checks types; capacity is a runtime property.
    let (m, _) = module_with_buffer();
    verify_module(&m, &standard_registry()).unwrap();
}
