//! Functional verification across the stack: a convolution lowered from
//! Linalg through the reusable passes must compute the same numbers as
//! the reference implementation — the simulator is an interpreter with a
//! clock, not just a cost model. Every shape runs on both backends, with
//! tracing off and on; each run's ofmap must equal [`conv2d_int`]'s, the
//! four runs must agree on cycles, wakes and ops, and the fused runs must
//! run the conv nest as fused traces.

use equeue::prelude::*;
use equeue::sim::{conv2d_int, Backend, TensorData};
use equeue_ir::ValueId;
use equeue_passes::{AllocateMemory, ConvertLinalgToAffineLoops, EqueueReadWrite, WrapInLaunch};

/// Builds a conv program with deterministic input data (ifmap[i] = i % 7,
/// weights[i] = i % 5 + 1), lowered through the given extra passes, and
/// returns it with the reference ofmap.
fn build(dims: ConvDims, flatten: Option<Dataflow>) -> (Module, Vec<i64>) {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let kernel = b.create_proc(kinds::ARM_R5);
    let capacity = dims.ifmap_elems() + dims.weight_elems() + dims.ofmap_elems();
    let sram = b.create_mem(kinds::SRAM, &[capacity], 32, 4);

    let ifmap = b.memref_alloc(Type::memref(vec![dims.c, dims.h, dims.w], Type::I32));
    let weights = b.memref_alloc(Type::memref(
        vec![dims.n, dims.c, dims.fh, dims.fw],
        Type::I32,
    ));
    let ofmap = b.memref_alloc(Type::memref(vec![dims.n, dims.eh(), dims.ew()], Type::I32));

    // Deterministic init data, written element-wise before the conv.
    let mut ifmap_data = vec![];
    for (flat, (ci, hi, wi)) in iter3(dims.c, dims.h, dims.w).enumerate() {
        let v = (flat % 7) as i64;
        ifmap_data.push(v);
        let val = b.const_int(v, Type::I32);
        let idx = [
            b.const_index(ci as i64),
            b.const_index(hi as i64),
            b.const_index(wi as i64),
        ];
        b.affine_store(val, ifmap, idx.to_vec());
    }
    let mut weight_data = vec![];
    for (flat, (ni, rest)) in iter2(dims.n, dims.c * dims.fh * dims.fw).enumerate() {
        let v = (flat % 5 + 1) as i64;
        weight_data.push(v);
        let ci = rest / (dims.fh * dims.fw);
        let r = rest % (dims.fh * dims.fw);
        let idx = [
            b.const_index(ni as i64),
            b.const_index(ci as i64),
            b.const_index((r / dims.fw) as i64),
            b.const_index((r % dims.fw) as i64),
        ];
        let val = b.const_int(v, Type::I32);
        b.affine_store(val, weights, idx.to_vec());
    }
    b.linalg_conv2d(ifmap, weights, ofmap);

    let registry = standard_registry();
    let mut pm = PassManager::new(registry);
    pm.add(AllocateMemory::new(sram))
        .add(ConvertLinalgToAffineLoops);
    if let Some(df) = flatten {
        pm.add(equeue_passes::FlattenConvLoops::new(df));
    }
    pm.add(EqueueReadWrite).add(WrapInLaunch::new(kernel));
    pm.run(&mut m).expect("pipeline");

    let mut expect = vec![0i64; dims.ofmap_elems()];
    conv2d_int(
        &ifmap_data,
        &weight_data,
        &mut expect,
        dims.c,
        dims.h,
        dims.w,
        dims.n,
        dims.fh,
        dims.fw,
    );
    (m, expect)
}

/// Runs the lowered conv on both backends, traced and untraced: each
/// ofmap must equal the reference, and the runs must agree on cycles,
/// wakes and ops.
fn check(dims: ConvDims, flatten: Option<Dataflow>) {
    let (m, expect) = build(dims, flatten);
    let lib = SimLibrary::standard();
    let mut counters = vec![];
    for backend in [Backend::Fused, Backend::Interp] {
        for trace in [false, true] {
            let tag = format!("{dims:?} {flatten:?} {backend:?} trace={trace}");
            let opts = SimOptions {
                trace,
                backend,
                ..Default::default()
            };
            let report = simulate_with(&m, &lib, &opts).unwrap_or_else(|e| panic!("{tag}: {e}"));
            // Buffers in allocation order: ifmap, weights, ofmap.
            let got = match &report.buffers[2].data.data {
                TensorData::Int(v) => v.to_vec(),
                other => panic!("{tag}: expected int ofmap, got {other:?}"),
            };
            assert_eq!(got, expect, "{tag}");
            if backend == Backend::Fused {
                assert!(report.fused_trace_entries > 0, "{tag}: the conv nest fuses");
            }
            counters.push((
                report.cycles,
                report.events_processed,
                report.ops_interpreted,
            ));
        }
    }
    assert!(
        counters.windows(2).all(|w| w[0] == w[1]),
        "{dims:?} {flatten:?}: counters differ across runs: {counters:?}"
    );
}

fn iter3(a: usize, b: usize, c: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..a).flat_map(move |x| (0..b).flat_map(move |y| (0..c).map(move |z| (x, y, z))))
}

fn iter2(a: usize, b: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..a).flat_map(move |x| (0..b).map(move |y| (x, y)))
}

#[test]
fn affine_level_computes_the_right_convolution() {
    check(ConvDims::square(5, 2, 2, 2), None);
}

#[test]
fn flattened_loops_compute_the_same_convolution() {
    // The dataflow-specific loop restructuring must not change the values,
    // only the order of accumulation.
    for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
        check(ConvDims::square(5, 2, 2, 2), Some(df));
    }
}

#[test]
fn asymmetric_shapes_compute_correctly() {
    let dims = ConvDims {
        h: 6,
        w: 4,
        fh: 3,
        fw: 2,
        c: 2,
        n: 3,
    };
    check(dims, None);
}

/// xorshift64, seeded per test so the shapes are fixed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

#[test]
fn seeded_shapes_compute_correctly() {
    let mut rng = Rng(0x5eed_c0de_2022);
    for _ in 0..20 {
        let (fh, fw) = (rng.range(1, 3), rng.range(1, 3));
        let dims = ConvDims {
            h: fh + rng.range(0, 4),
            w: fw + rng.range(0, 4),
            fh,
            fw,
            c: rng.range(1, 3),
            n: rng.range(1, 3),
        };
        check(dims, None);
    }
}

#[test]
fn memcpy_moves_real_data() {
    // DMA copies preserve values end to end.
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let sram = b.create_mem(kinds::SRAM, &[16], 32, 4);
    let reg = b.create_mem(kinds::REGISTER, &[16], 32, 1);
    let dma = b.create_dma();
    let src: ValueId = b.alloc(sram, &[4], Type::I32);
    let dst = b.alloc(reg, &[4], Type::I32);
    for i in 0..4 {
        let v = b.const_int(10 + i, Type::I32);
        let idx = b.const_index(i);
        b.write_indexed(v, src, vec![idx], None);
    }
    let start = b.control_start();
    let done = b.memcpy(start, src, dst, dma, None);
    b.await_all(vec![done]);
    let report = simulate(&m).unwrap();
    assert_eq!(
        report.buffers[1].data.data,
        TensorData::from_ints(vec![10, 11, 12, 13])
    );
}
