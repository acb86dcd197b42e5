//! Engine benchmark scenarios and the canonical golden-scenario list.
//!
//! The module builders (`matmul_linalg`, `matmul_affine`, `tensor_stream`)
//! exercise the engine's hot paths directly, independent of the
//! figure-reproduction drivers: a matmul at the Linalg level (analytic),
//! the same matmul fully lowered to affine loops (interpreter-bound — one
//! `affine.load`/`arith` op per scalar operation), and a tensor-streaming
//! pipeline (launch-capture and whole-tensor read/write bound).
//!
//! [`golden_scenarios`] enumerates one representative module per scenario
//! family (fig09/fig11/fig12, the four FIR cases, and the three engine
//! scenarios above). It is the shared workload list for `simcheck
//! --all-scenarios`, the analysis golden-snapshot tests, and the
//! runtime/static differential suite — one list, so static claims are
//! always validated against the same modules that run.

use equeue_dialect::{
    kinds, AffineBuilder, ArithBuilder, ConnKind, ConvDims, EqueueBuilder, LinalgBuilder,
};
use equeue_ir::{Module, OpBuilder, Type};
use equeue_passes::Dataflow;

use crate::{
    build_stage_program, generate_fir, generate_systolic, FirCase, FirSpec, Stage, SystolicSpec,
};

/// An `n×n` integer matmul at the Linalg level: one analytic
/// `linalg.matmul` op inside a launch.
pub fn matmul_linalg(n: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::ARM_R5);
    let mem = b.create_mem(kinds::SRAM, &[3 * n * n], 32, n as u32);
    let a = b.alloc(mem, &[n, n], Type::I32);
    let bb = b.alloc(mem, &[n, n], Type::I32);
    let c = b.alloc(mem, &[n, n], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[a, bb, c], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        ib.linalg_matmul(l.body_args[0], l.body_args[1], l.body_args[2]);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

/// The same `n×n` matmul lowered to affine loops: `n³` iterations of
/// load/load/load/mul/add/store. Interpreter-bound — this is the
/// "64×64 matmul lowering" scenario of the perf trajectory.
pub fn matmul_affine(n: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::ARM_R5);
    let mem = b.create_mem(kinds::REGISTER, &[3 * n * n], 32, n as u32);
    let a = b.alloc(mem, &[n, n], Type::I32);
    let bb = b.alloc(mem, &[n, n], Type::I32);
    let c = b.alloc(mem, &[n, n], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[a, bb, c], vec![]);
    {
        let (va, vb, vc) = (l.body_args[0], l.body_args[1], l.body_args[2]);
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let (_, bi, i) = ib.affine_for(0, n as i64, 1);
        let mut ib = OpBuilder::at_end(ib.module_mut(), bi);
        let (_, bj, j) = ib.affine_for(0, n as i64, 1);
        let mut ib = OpBuilder::at_end(ib.module_mut(), bj);
        let (_, bk, k) = ib.affine_for(0, n as i64, 1);
        {
            let mut kb = OpBuilder::at_end(ib.module_mut(), bk);
            let aik = kb.affine_load(va, vec![i, k]);
            let bkj = kb.affine_load(vb, vec![k, j]);
            let cij = kb.affine_load(vc, vec![i, j]);
            let prod = kb.muli(aik, bkj);
            let sum = kb.addi(cij, prod);
            kb.affine_store(sum, vc, vec![i, j]);
            kb.affine_yield();
        }
        let mut ib = OpBuilder::at_end(&mut m, bj);
        ib.affine_yield();
        let mut ib = OpBuilder::at_end(&mut m, bi);
        ib.affine_yield();
        let mut ib = OpBuilder::at_end(&mut m, l.body);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

/// A chain of `k` launches, each reading an entire `n×n` tensor out of
/// SRAM and writing it back. Stresses launch-env capture and
/// whole-tensor value movement — the copy-on-write hot path.
pub fn tensor_stream(n: usize, k: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let mem = b.create_mem(kinds::SRAM, &[n * n], 32, n as u32);
    let buf = b.alloc(mem, &[n, n], Type::I32);
    let mut dep = b.control_start();
    for _ in 0..k {
        let l = b.launch(dep, pe, &[buf], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let t = ib.read(l.body_args[0], None);
            ib.write_indexed(t, l.body_args[0], vec![], None);
            ib.ret(vec![]);
        }
        dep = l.done;
        b = OpBuilder::at_end(&mut m, blk);
    }
    b.await_all(vec![dep]);
    m
}

/// A conv2d partitioned across a row of MAC PEs, one output channel per
/// PE, with DRAM→Cache DMA staging over a shared streaming connection.
/// Exercises the Cache memory model (LRU tag state), DMA transfer
/// accounting, and a multi-processor launch fan-out — the machine-state
/// surfaces the snapshot format must round-trip.
pub fn conv2d_systolic(hw: usize, f: usize, c: usize, n: usize) -> Module {
    let dims = ConvDims::square(hw, f, c, n);
    let (eh, ew) = (dims.eh(), dims.ew());
    let if_elems = c * hw * hw;
    let w_elems = n * c * f * f;
    let of_elems = n * eh * ew;
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pes: Vec<_> = (0..n).map(|_| b.create_proc(kinds::MAC)).collect();
    let dram = b.create_mem(kinds::DRAM, &[if_elems + w_elems], 32, 1);
    // On-chip working set: staged ifmap plus the per-PE weight and output
    // slices carved out below.
    let cache = b.create_mem(kinds::CACHE, &[if_elems + w_elems + of_elems], 32, 4);
    let dma = b.create_dma();
    let conn = b.create_connection(ConnKind::Streaming, 16);
    let dram_if = b.alloc(dram, &[c, hw, hw], Type::I32);
    let if_c = b.alloc(cache, &[c, hw, hw], Type::I32);
    let start = b.control_start();
    // Stage the shared ifmap on-chip before any PE starts.
    let cp_if = b.memcpy(start, dram_if, if_c, dma, Some(conn));
    let mut dones = Vec::with_capacity(n);
    for pe in pes {
        // Per-PE single-channel weight slice, staged from DRAM; per-PE
        // single-channel output slice.
        let dram_w = b.alloc(dram, &[1, c, f, f], Type::I32);
        let w_pe = b.alloc(cache, &[1, c, f, f], Type::I32);
        let of_pe = b.alloc(cache, &[1, eh, ew], Type::I32);
        let cp = b.memcpy(cp_if, dram_w, w_pe, dma, Some(conn));
        let l = b.launch(cp, pe, &[if_c, w_pe, of_pe], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.linalg_conv2d(l.body_args[0], l.body_args[1], l.body_args[2]);
            ib.ret(vec![]);
        }
        dones.push(l.done);
        b = OpBuilder::at_end(&mut m, blk);
    }
    b.await_all(dones);
    m
}

/// Several independent tenants time-sharing one machine: each tenant owns
/// a processor and an SRAM working set and runs a `k`-deep launch chain,
/// with every hop also bouncing its buffer through a shared
/// bandwidth-limited connection via a shared DMA. Tenants interleave in
/// the event heap and contend on the connection's channel reservations —
/// the in-flight state the snapshot format must capture mid-run.
pub fn multi_tenant_trace(tenants: usize, n: usize, k: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let dma = b.create_dma();
    let conn = b.create_connection(ConnKind::Streaming, 8);
    let mut dones = Vec::with_capacity(tenants);
    for _ in 0..tenants {
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[2 * n * n], 32, 2);
        let src = b.alloc(mem, &[n, n], Type::I32);
        let dst = b.alloc(mem, &[n, n], Type::I32);
        let mut dep = b.control_start();
        for hop in 0..k {
            let (from, to) = if hop % 2 == 0 { (src, dst) } else { (dst, src) };
            let moved = b.memcpy(dep, from, to, dma, Some(conn));
            let l = b.launch(moved, pe, &[to], vec![]);
            {
                let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
                let t = ib.read(l.body_args[0], None);
                ib.write_indexed(t, l.body_args[0], vec![], None);
                ib.ret(vec![]);
            }
            dep = l.done;
            b = OpBuilder::at_end(&mut m, blk);
        }
        dones.push(dep);
    }
    b.await_all(dones);
    m
}

/// A `rows×cols` grid of processors, each launched once with a small
/// affine accumulation loop over its own register slice. Stresses the
/// event heap, sequence numbering, and per-processor runtime count — the
/// "many small frames" shape of the snapshot encoding.
pub fn mega_grid(rows: usize, cols: usize, iters: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let mem = b.create_mem(kinds::REGISTER, &[rows * cols * iters], 32, 1);
    let start = b.control_start();
    let mut dones = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        let pe = b.create_proc(kinds::MAC);
        let buf = b.alloc(mem, &[iters], Type::I32);
        let l = b.launch(start, pe, &[buf], vec![]);
        {
            let v = l.body_args[0];
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let (_, bi, i) = ib.affine_for(0, iters as i64, 1);
            {
                let mut lb = OpBuilder::at_end(ib.module_mut(), bi);
                let x = lb.affine_load(v, vec![i]);
                let y = lb.addi(x, x);
                lb.affine_store(y, v, vec![i]);
                lb.affine_yield();
            }
            let mut ib = OpBuilder::at_end(&mut m, l.body);
            ib.ret(vec![]);
        }
        dones.push(l.done);
        b = OpBuilder::at_end(&mut m, blk);
    }
    b.await_all(dones);
    m
}

/// A `rows×cols` grid of processors where each PE owns a *private*
/// register memory, so no two PEs touch the same memory. Contrast with
/// [`mega_grid`], whose PEs all share one memory.
pub fn shard_grid(rows: usize, cols: usize, iters: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let start = b.control_start();
    let mut dones = Vec::with_capacity(rows * cols);
    for _ in 0..rows * cols {
        let pe = b.create_proc(kinds::MAC);
        let mem = b.create_mem(kinds::REGISTER, &[iters], 32, 1);
        let buf = b.alloc(mem, &[iters], Type::I32);
        let l = b.launch(start, pe, &[buf], vec![]);
        {
            let v = l.body_args[0];
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let (_, bi, i) = ib.affine_for(0, iters as i64, 1);
            {
                let mut lb = OpBuilder::at_end(ib.module_mut(), bi);
                let x = lb.affine_load(v, vec![i]);
                let y = lb.addi(x, x);
                lb.affine_store(y, v, vec![i]);
                lb.affine_yield();
            }
            let mut ib = OpBuilder::at_end(&mut m, l.body);
            ib.ret(vec![]);
        }
        dones.push(l.done);
        b = OpBuilder::at_end(&mut m, blk);
    }
    b.await_all(dones);
    m
}

/// One named golden scenario.
pub struct GoldenScenario {
    /// Stable scenario name (`"fig09_4x4_ws_8x8"`). Sorted-unique across
    /// the list; used as the snapshot/file key.
    pub name: &'static str,
    /// The module.
    pub module: Module,
}

/// The canonical golden-scenario list: one representative module per
/// scenario family, in a fixed deterministic order. Shared by `simcheck
/// --all-scenarios`, the golden-snapshot tests, and the runtime/static
/// differential suite.
pub fn golden_scenarios() -> Vec<GoldenScenario> {
    let mut out = Vec::new();
    // Fig. 9: the 4×4 weight-stationary array on an 8×8 ifmap.
    out.push(GoldenScenario {
        name: "fig09_4x4_ws_8x8",
        module: generate_systolic(
            &SystolicSpec {
                rows: 4,
                cols: 4,
                dataflow: Dataflow::Ws,
            },
            ConvDims::square(8, 2, 3, 1),
        )
        .module,
    });
    // Fig. 11: every lowering stage at one (dims, dataflow) point.
    let dims = ConvDims::square(8, 3, 3, 4);
    for (stage, name) in [
        (Stage::Linalg, "fig11_linalg_ws_8"),
        (Stage::Affine, "fig11_affine_ws_8"),
        (Stage::Reassign, "fig11_reassign_ws_8"),
        (Stage::Systolic, "fig11_systolic_ws_8"),
    ] {
        out.push(GoldenScenario {
            name,
            module: build_stage_program(stage, dims, (4, 4), Dataflow::Ws).module,
        });
    }
    // Fig. 12: one mid-grid sweep point per dataflow (8×8 array).
    for (df, name) in [
        (Dataflow::Ws, "fig12_ah8_hw16_f4_c4_n8_ws"),
        (Dataflow::Is, "fig12_ah8_hw16_f4_c4_n8_is"),
        (Dataflow::Os, "fig12_ah8_hw16_f4_c4_n8_os"),
    ] {
        out.push(GoldenScenario {
            name,
            module: generate_systolic(
                &SystolicSpec {
                    rows: 8,
                    cols: 8,
                    dataflow: df,
                },
                ConvDims {
                    h: 16,
                    w: 16,
                    fh: 4,
                    fw: 4,
                    c: 4,
                    n: 8,
                },
            )
            .module,
        });
    }
    // §VII: the four FIR design iterations.
    for (case, name) in [
        (FirCase::SingleCore, "fir_single_core"),
        (FirCase::Pipelined16, "fir_pipelined16"),
        (FirCase::Bandwidth16, "fir_bandwidth16"),
        (FirCase::Balanced4, "fir_balanced4"),
    ] {
        out.push(GoldenScenario {
            name,
            module: generate_fir(FirSpec::default(), case).module,
        });
    }
    // Engine benchmark scenarios.
    out.push(GoldenScenario {
        name: "matmul_linalg16",
        module: matmul_linalg(16),
    });
    out.push(GoldenScenario {
        name: "matmul_affine16",
        module: matmul_affine(16),
    });
    out.push(GoldenScenario {
        name: "tensor_stream_64x8",
        module: tensor_stream(64, 8),
    });
    // Scenario-diversity sweep: cache + DMA staging, tenant interleaving,
    // and a wide processor grid.
    out.push(GoldenScenario {
        name: "conv2d_systolic_8x3",
        module: conv2d_systolic(8, 3, 2, 4),
    });
    out.push(GoldenScenario {
        name: "multi_tenant_4x16x6",
        module: multi_tenant_trace(4, 16, 6),
    });
    out.push(GoldenScenario {
        name: "mega_grid_8x8",
        module: mega_grid(8, 8, 4),
    });
    // Per-PE private memories: no memory is shared between PEs.
    out.push(GoldenScenario {
        name: "shard_grid_4x4",
        module: shard_grid(4, 4, 4),
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_scenario_names_are_unique() {
        let list = golden_scenarios();
        let mut names: Vec<&str> = list.iter().map(|s| s.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(n >= 12, "scenario list unexpectedly small: {n}");
    }

    #[test]
    fn golden_scenarios_simulate() {
        use equeue_core::{simulate_with, SimLibrary, SimOptions};
        let lib = SimLibrary::standard();
        let opts = SimOptions {
            trace: false,
            ..Default::default()
        };
        for s in golden_scenarios() {
            let r = simulate_with(&s.module, &lib, &opts);
            assert!(r.is_ok(), "{} failed: {:?}", s.name, r.err());
        }
    }
}
