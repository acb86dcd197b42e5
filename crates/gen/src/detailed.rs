//! Per-element systolic fidelity: the ablation counterpart to the
//! wave-granularity model in [`crate::systolic`].
//!
//! The paper's §VI-B generator models every cycle of every PE: each stream
//! element is read, multiplied-accumulated, and passed to the neighbour as
//! its own operation. This module emits that program shape — each PE's
//! per-fold work is an `affine.for` whose body costs one cycle per
//! element, with boundary PEs doing real indexed SRAM reads/writes — so
//! the two fidelities can be compared directly: identical cycle counts,
//! very different event counts (and simulation cost). The Fig. 12 sweep
//! uses the wave model because its cost grows with folds, not cycles.

use crate::systolic::{generate_systolic, SystolicProgram, SystolicSpec};
use equeue_dialect::{kinds, AffineBuilder, ConnKind, ConvDims, EqueueBuilder};
use equeue_ir::{Module, OpBuilder, Type, ValueId};
use equeue_passes::Dataflow;

/// Generates the per-element (cycle-level) systolic program.
///
/// Semantically equivalent to [`generate_systolic`] — same mapping, folds,
/// and per-fold timing — but each stream element is an individual event.
///
/// # Panics
///
/// Panics if the filter does not fit in the input or the array is empty.
///
/// # Examples
///
/// ```
/// use equeue_gen::{generate_systolic, generate_systolic_detailed, SystolicSpec};
/// use equeue_passes::Dataflow;
/// use equeue_dialect::ConvDims;
/// use equeue_core::simulate;
///
/// let spec = SystolicSpec { rows: 2, cols: 2, dataflow: Dataflow::Ws };
/// let dims = ConvDims::square(5, 2, 1, 2);
/// let wave = simulate(&generate_systolic(&spec, dims).module).unwrap();
/// let detailed = simulate(&generate_systolic_detailed(&spec, dims).module).unwrap();
/// assert_eq!(wave.cycles, detailed.cycles);
/// assert!(detailed.ops_interpreted > wave.ops_interpreted);
/// ```
pub fn generate_systolic_detailed(spec: &SystolicSpec, dims: ConvDims) -> SystolicProgram {
    // Reuse the wave generator's mapping arithmetic for the metadata…
    let meta = generate_systolic(spec, dims);
    let (fr, fc) = meta.folds;
    let (d1, d2, stream) = (meta.d1, meta.d2, meta.stream);
    let double = spec.dataflow == Dataflow::Os;
    let per_elem_cycles: i64 = if double { 2 } else { 1 };

    // …then build the detailed module from scratch.
    let mut module = Module::new();
    let top = module.top_block();
    let used = |dim: usize, avail: usize, idx: usize| (dim - idx * avail).min(avail);
    let max_ru = spec.rows.min(d1);
    let max_cu = spec.cols.min(d2);

    let mut sizes = vec![];
    for fi in 0..fr {
        for fj in 0..fc {
            let sz = used(d1, spec.rows, fi) * used(d2, spec.cols, fj);
            if !sizes.contains(&sz) {
                sizes.push(sz);
            }
        }
    }
    let stationary_capacity: usize = sizes.iter().sum::<usize>().max(1);

    let mut b = OpBuilder::at_end(&mut module, top);
    let kernel = b.create_proc(kinds::ARM_R5);
    let stationary_sram = b.create_mem(kinds::SRAM, &[stationary_capacity], 32, spec.cols as u32);
    let stream_sram = b
        .op("equeue.create_mem")
        .attr("kind", kinds::SRAM)
        .attr("shape", vec![(max_ru * stream).max(1) as i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr("ports", (max_ru + max_cu).max(1) as i64)
        .result(Type::Mem)
        .finish_value();
    let ofmap_sram = b
        .op("equeue.create_mem")
        .attr("kind", kinds::SRAM)
        .attr("shape", vec![(max_cu * stream.max(max_ru)).max(1) as i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr("ports", max_cu.max(1) as i64)
        .result(Type::Mem)
        .finish_value();
    let conn_in = b.create_connection(ConnKind::Streaming, 0);
    let conn_out = b.create_connection(ConnKind::Streaming, 0);

    let mut pes: Vec<Vec<ValueId>> = vec![];
    for _ in 0..max_ru {
        pes.push((0..max_cu).map(|_| b.create_proc(kinds::MAC)).collect());
    }
    let stores: Vec<ValueId> = (0..max_cu).map(|_| b.create_proc(kinds::GENERIC)).collect();

    let mut load_bufs = std::collections::HashMap::new();
    for &sz in &sizes {
        load_bufs.insert(sz, b.alloc(stationary_sram, &[sz], Type::I32));
    }
    let row_bufs: Vec<ValueId> = (0..max_ru)
        .map(|_| b.alloc(stream_sram, &[stream.max(1)], Type::I32))
        .collect();
    let drain_elems = match spec.dataflow {
        Dataflow::Os => max_ru,
        _ => stream,
    };
    let col_bufs: Vec<ValueId> = (0..max_cu)
        .map(|_| b.alloc(ofmap_sram, &[drain_elems.max(1)], Type::I32))
        .collect();

    let mut prev_done = b.control_start();
    for fi in 0..fr {
        for fj in 0..fc {
            let ru = used(d1, spec.rows, fi);
            let cu = used(d2, spec.cols, fj);

            // Stationary load (same as the wave model).
            let load = b.launch(prev_done, kernel, &[], vec![]);
            {
                let mut ib = OpBuilder::at_end(b.module_mut(), load.body);
                if spec.dataflow == Dataflow::Os {
                    let cycles = (ru * cu).div_ceil(spec.cols) as i64;
                    ib.op("equeue.op")
                        .attr("signature", "reset_acc")
                        .attr("cycles", cycles)
                        .finish();
                } else {
                    ib.read(load_bufs[&(ru * cu)], None);
                }
                ib.ret(vec![]);
            }
            b = OpBuilder::at_end(&mut module, top);
            let load_done = load.done;

            let mut skew_done: Vec<Vec<Option<ValueId>>> = vec![vec![None; cu]; ru];
            let mut work_done: Vec<ValueId> = vec![];
            let mut bottom_work: Vec<Option<ValueId>> = vec![None; cu];
            for i in 0..ru {
                for j in 0..cu {
                    let filled = |o: Option<ValueId>| match o {
                        Some(v) => v,
                        None => unreachable!("the wavefront fills earlier PEs first"),
                    };
                    let dep = match (i, j) {
                        (0, 0) => load_done,
                        (0, _) => filled(skew_done[0][j - 1]),
                        (_, 0) => filled(skew_done[i - 1][0]),
                        _ => b.control_and(vec![
                            filled(skew_done[i - 1][j]),
                            filled(skew_done[i][j - 1]),
                        ]),
                    };
                    let skew = b.launch(dep, pes[i][j], &[], vec![]);
                    {
                        let mut ib = OpBuilder::at_end(b.module_mut(), skew.body);
                        ib.op("equeue.op")
                            .attr("signature", "skew")
                            .attr("cycles", 1i64)
                            .finish();
                        ib.ret(vec![]);
                    }
                    b = OpBuilder::at_end(&mut module, top);
                    skew_done[i][j] = Some(skew.done);

                    // Per-element work: a loop of `stream` iterations, one
                    // element each. Boundary PEs perform the real indexed
                    // SRAM read (1-cycle single-bank access), interior PEs
                    // a 1-cycle step op; OS costs two cycles per element
                    // (two operands enter per accumulation).
                    let boundary = j == 0 || (spec.dataflow == Dataflow::Os && i == 0);
                    let work =
                        b.launch(skew.done, pes[i][j], &[row_bufs[i.min(max_ru - 1)]], vec![]);
                    {
                        let mut ib = OpBuilder::at_end(b.module_mut(), work.body);
                        let (_, body, iv) = ib.affine_for(0, stream.max(1) as i64, 1);
                        {
                            let mut lb = OpBuilder::at_end(ib.module_mut(), body);
                            if boundary {
                                lb.read_indexed(work.body_args[0], vec![iv], Some(conn_in));
                                if double {
                                    lb.op("equeue.op")
                                        .attr("signature", "step")
                                        .attr("cycles", 1i64)
                                        .finish();
                                }
                            } else {
                                lb.op("equeue.op")
                                    .attr("signature", "step")
                                    .attr("cycles", per_elem_cycles)
                                    .finish();
                            }
                            lb.affine_yield();
                        }
                        let mut ib = OpBuilder::at_end(&mut module, work.body);
                        ib.ret(vec![]);
                    }
                    b = OpBuilder::at_end(&mut module, top);
                    work_done.push(work.done);
                    if i == ru - 1 {
                        bottom_work[j] = Some(work.done);
                    }
                }
            }

            // Per-element drain.
            let drain_sz = match spec.dataflow {
                Dataflow::Os => ru,
                _ => stream,
            };
            let mut store_done: Vec<ValueId> = vec![];
            for (j, &store) in stores.iter().enumerate().take(cu) {
                let filled = |o: Option<ValueId>| match o {
                    Some(v) => v,
                    None => unreachable!("the wavefront covered every column"),
                };
                let dep = match spec.dataflow {
                    Dataflow::Os => filled(bottom_work[j]),
                    _ => filled(skew_done[ru - 1][j]),
                };
                let st = b.launch(dep, store, &[col_bufs[j]], vec![]);
                {
                    let mut ib = OpBuilder::at_end(b.module_mut(), st.body);
                    let (_, body, iv) = ib.affine_for(0, drain_sz.max(1) as i64, 1);
                    {
                        let mut lb = OpBuilder::at_end(ib.module_mut(), body);
                        let zero = lb
                            .op("arith.constant")
                            .attr("value", 0i64)
                            .result(Type::I32)
                            .finish_value();
                        lb.write_indexed(zero, st.body_args[0], vec![iv], Some(conn_out));
                        lb.affine_yield();
                    }
                    let mut ib = OpBuilder::at_end(&mut module, st.body);
                    ib.ret(vec![]);
                }
                b = OpBuilder::at_end(&mut module, top);
                store_done.push(st.done);
            }

            let mut all = work_done;
            all.extend(store_done);
            prev_done = b.control_and(all);
        }
    }
    b.await_all(vec![prev_done]);

    SystolicProgram {
        module,
        folds: meta.folds,
        d1,
        d2,
        stream,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_core::simulate;

    #[test]
    fn fidelity_wave_equals_per_element_ws() {
        for (rows, hw, f, n) in [(2usize, 5usize, 2usize, 2usize), (4, 6, 2, 3)] {
            let spec = SystolicSpec {
                rows,
                cols: rows,
                dataflow: Dataflow::Ws,
            };
            let dims = ConvDims::square(hw, f, 1, n);
            let wave = simulate(&generate_systolic(&spec, dims).module).unwrap();
            let detailed = simulate(&generate_systolic_detailed(&spec, dims).module).unwrap();
            assert_eq!(wave.cycles, detailed.cycles, "rows={rows} hw={hw}");
        }
    }

    #[test]
    fn fidelity_wave_equals_per_element_is() {
        let spec = SystolicSpec {
            rows: 2,
            cols: 2,
            dataflow: Dataflow::Is,
        };
        let dims = ConvDims::square(4, 2, 1, 3);
        let wave = simulate(&generate_systolic(&spec, dims).module).unwrap();
        let detailed = simulate(&generate_systolic_detailed(&spec, dims).module).unwrap();
        assert_eq!(wave.cycles, detailed.cycles);
    }

    #[test]
    fn fidelity_per_element_costs_more_events() {
        let spec = SystolicSpec {
            rows: 4,
            cols: 4,
            dataflow: Dataflow::Ws,
        };
        let dims = ConvDims::square(8, 2, 3, 2);
        let wave = simulate(&generate_systolic(&spec, dims).module).unwrap();
        let detailed = simulate(&generate_systolic_detailed(&spec, dims).module).unwrap();
        assert_eq!(wave.cycles, detailed.cycles);
        // The ablation's point: the wave model is far cheaper to simulate.
        assert!(
            detailed.ops_interpreted > 5 * wave.ops_interpreted,
            "detailed {} vs wave {}",
            detailed.ops_interpreted,
            wave.ops_interpreted
        );
        assert!(detailed.events_processed > wave.events_processed);
    }

    #[test]
    fn fidelity_traffic_matches_wave_model() {
        let spec = SystolicSpec {
            rows: 2,
            cols: 2,
            dataflow: Dataflow::Ws,
        };
        let dims = ConvDims::square(5, 2, 1, 2);
        let wave = simulate(&generate_systolic(&spec, dims).module).unwrap();
        let detailed = simulate(&generate_systolic_detailed(&spec, dims).module).unwrap();
        let sum = |r: &equeue_core::SimReport| {
            (
                r.memories.iter().map(|m| m.bytes_read).sum::<u64>(),
                r.memories.iter().map(|m| m.bytes_written).sum::<u64>(),
            )
        };
        assert_eq!(sum(&wave), sum(&detailed));
    }
}
