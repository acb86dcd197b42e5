//! Per-element systolic fidelity: the ablation counterpart to the
//! wave-granularity model in [`crate::systolic`].
//!
//! The paper's §VI-B generator models every cycle of every PE: each stream
//! element is read, multiplied-accumulated, and passed to the neighbour as
//! its own operation. This module emits that program shape — each PE's
//! per-fold work is an `affine.for` whose body costs one cycle per
//! element, with boundary PEs doing real indexed SRAM reads/writes — so
//! the two fidelities can be compared directly: identical cycle counts
//! and SRAM traffic, very different event counts (and simulation cost).
//! The Fig. 12 sweep uses the wave model because its cost grows with
//! folds, not cycles.
//!
//! The two generators share only the mapping, [`SystolicMapping`]: this
//! one builds its own memories, buffers and fold skeleton and never
//! reuses a wave module, so it checks the wave model independently.

use crate::systolic::{SystolicMapping, SystolicProgram, SystolicSpec};
use equeue_dialect::{kinds, AffineBuilder, ConnKind, ConvDims, EqueueBuilder};
use equeue_ir::{Module, OpBuilder, Type, ValueId};
use equeue_passes::Dataflow;
use std::collections::HashMap;

/// Generates the per-element (cycle-level) systolic program.
///
/// Semantically equivalent to [`generate_systolic`](crate::generate_systolic)
/// — same mapping, folds,
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
    let m = SystolicMapping::new(spec, dims);
    let (fr, fc) = m.folds();
    let stream = m.stream;
    // Cycles per stream element: 2 under OS (two operands enter per
    // accumulation), else 1.
    let per_elem_cycles = (m.stream_cycles() / stream.max(1)) as i64;
    let os = spec.dataflow == Dataflow::Os;

    let mut module = Module::new();
    let top = module.top_block();
    let max_ru = m.rows_used(0);
    let max_cu = m.cols_used(0);
    let load_sizes = m.load_sizes();
    let stationary_capacity: usize = load_sizes.iter().sum::<usize>().max(1);

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

    let load_bufs: HashMap<usize, ValueId> = load_sizes
        .iter()
        .map(|&sz| (sz, b.alloc(stationary_sram, &[sz], Type::I32)))
        .collect();
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
            let ru = m.rows_used(fi);
            let cu = m.cols_used(fj);

            // Stationary load (same as the wave model).
            let load = b.launch(prev_done, kernel, &[], vec![]);
            {
                let mut ib = OpBuilder::at_end(b.module_mut(), load.body);
                if os {
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

            let mut skew_done: Vec<Vec<ValueId>> = vec![];
            let mut work_done: Vec<ValueId> = vec![];
            for i in 0..ru {
                let mut row_done: Vec<ValueId> = vec![];
                for j in 0..cu {
                    let dep = match (i, j) {
                        (0, 0) => load_done,
                        (0, _) => row_done[j - 1],
                        (_, 0) => skew_done[i - 1][0],
                        _ => b.control_and(vec![skew_done[i - 1][j], row_done[j - 1]]),
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
                    row_done.push(skew.done);

                    // Per-element work: a loop of `stream` iterations, one
                    // element each. Boundary PEs perform the real indexed
                    // SRAM reads (1-cycle single-bank accesses): ifmap from
                    // the left edge and, under OS, weights from the top
                    // edge, so PE(0,0) reads two. A step op covers the rest
                    // of the element's cycles.
                    let reads = usize::from(j == 0) + usize::from(os && i == 0);
                    let work = b.launch(skew.done, pes[i][j], &[row_bufs[i]], vec![]);
                    {
                        let mut ib = OpBuilder::at_end(b.module_mut(), work.body);
                        let (_, body, iv) = ib.affine_for(0, stream.max(1) as i64, 1);
                        {
                            let mut lb = OpBuilder::at_end(ib.module_mut(), body);
                            for _ in 0..reads {
                                lb.read_indexed(work.body_args[0], vec![iv], Some(conn_in));
                            }
                            let rest = per_elem_cycles - reads as i64;
                            if rest > 0 {
                                lb.op("equeue.op")
                                    .attr("signature", "step")
                                    .attr("cycles", rest)
                                    .finish();
                            }
                            lb.affine_yield();
                        }
                        let mut ib = OpBuilder::at_end(&mut module, work.body);
                        ib.ret(vec![]);
                    }
                    b = OpBuilder::at_end(&mut module, top);
                    work_done.push(work.done);
                }
                skew_done.push(row_done);
            }

            // Per-element drain.
            let drain_sz = match spec.dataflow {
                Dataflow::Os => ru,
                _ => stream,
            };
            let mut store_done: Vec<ValueId> = vec![];
            for (j, &store) in stores.iter().enumerate().take(cu) {
                let dep = match spec.dataflow {
                    Dataflow::Os => work_done[(ru - 1) * cu + j],
                    _ => skew_done[ru - 1][j],
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

    SystolicProgram { module, mapping: m }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_systolic;
    use equeue_core::{simulate, SimReport};

    /// Simulates both fidelities on every point of a grid of array and conv
    /// shapes under `dataflow` and hands each pair of reports to `check`.
    /// Asserts that the grid has a point with remainder folds in both
    /// dimensions.
    fn on_grid(dataflow: Dataflow, mut check: impl FnMut(&str, &SimReport, &SimReport)) {
        let arrays = [(2, 2), (2, 3), (3, 2), (4, 4)];
        let shapes = [
            ConvDims::square(5, 2, 1, 2),
            ConvDims::square(4, 2, 1, 3),
            ConvDims::square(6, 3, 2, 5),
            ConvDims::square(5, 1, 3, 3),
            ConvDims::square(7, 2, 2, 1),
        ];
        let mut remainders_in_both = false;
        for (rows, cols) in arrays {
            for dims in shapes {
                let spec = SystolicSpec {
                    rows,
                    cols,
                    dataflow,
                };
                let wave = generate_systolic(&spec, dims);
                let m = wave.mapping;
                remainders_in_both |= !m.d1.is_multiple_of(rows) && !m.d2.is_multiple_of(cols);
                let wave = simulate(&wave.module).unwrap();
                let detailed = simulate(&generate_systolic_detailed(&spec, dims).module).unwrap();
                check(&format!("{spec:?} {dims:?}"), &wave, &detailed);
            }
        }
        assert!(
            remainders_in_both,
            "{dataflow:?}: no point folds unevenly in both dimensions"
        );
    }

    fn assert_same_cycles(dataflow: Dataflow) {
        on_grid(dataflow, |point, wave, detailed| {
            assert_eq!(wave.cycles, detailed.cycles, "{point}");
        });
    }

    #[test]
    fn fidelity_wave_equals_per_element_ws() {
        assert_same_cycles(Dataflow::Ws);
    }

    #[test]
    fn fidelity_wave_equals_per_element_is() {
        assert_same_cycles(Dataflow::Is);
    }

    #[test]
    fn fidelity_wave_equals_per_element_os() {
        assert_same_cycles(Dataflow::Os);
    }

    /// Every memory's `(bytes_read, bytes_written)`, in creation order.
    #[test]
    fn fidelity_traffic_matches_wave_model() {
        let traffic = |r: &SimReport| -> Vec<(u64, u64)> {
            r.memories
                .iter()
                .map(|m| (m.bytes_read, m.bytes_written))
                .collect()
        };
        for dataflow in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
            on_grid(dataflow, |point, wave, detailed| {
                assert_eq!(traffic(wave), traffic(detailed), "{point}");
            });
        }
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
}
