//! The systolic-array generator (§VI-B).
//!
//! Emits an EQueue program modelling an `Ah×Aw` systolic array running a
//! convolution under the WS/IS/OS dataflows, mirroring the structure of the
//! paper's C++ generator: a `par_for` over the PE grid, a read stage at the
//! array's SRAM boundary, systolic passing between neighbours, and a write
//! stage back to SRAM (§VI-B-2/3).
//!
//! ## Fidelity
//!
//! The generated model works at *wave* granularity: each fold of the
//! mapped computation becomes, per PE, a one-cycle *skew* event (the
//! diagonal pipeline fill — each PE starts one cycle after its up/left
//! neighbours) followed by a *stream* macro-op covering the fold's steady
//! state. Boundary PEs perform real `equeue.read`/`equeue.write` on the
//! SRAMs through infinite-bandwidth connections so traffic and bandwidth
//! statistics are exact, while interior PEs run an opaque `equeue.op`.
//! This reproduces the analytical per-fold timing
//! `load + S + ru + cu − 1` exactly (see `scalesim`; the bench crate's
//! tests pin the agreement) at a simulation cost of `O(folds · PEs)`
//! events instead of `O(cycles · PEs)`, which keeps the 3,780-point sweep
//! of Fig. 12 affordable.
//!
//! [`SystolicMapping`] is the fold arithmetic; the per-element generator
//! ([`crate::generate_systolic_detailed`]) shares it and nothing else.

use equeue_dialect::{kinds, ConnKind, ConvDims, EqueueBuilder};
use equeue_ir::{Module, OpBuilder, Type, ValueId};
use equeue_passes::Dataflow;
use std::collections::HashMap;

/// Array geometry and dataflow choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystolicSpec {
    /// Array rows (`Ah`).
    pub rows: usize,
    /// Array columns (`Aw`).
    pub cols: usize,
    /// Dataflow.
    pub dataflow: Dataflow,
}

/// How a convolution maps onto the array (§VI-E): `D1 × D2` is cut into
/// folds of at most `rows × cols` PEs, each streaming `stream` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SystolicMapping {
    /// Array geometry and dataflow.
    pub spec: SystolicSpec,
    /// Rows-mapped dimension `D1`.
    pub d1: usize,
    /// Columns-mapped dimension `D2`.
    pub d2: usize,
    /// Streaming length per fold.
    pub stream: usize,
}

impl SystolicMapping {
    /// Maps `dims` onto `spec`'s array under its dataflow.
    ///
    /// # Panics
    ///
    /// Panics if the filter does not fit in the input or the array is empty.
    pub fn new(spec: &SystolicSpec, dims: ConvDims) -> SystolicMapping {
        assert!(spec.rows > 0 && spec.cols > 0, "array must be non-empty");
        assert!(
            dims.fh <= dims.h && dims.fw <= dims.w,
            "filter must fit in the input"
        );
        let (k, e) = (dims.fh * dims.fw * dims.c, dims.eh() * dims.ew());
        let (d1, d2, stream) = match spec.dataflow {
            Dataflow::Ws => (k, dims.n, e),
            Dataflow::Is => (k, e, dims.n),
            Dataflow::Os => (dims.n, k, e),
        };
        SystolicMapping {
            spec: *spec,
            d1,
            d2,
            stream,
        }
    }

    /// Fold counts `(Fr, Fc) = (⌈D1/Ah⌉, ⌈D2/Aw⌉)`.
    pub fn folds(&self) -> (usize, usize) {
        (
            self.d1.div_ceil(self.spec.rows),
            self.d2.div_ceil(self.spec.cols),
        )
    }

    /// PE rows used in row fold `fi` (fewer in the remainder fold).
    pub fn rows_used(&self, fi: usize) -> usize {
        (self.d1 - fi * self.spec.rows).min(self.spec.rows)
    }

    /// PE columns used in column fold `fj` (fewer in the remainder fold).
    pub fn cols_used(&self, fj: usize) -> usize {
        (self.d2 - fj * self.spec.cols).min(self.spec.cols)
    }

    /// Cycles one fold's steady state lasts: `stream`, doubled under OS,
    /// where two operands enter per accumulation.
    pub fn stream_cycles(&self) -> usize {
        match self.spec.dataflow {
            Dataflow::Os => 2 * self.stream,
            Dataflow::Ws | Dataflow::Is => self.stream,
        }
    }

    /// The distinct stationary load sizes `ru·cu`, in fold order (full
    /// folds and remainders).
    pub fn load_sizes(&self) -> Vec<usize> {
        let (fr, fc) = self.folds();
        let mut sizes = vec![];
        for fi in 0..fr {
            for fj in 0..fc {
                let sz = self.rows_used(fi) * self.cols_used(fj);
                if !sizes.contains(&sz) {
                    sizes.push(sz);
                }
            }
        }
        sizes
    }
}

/// The generated program plus its mapping.
#[derive(Debug)]
pub struct SystolicProgram {
    /// The EQueue module, ready to simulate.
    pub module: Module,
    /// The mapping the module was generated from.
    pub mapping: SystolicMapping,
}

impl SystolicProgram {
    /// The paper's loop-iteration count `⌈D1/Ah⌉·⌈D2/Aw⌉` (Fig. 12c–e).
    pub fn loop_iterations(&self) -> usize {
        let (fr, fc) = self.mapping.folds();
        fr * fc
    }
}

/// Generates the systolic-array EQueue program for `spec` × `dims`.
///
/// # Panics
///
/// Panics if the filter does not fit in the input or the array is empty.
///
/// # Examples
///
/// ```
/// use equeue_gen::{generate_systolic, SystolicSpec};
/// use equeue_passes::Dataflow;
/// use equeue_dialect::ConvDims;
/// use equeue_core::simulate;
///
/// let spec = SystolicSpec { rows: 4, cols: 4, dataflow: Dataflow::Ws };
/// let prog = generate_systolic(&spec, ConvDims::square(8, 2, 3, 1));
/// let report = simulate(&prog.module).unwrap();
/// assert!(report.cycles > 0);
/// ```
pub fn generate_systolic(spec: &SystolicSpec, dims: ConvDims) -> SystolicProgram {
    let m = SystolicMapping::new(spec, dims);
    let (fr, fc) = m.folds();
    let stream = m.stream;
    let stream_cycles = m.stream_cycles() as i64;
    let os = spec.dataflow == Dataflow::Os;

    let mut module = Module::new();
    let top = module.top_block();

    // ---- structure specification (§VI-B) --------------------------------
    // The widest fold uses `max_ru × max_cu` PEs.
    let load_sizes = m.load_sizes();
    let max_ru = m.rows_used(0);
    let max_cu = m.cols_used(0);
    // Stationary buffers live on their own SRAM; stream sources on another;
    // ofmap on a third — mirroring the paper's separate ifmap/weight/ofmap
    // SRAM regions (Fig. 8).
    let stationary_capacity: usize = load_sizes.iter().sum::<usize>().max(1);
    let stream_capacity = (max_ru * stream).max(1);
    // Drain sizes: WS/IS stream their outputs continuously (stream
    // elements per column per fold); OS drains the ru accumulated outputs
    // per column after the fold, so remainder folds drain fewer.
    let mut drain_sizes: Vec<usize> = vec![];
    for fi in 0..fr {
        let sz = match spec.dataflow {
            Dataflow::Os => m.rows_used(fi),
            _ => stream,
        };
        if !drain_sizes.contains(&sz) {
            drain_sizes.push(sz);
        }
    }
    let ofmap_capacity = (max_cu * drain_sizes.iter().sum::<usize>().max(1)).max(1);

    let mut b = OpBuilder::at_end(&mut module, top);
    let kernel = b.create_proc(kinds::ARM_R5);
    let stationary_sram = b.create_mem(kinds::SRAM, &[stationary_capacity], 32, spec.cols as u32);
    // One port per row so boundary PEs stream in parallel; single bank so
    // one row's stream is one element per cycle.
    let stream_sram = b
        .op("equeue.create_mem")
        .attr("kind", kinds::SRAM)
        .attr("shape", vec![stream_capacity as i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr("ports", (max_ru + max_cu).max(1) as i64)
        .result(Type::Mem)
        .finish_value();
    let ofmap_sram = b
        .op("equeue.create_mem")
        .attr("kind", kinds::SRAM)
        .attr("shape", vec![ofmap_capacity as i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr("ports", max_cu.max(1) as i64)
        .result(Type::Mem)
        .finish_value();
    let conn_in = b.create_connection(ConnKind::Streaming, 0);
    let conn_out = b.create_connection(ConnKind::Streaming, 0);

    // PE grid + per-column store units.
    let mut pes: Vec<Vec<ValueId>> = vec![];
    for _ in 0..max_ru {
        pes.push((0..max_cu).map(|_| b.create_proc(kinds::MAC)).collect());
    }
    let stores: Vec<ValueId> = (0..max_cu).map(|_| b.create_proc(kinds::GENERIC)).collect();

    // Group everything under one composite, with names, as in Fig. 2.
    {
        let mut names: Vec<String> = ["Kernel", "StationarySRAM", "StreamSRAM", "OfmapSRAM"]
            .map(String::from)
            .into();
        let mut comps = vec![kernel, stationary_sram, stream_sram, ofmap_sram];
        for (i, row) in pes.iter().enumerate() {
            for (j, &pe) in row.iter().enumerate() {
                names.push(format!("PE{i}_{j}"));
                comps.push(pe);
            }
        }
        for (j, &s) in stores.iter().enumerate() {
            names.push(format!("Store{j}"));
            comps.push(s);
        }
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        b.create_comp(&name_refs, comps);
    }

    // Buffers.
    let load_bufs: HashMap<usize, ValueId> = load_sizes
        .iter()
        .map(|&sz| (sz, b.alloc(stationary_sram, &[sz], Type::I32)))
        .collect();
    let row_bufs: Vec<ValueId> = (0..max_ru)
        .map(|_| b.alloc(stream_sram, &[stream.max(1)], Type::I32))
        .collect();
    let mut col_bufs: HashMap<usize, Vec<ValueId>> = HashMap::new();
    for &sz in &drain_sizes {
        let bufs = (0..max_cu)
            .map(|_| b.alloc(ofmap_sram, &[sz.max(1)], Type::I32))
            .collect();
        col_bufs.insert(sz, bufs);
    }

    // ---- control flow: folds of load → skewed stream → drain ------------
    let mut prev_done = b.control_start();
    for fi in 0..fr {
        for fj in 0..fc {
            let ru = m.rows_used(fi);
            let cu = m.cols_used(fj);

            // Stationary load on the kernel processor (WS/IS read the
            // stationary operand from SRAM; OS resets output registers).
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
                    let buf = load_bufs[&(ru * cu)];
                    ib.read(buf, None);
                }
                ib.ret(vec![]);
            }
            b = OpBuilder::at_end(&mut module, top);
            let load_done = load.done;

            // Skewed start: PE(i,j) begins one cycle after its up/left
            // neighbours (pipeline fill), then streams the fold.
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

                    let work = b.launch(skew.done, pes[i][j], &[], vec![]);
                    {
                        let mut ib = OpBuilder::at_end(b.module_mut(), work.body);
                        // Boundary PEs perform the fold's real SRAM streams:
                        // ifmap from the left edge and, under OS, weights
                        // from the top edge, so PE(0,0) reads two …
                        let reads = usize::from(j == 0) + usize::from(os && i == 0);
                        for _ in 0..reads {
                            ib.read(row_bufs[i], Some(conn_in));
                        }
                        // … and an opaque op covers the rest of the fold.
                        let remaining = stream_cycles - (reads * stream.max(1)) as i64;
                        if remaining > 0 {
                            ib.op("equeue.op")
                                .attr("signature", "stream")
                                .attr("cycles", remaining)
                                .finish();
                        }
                        ib.ret(vec![]);
                    }
                    b = OpBuilder::at_end(&mut module, top);
                    work_done.push(work.done);
                }
                skew_done.push(row_done);
            }

            // Per-column drain to the ofmap SRAM. WS/IS stores overlap the
            // stream (the store unit follows PE(ru-1, j)'s pipeline); the
            // OS drain starts when the bottom PE finishes accumulating.
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
                let zero = b
                    .op("arith.constant")
                    .attr("value", 0i64)
                    .result(Type::I32)
                    .finish_value();
                let st = b.launch(dep, store, &[], vec![]);
                {
                    let mut ib = OpBuilder::at_end(b.module_mut(), st.body);
                    ib.write(zero, col_bufs[&drain_sz][j], Some(conn_out));
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
    use equeue_core::simulate;
    use equeue_dialect::standard_registry;
    use equeue_ir::verify_module;

    #[test]
    fn verifies_and_simulates() {
        let spec = SystolicSpec {
            rows: 4,
            cols: 4,
            dataflow: Dataflow::Ws,
        };
        let prog = generate_systolic(&spec, ConvDims::square(8, 2, 3, 1));
        verify_module(&prog.module, &standard_registry()).unwrap();
        let report = simulate(&prog.module).unwrap();
        assert!(report.cycles > 0);
        assert_eq!(prog.mapping.folds(), (3, 1));
        assert_eq!(prog.loop_iterations(), 3);
    }

    #[test]
    fn sram_traffic_counted() {
        let spec = SystolicSpec {
            rows: 4,
            cols: 4,
            dataflow: Dataflow::Ws,
        };
        let dims = ConvDims::square(8, 2, 3, 1);
        let prog = generate_systolic(&spec, dims);
        let report = simulate(&prog.module).unwrap();
        // Weight reads: sum over folds of ru*cu*4 bytes.
        let weight_bytes: u64 = report
            .memories
            .iter()
            .filter(|m| m.name == "StationarySRAM")
            .map(|m| m.bytes_read)
            .sum();
        // K=12 → folds of ru=4,4,4 with cu=1: 12 elems * 4 B.
        assert_eq!(weight_bytes, 48);
        // Ofmap writes: E*cu per fold = 49*1*3 folds * 4 B.
        let ofmap = report.memory_named("OfmapSRAM").unwrap();
        assert_eq!(ofmap.bytes_written, (49 * 3 * 4) as u64);
        // Connections saw the same traffic with stats.
        assert_eq!(report.connections.len(), 2);
        assert!(report.connections[1].write.bytes > 0);
    }

    #[test]
    fn bigger_arrays_cut_cycles() {
        let dims = ConvDims::square(12, 3, 4, 8); // K = 36
        let small = SystolicSpec {
            rows: 2,
            cols: 2,
            dataflow: Dataflow::Ws,
        };
        let big = SystolicSpec {
            rows: 8,
            cols: 8,
            dataflow: Dataflow::Ws,
        };
        let cs = simulate(&generate_systolic(&small, dims).module)
            .unwrap()
            .cycles;
        let cb = simulate(&generate_systolic(&big, dims).module)
            .unwrap()
            .cycles;
        assert!(cb < cs, "big {cb} small {cs}");
    }
}
