//! The Versal ACAP AI Engine FIR case study (§VII).
//!
//! Reproduces the four design iterations of the paper's Xilinx AI Engine
//! FIR filter (32 complex asymmetric taps, 512 samples, 32-bit values):
//!
//! 1. **Case 1** — a single AI Engine using `mul4`/`mac4` intrinsics
//!    (8 MACs/cycle): analytically 16 cycles per 4 outputs → **2048**
//!    cycles (Xilinx's own simulator reports 2276, the difference being
//!    loop-control and synchronisation overheads EQueue does not model).
//! 2. **Case 2** — 16 cores pipelined with unlimited interconnect:
//!    15 cycles of warm-up plus 128 groups → **143** cycles.
//! 3. **Case 3** — 16 cores behind 32-bit AXI4-Stream connections
//!    (4 bytes/cycle): each stage stalls 3 of every 4 cycles; warm-up
//!    5·16−1 = 79 and **588** total.
//! 4. **Case 4** — 4 cores × 4 `mac4`s, balanced against the stream:
//!    no steady-state stalls, ≈538 cycles (Xilinx reports 539).
//!
//! The inter-core streams are modelled faithfully as EQueue constructs:
//! a DMA (`stream switch`) per hop moving 4-sample groups through a
//! `Streaming` connection, with the consuming core's `mac4` launches
//! depending on the arrival events.

use equeue_dialect::{kinds, ConnKind, EqueueBuilder};
use equeue_ir::{Module, OpBuilder, Type, ValueId};

/// Published reference cycle counts used for comparison in EXPERIMENTS.md.
pub mod reference {
    /// Xilinx AIE simulator, 1-core FIR (§VII-C).
    pub const XILINX_CASE1: u64 = 2276;
    /// Xilinx AIE simulator, 4-core FIR (§VII-F).
    pub const XILINX_CASE4: u64 = 539;
    /// Paper's EQueue result, case 1.
    pub const PAPER_CASE1: u64 = 2048;
    /// Paper's EQueue result, case 2.
    pub const PAPER_CASE2: u64 = 143;
    /// Paper's EQueue result, case 3 (79 cycles of warm-up).
    pub const PAPER_CASE3: u64 = 588;
    /// Paper's EQueue result, case 4 (26 cycles of warm-up).
    pub const PAPER_CASE4: u64 = 538;
}

/// FIR workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FirSpec {
    /// Filter length in taps (32 in the tutorial).
    pub taps: usize,
    /// Number of input samples (512 in the tutorial).
    pub samples: usize,
}

impl Default for FirSpec {
    fn default() -> Self {
        FirSpec {
            taps: 32,
            samples: 512,
        }
    }
}

impl FirSpec {
    /// Output groups of 4 samples each.
    pub fn groups(&self) -> usize {
        self.samples / 4
    }

    /// `mul4`/`mac4` ops per group: `taps/2` (each op retires 8 MACs, a
    /// group needs `4·taps`).
    pub fn ops_per_group(&self) -> usize {
        self.taps / 2
    }
}

/// The four design iterations of §VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FirCase {
    /// One AI Engine, unlimited resources (§VII-C).
    SingleCore,
    /// 16 cores, unlimited bandwidth (§VII-D).
    Pipelined16,
    /// 16 cores, 32-bit stream interconnect (§VII-E).
    Bandwidth16,
    /// 4 cores balanced against the stream (§VII-F).
    Balanced4,
}

impl FirCase {
    /// Core count for the case.
    pub fn cores(self) -> usize {
        match self {
            FirCase::SingleCore => 1,
            FirCase::Pipelined16 | FirCase::Bandwidth16 => 16,
            FirCase::Balanced4 => 4,
        }
    }

    /// Stream bandwidth in bytes/cycle (`None` = unlimited).
    pub fn stream_bandwidth(self) -> Option<u32> {
        match self {
            FirCase::SingleCore | FirCase::Pipelined16 => None,
            FirCase::Bandwidth16 | FirCase::Balanced4 => Some(4),
        }
    }

    /// All four cases in paper order.
    pub fn all() -> [FirCase; 4] {
        [
            FirCase::SingleCore,
            FirCase::Pipelined16,
            FirCase::Bandwidth16,
            FirCase::Balanced4,
        ]
    }

    /// Display name.
    pub fn as_str(self) -> &'static str {
        match self {
            FirCase::SingleCore => "case1-single-core",
            FirCase::Pipelined16 => "case2-16-cores-unlimited",
            FirCase::Bandwidth16 => "case3-16-cores-32bit",
            FirCase::Balanced4 => "case4-4-cores-balanced",
        }
    }
}

/// A generated FIR program.
#[derive(Debug)]
pub struct FirProgram {
    /// The EQueue module.
    pub module: Module,
    /// Which case it models.
    pub case: FirCase,
    /// The workload.
    pub spec: FirSpec,
}

/// Generates the EQueue program for one FIR case.
///
/// # Panics
///
/// Panics if `taps` is not a positive multiple of `2·cores` or `samples`
/// is not a positive multiple of 4.
///
/// # Examples
///
/// ```
/// use equeue_gen::{generate_fir, FirCase, FirSpec};
/// use equeue_core::simulate;
/// let prog = generate_fir(FirSpec::default(), FirCase::SingleCore);
/// assert_eq!(simulate(&prog.module).unwrap().cycles, 2048);
/// ```
pub fn generate_fir(spec: FirSpec, case: FirCase) -> FirProgram {
    assert!(
        spec.samples > 0 && spec.samples.is_multiple_of(4),
        "samples must be a positive multiple of 4"
    );
    let cores = case.cores();
    assert!(
        spec.ops_per_group().is_multiple_of(cores) && spec.ops_per_group() > 0,
        "taps/2 must divide evenly across cores"
    );
    let module = match case {
        FirCase::SingleCore => single_core(spec),
        _ => pipelined(spec, cores, case.stream_bandwidth()),
    };
    FirProgram { module, case, spec }
}

/// §VII-C: one core executing the whole 16-op group schedule in a loop.
fn single_core(spec: FirSpec) -> Module {
    use equeue_dialect::AffineBuilder;
    let mut module = Module::new();
    let top = module.top_block();
    let mut b = OpBuilder::at_end(&mut module, top);
    let aie = b.create_proc(kinds::AI_ENGINE);
    let regs = b.create_mem(kinds::REGISTER, &[16], 32, 1);
    let sin = b.alloc(regs, &[4], Type::I32);
    let ifmap = b.alloc(regs, &[4], Type::I32);
    let ofmap = b.alloc(regs, &[4], Type::I32);
    let sout = b.alloc(regs, &[4], Type::I32);
    b.create_comp(&["AIE0", "Registers"], vec![aie, regs]);

    let start = b.control_start();
    let launch = b.launch(start, aie, &[], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), launch.body);
        let (_, body, _g) = ib.affine_for(0, spec.groups() as i64, 1);
        {
            let mut lb = OpBuilder::at_end(ib.module_mut(), body);
            // The paper's single-core schedule: mul4, 11×mac4, refill the
            // ifmap registers, 4×mac4, emit the outputs (§VII-C listing).
            lb.ext_op("mul4", vec![], vec![]);
            for _ in 0..(spec.ops_per_group() - 5) {
                lb.ext_op("mac4", vec![], vec![]);
            }
            let ifmap_tensor = lb.read(sin, None);
            lb.write(ifmap_tensor, ifmap, None);
            for _ in 0..4 {
                lb.ext_op("mac4", vec![], vec![]);
            }
            let ofmap_tensor = lb.read(ofmap, None);
            lb.write(ofmap_tensor, sout, None);
            lb.affine_yield();
        }
        let mut ib = OpBuilder::at_end(&mut module, launch.body);
        ib.ret(vec![]);
    }
    let done = launch.done;
    let mut b = OpBuilder::at_end(&mut module, top);
    b.await_all(vec![done]);
    module
}

/// §VII-D/E/F: a core pipeline with a DMA stream switch per hop.
fn pipelined(spec: FirSpec, cores: usize, bandwidth: Option<u32>) -> Module {
    let mut module = Module::new();
    let top = module.top_block();
    let groups = spec.groups();
    let ops_per_core = spec.ops_per_group() / cores;

    let mut b = OpBuilder::at_end(&mut module, top);
    let aies: Vec<ValueId> = (0..cores)
        .map(|_| b.create_proc(kinds::AI_ENGINE))
        .collect();
    let dmas: Vec<ValueId> = (0..cores).map(|_| b.create_dma()).collect();
    let conns: Vec<ValueId> = (0..cores)
        .map(|_| b.create_connection(ConnKind::Streaming, bandwidth.unwrap_or(0)))
        .collect();
    // One register file per core holding the 4-sample group, plus the
    // external source buffer.
    let regs = b.create_mem(kinds::REGISTER, &[4 * (cores + 1)], 32, 1);
    let sin = b.alloc(regs, &[4], Type::I32);
    let stage_bufs: Vec<ValueId> = (0..cores).map(|_| b.alloc(regs, &[4], Type::I32)).collect();
    {
        let mut names: Vec<String> = vec!["Registers".into()];
        let mut comps = vec![regs];
        for (k, &a) in aies.iter().enumerate() {
            names.push(format!("AIE{k}"));
            comps.push(a);
        }
        for (k, &d) in dmas.iter().enumerate() {
            names.push(format!("Stream{k}"));
            comps.push(d);
        }
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        b.create_comp(&name_refs, comps);
    }

    let start = b.control_start();
    // compute_done[k] for the previous group, per stage.
    let mut prev_compute: Vec<Option<ValueId>> = vec![None; cores];
    let mut final_done = start;
    for _g in 0..groups {
        for k in 0..cores {
            // Arrival of this group's data at stage k via its stream.
            let dep = if k == 0 {
                start
            } else {
                match prev_compute[k - 1] {
                    Some(v) => v,
                    None => unreachable!("stage k-1 computed this group already"),
                }
            };
            let src = if k == 0 { sin } else { stage_bufs[k - 1] };
            let arrived = b.memcpy(dep, src, stage_bufs[k], dmas[k], Some(conns[k]));
            // Compute: this stage's share of the group's mac4 schedule.
            let compute = b.launch(arrived, aies[k], &[], vec![]);
            {
                let mut ib = OpBuilder::at_end(b.module_mut(), compute.body);
                for _ in 0..ops_per_core {
                    ib.ext_op("mac4", vec![], vec![]);
                }
                ib.ret(vec![]);
            }
            b = OpBuilder::at_end(&mut module, top);
            prev_compute[k] = Some(compute.done);
            if k == cores - 1 {
                final_done = compute.done;
            }
        }
    }
    b.await_all(vec![final_done]);
    module
}

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_core::{simulate, simulate_with, SimLibrary, SimOptions};
    use equeue_dialect::standard_registry;
    use equeue_ir::verify_module;

    /// Simulates `m` with tracing on, for the tests that read the trace.
    fn traced(m: &Module) -> equeue_core::SimReport {
        let opts = SimOptions {
            trace: true,
            ..Default::default()
        };
        simulate_with(m, &SimLibrary::standard(), &opts).unwrap()
    }

    #[test]
    fn case1_is_2048_cycles() {
        let prog = generate_fir(FirSpec::default(), FirCase::SingleCore);
        verify_module(&prog.module, &standard_registry()).unwrap();
        let report = simulate(&prog.module).unwrap();
        assert_eq!(report.cycles, reference::PAPER_CASE1);
    }

    #[test]
    fn case2_is_143_cycles() {
        let prog = generate_fir(FirSpec::default(), FirCase::Pipelined16);
        verify_module(&prog.module, &standard_registry()).unwrap();
        let report = simulate(&prog.module).unwrap();
        assert_eq!(report.cycles, reference::PAPER_CASE2);
    }

    #[test]
    fn case3_is_588_cycles_with_79_warmup() {
        let prog = generate_fir(FirSpec::default(), FirCase::Bandwidth16);
        let report = traced(&prog.module);
        assert_eq!(report.cycles, reference::PAPER_CASE3);
        // Warm-up: the last stage's first mac4 fires at cycle 79 (§VII-E).
        let first_last_stage = report
            .trace
            .events()
            .filter(|e| e.tid() == "AIE15" && e.name() == "mac4")
            .map(|e| e.ts())
            .min()
            .unwrap();
        assert_eq!(first_last_stage, 79);
    }

    #[test]
    fn case3_stalls_three_of_four_cycles() {
        // §VII-E: each processor computes 1 cycle then idles 3 while the
        // 32-bit stream delivers the next group — 75% of compute wasted.
        let prog = generate_fir(FirSpec::default(), FirCase::Bandwidth16);
        let report = traced(&prog.module);
        let busy: u64 = report
            .trace
            .events()
            .filter(|e| e.tid() == "AIE7")
            .map(|e| e.dur())
            .sum();
        let util = busy as f64 / report.cycles as f64;
        assert!(util < 0.30, "expected <30% utilisation, got {util}");
    }

    #[test]
    fn case4_is_near_538_cycles() {
        let prog = generate_fir(FirSpec::default(), FirCase::Balanced4);
        let report = traced(&prog.module);
        let err = (report.cycles as f64 - reference::PAPER_CASE4 as f64).abs()
            / reference::PAPER_CASE4 as f64;
        assert!(
            err < 0.01,
            "got {} vs paper {}",
            report.cycles,
            reference::PAPER_CASE4
        );
        // Balanced: the middle cores are fully busy in steady state.
        let busy: u64 = report
            .trace
            .events()
            .filter(|e| e.tid() == "AIE1")
            .map(|e| e.dur())
            .sum();
        let util = busy as f64 / report.cycles as f64;
        assert!(util > 0.90, "expected >90% utilisation, got {util}");
    }

    #[test]
    fn cases_expose_metadata() {
        assert_eq!(FirCase::SingleCore.cores(), 1);
        assert_eq!(FirCase::Balanced4.cores(), 4);
        assert_eq!(FirCase::Bandwidth16.stream_bandwidth(), Some(4));
        assert_eq!(FirCase::Pipelined16.stream_bandwidth(), None);
        assert_eq!(FirCase::all().len(), 4);
        let spec = FirSpec::default();
        assert_eq!(spec.groups(), 128);
        assert_eq!(spec.ops_per_group(), 16);
    }

    #[test]
    fn smaller_workloads_scale() {
        let spec = FirSpec {
            taps: 16,
            samples: 64,
        };
        let prog = generate_fir(spec, FirCase::SingleCore);
        // 16 groups × 8 ops.
        assert_eq!(simulate(&prog.module).unwrap().cycles, 128);
    }

    #[test]
    fn trace_disabled_still_counts_cycles() {
        let prog = generate_fir(FirSpec::default(), FirCase::Bandwidth16);
        let lib = SimLibrary::standard();
        let report = simulate_with(
            &prog.module,
            &lib,
            &SimOptions {
                trace: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(report.cycles, reference::PAPER_CASE3);
        assert!(report.trace.is_empty());
    }
}
