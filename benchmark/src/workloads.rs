//! The four workloads: how each builds its inputs from the seed, what one
//! item does, and the independent oracle that checks it.
//!
//! Every workload is a closed loop: the next item starts when the previous
//! one (on that worker) has finished. Inputs are built once per set-up.
//! The seed picks them without changing how much work a round of items
//! does, beyond the width of one `dse_sweep` size stratum, so runs under
//! different seeds measure the same amount of work (see README.md,
//! "Seeds").

use crate::stats::Rng;
use crate::trace::Spans;
use equeue_core::{CompiledModule, SimLibrary, SimOptions, SimReport};
use equeue_dialect::{standard_registry, ConvDims};
use equeue_gen::{
    fir_reference, generate_fir, generate_systolic, scenarios, FirCase, FirSpec, SystolicSpec,
};
use equeue_ir::{parse_module, print_module, verify_module, DialectRegistry, Module, PassManager};
use equeue_passes::{
    AllocateMemory, ConvertLinalgToAffineLoops, Dataflow, EqueueReadWrite, WrapInLaunch,
};
use std::fmt::Display;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DseSweep,
    ResimSystolic,
    KernelFused,
    DesignIteration,
}

/// Grid points per stratum of the `dse_sweep` sample: each dataflow's 1260
/// points fall into 210 strata, one point drawn from each.
const STRATUM: usize = 6;

/// The `resim_systolic` point (Ah 8, H=W 16, F 4, C 4, N 8): its IS run
/// makes ~59k scheduler wakes, its WS and OS runs ~3k.
const RESIM_POINT: (usize, usize, usize, usize, usize) = (8, 16, 4, 4, 8);

/// `kernel_fused` matrix sizes. An odd count puts the median item in the
/// middle size rather than on the boundary between two sizes.
const KERNEL_SIZES: [usize; 5] = [40, 48, 56, 64, 72];

/// `design_iteration` conv classes: `(H=W, F, C·N)`. All (C, N) splits of
/// a class have the same MAC count, and the seed picks one split per class.
const CONV_CLASSES: [(usize, usize, usize); 5] =
    [(4, 2, 2), (6, 2, 4), (8, 3, 4), (8, 3, 6), (10, 3, 6)];

/// Set-up runs this many items before timing starts.
const WARMUPS: usize = 3;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DseSweep,
        Workload::ResimSystolic,
        Workload::KernelFused,
        Workload::DesignIteration,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DseSweep => "dse_sweep",
            Workload::ResimSystolic => "resim_systolic",
            Workload::KernelFused => "kernel_fused",
            Workload::DesignIteration => "design_iteration",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Item-level workers: the sweep shares its points across the pool,
    /// every other workload runs on the calling thread.
    pub fn workers(self) -> usize {
        match self {
            Workload::DseSweep => 2,
            _ => 1,
        }
    }

    /// Builds the seeded inputs, compiling what is compiled once. Layer
    /// calls are recorded in `spans`.
    pub fn prepare(self, seed: u64, spans: &mut Spans) -> Result<Prepared, String> {
        let mut rng = Rng::new(seed);
        Ok(match self {
            Workload::DseSweep => Prepared::Sweep {
                points: sweep_sample(&mut rng),
            },
            Workload::ResimSystolic => {
                let (ah, hw, f, c, n) = RESIM_POINT;
                let dims = ConvDims::square(hw, f, c, n);
                let mut variants = vec![];
                for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
                    let point = GridPoint { ah, dims, df };
                    let prog = spans.time("gen", || generate_systolic(&point.spec(), dims));
                    let reference = spans.time("scalesim", || point.scale_sim());
                    variants.push(Resident {
                        compiled: compile(spans, prog.module)?,
                        oracle: Oracle::Within(reference, 0.05),
                        fused_entries: None,
                    });
                }
                Prepared::Resident { variants }
            }
            Workload::KernelFused => {
                let mut variants = vec![];
                for n in KERNEL_SIZES {
                    let module = spans.time("gen", || scenarios::matmul_affine(n));
                    let n = n as u64;
                    variants.push(Resident {
                        compiled: compile(spans, module)?,
                        // Six one-cycle ops per multiply-accumulate.
                        oracle: Oracle::Exact(6 * n * n * n),
                        // The innermost loop is entered once per (i, j).
                        fused_entries: Some(n * n),
                    });
                }
                Prepared::Resident { variants }
            }
            Workload::DesignIteration => {
                let mut texts: Vec<TextInput> = CONV_CLASSES
                    .iter()
                    .map(|&(hw, f, cn)| {
                        let splits: Vec<usize> = (1..=cn).filter(|c| cn % c == 0).collect();
                        let c = splits[rng.below(splits.len())];
                        conv_input(ConvDims::square(hw, f, c, cn / c))
                    })
                    .collect();
                for case in FirCase::all() {
                    let prog = spans.time("gen", || generate_fir(FirSpec::default(), case));
                    let text = spans.time("ir.print", || print_module(&prog.module));
                    texts.push(TextInput {
                        text,
                        oracle: fir_oracle(case),
                    });
                }
                Prepared::Texts {
                    registry: standard_registry(),
                    texts,
                }
            }
        })
    }
}

/// Compiles against a fresh standard library, as `compile_standard` does.
fn compile(spans: &mut Spans, module: Module) -> Result<CompiledModule, String> {
    spans
        .time("core.compile", || {
            CompiledModule::compile(module, SimLibrary::standard())
        })
        .map_err(|e| e.to_string())
}

/// The simulator counters of one run; identical on every run of one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub cycles: u64,
    pub events: u64,
    pub ops: u64,
    pub spawned: u64,
    pub fused_entries: u64,
    pub peak_tensor_bytes: u64,
}

impl Counters {
    fn of(r: &SimReport) -> Self {
        Counters {
            cycles: r.cycles,
            events: r.events_processed,
            ops: r.ops_interpreted,
            spawned: r.events_spawned,
            fused_entries: r.fused_trace_entries,
            peak_tensor_bytes: r.peak_live_tensor_bytes,
        }
    }
}

/// What one item produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub counters: Option<Counters>,
    /// Why the item failed: an error from the program or a failed check.
    pub error: Option<String>,
    /// |simulated − reference| / reference, for items with an oracle.
    pub cycle_err: Option<f64>,
    /// Bytes of the profiling summary plus Chrome trace JSON exported.
    pub report_bytes: usize,
}

impl Outcome {
    fn failed(e: impl Display) -> Self {
        Outcome {
            error: Some(e.to_string()),
            ..Default::default()
        }
    }

    fn checked(counters: Counters, oracle: Oracle) -> Self {
        let (err, problem) = oracle.check(counters.cycles);
        Outcome {
            counters: Some(counters),
            error: problem,
            cycle_err: Some(err),
            report_bytes: 0,
        }
    }
}

/// An independent reference for an item's simulated cycles.
#[derive(Debug, Clone, Copy)]
pub enum Oracle {
    Exact(u64),
    /// Within a relative tolerance of the reference.
    Within(u64, f64),
}

impl Oracle {
    /// The relative error and, if the check fails, why.
    pub fn check(self, cycles: u64) -> (f64, Option<String>) {
        let (reference, tol) = match self {
            Oracle::Exact(r) => (r, 0.0),
            Oracle::Within(r, tol) => (r, tol),
        };
        let err = cycles.abs_diff(reference) as f64 / reference.max(1) as f64;
        let bad = if tol == 0.0 {
            cycles != reference
        } else {
            err > tol
        };
        let why = || format!("{cycles} cycles vs reference {reference} (tolerance {tol})");
        (err, bad.then(why))
    }
}

/// A workload's inputs after set-up.
pub enum Prepared {
    /// `dse_sweep`: grid points, generated and compiled per item.
    Sweep { points: Vec<GridPoint> },
    /// `resim_systolic`, `kernel_fused`: modules compiled once.
    Resident { variants: Vec<Resident> },
    /// `design_iteration`: IR texts.
    Texts {
        registry: DialectRegistry,
        texts: Vec<TextInput>,
    },
}

pub struct Resident {
    compiled: CompiledModule,
    oracle: Oracle,
    fused_entries: Option<u64>,
}

pub struct TextInput {
    text: String,
    oracle: Oracle,
}

impl Prepared {
    /// Distinct inputs; a round runs each once.
    pub fn inputs(&self) -> usize {
        match self {
            Prepared::Sweep { points, .. } => points.len(),
            Prepared::Resident { variants } => variants.len(),
            Prepared::Texts { texts, .. } => texts.len(),
        }
    }

    /// The inputs set-up runs before timing starts: the first [`WARMUPS`],
    /// or the sweep's smallest points, whose cost does not depend on the
    /// seed.
    pub fn warmups(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.inputs()).collect();
        if let Prepared::Sweep { points } = self {
            order.sort_by_key(|&i| points[i].size());
        }
        order.truncate(WARMUPS);
        order
    }

    /// Runs one item on input `i` and checks it.
    pub fn run(&self, i: usize, spans: &mut Spans) -> Outcome {
        match self {
            Prepared::Sweep { points } => sweep_item(&points[i], spans),
            Prepared::Resident { variants } => resident_item(&variants[i], spans),
            Prepared::Texts { registry, texts } => text_item(&texts[i], registry, spans),
        }
    }
}

// ---------------------------------------------------------------------------
// dse_sweep
// ---------------------------------------------------------------------------

/// One Fig. 12 design point: an `Ah × 64/Ah` array on a conv shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    pub ah: usize,
    pub dims: ConvDims,
    pub df: Dataflow,
}

impl GridPoint {
    fn spec(&self) -> SystolicSpec {
        SystolicSpec {
            rows: self.ah,
            cols: 64 / self.ah,
            dataflow: self.df,
        }
    }

    fn scale_sim(&self) -> u64 {
        scalesim::scale_sim(
            scalesim::ArrayShape {
                rows: self.ah,
                cols: 64 / self.ah,
            },
            equeue_bench::to_conv_shape(self.dims),
            equeue_bench::to_scalesim(self.df),
        )
        .cycles
    }

    /// The point's size, a deterministic stand-in for its cost: summed
    /// over folds, the `2·ru·cu + cu + 1` launches a systolic program
    /// issues per fold (load, skew + work per used PE, a store per column).
    pub fn size(&self) -> usize {
        let (rows, cols) = (self.ah, 64 / self.ah);
        let m = scalesim::mapping(
            equeue_bench::to_conv_shape(self.dims),
            equeue_bench::to_scalesim(self.df),
        );
        let used = |dim: usize, avail: usize, idx: usize| (dim - idx * avail).min(avail);
        let mut size = 0;
        for fi in 0..m.d1.div_ceil(rows) {
            let ru = used(m.d1, rows, fi);
            for fj in 0..m.d2.div_ceil(cols) {
                let cu = used(m.d2, cols, fj);
                size += 2 * ru * cu + cu + 1;
            }
        }
        size
    }
}

/// A stratified sample of the full 3780-point Fig. 12 grid: per dataflow,
/// points are ordered by [`GridPoint::size`] and cut into strata of
/// [`STRATUM`], and one point is drawn from each. Every seed gets the same
/// dataflow mix and nearly the same cost profile. The sample runs in grid
/// order, as the Fig. 12 driver sweeps.
pub fn sweep_sample(rng: &mut Rng) -> Vec<GridPoint> {
    let grid: Vec<GridPoint> = equeue_bench::fig12_configs(true)
        .into_iter()
        .map(|(ah, hw, f, c, n, df)| GridPoint {
            ah,
            dims: ConvDims::square(hw, f, c, n),
            df,
        })
        .collect();
    let mut picked = vec![];
    for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
        let mut order: Vec<(usize, usize)> = grid
            .iter()
            .enumerate()
            .filter(|(_, p)| p.df == df)
            .map(|(i, p)| (p.size(), i))
            .collect();
        order.sort_unstable();
        for stratum in order.chunks(STRATUM) {
            picked.push(stratum[rng.below(stratum.len())].1);
        }
    }
    picked.sort_unstable();
    picked.into_iter().map(|i| grid[i]).collect()
}

fn sweep_item(p: &GridPoint, spans: &mut Spans) -> Outcome {
    let prog = spans.time("gen", || generate_systolic(&p.spec(), p.dims));
    let compiled = match compile(spans, prog.module) {
        Ok(c) => c,
        Err(e) => return Outcome::failed(e),
    };
    let report = match spans.time("core.run", || compiled.simulate(&quiet())) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(e),
    };
    let reference = spans.time("scalesim", || p.scale_sim());
    let counters = Counters::of(&report);
    spans.time("core.teardown", || drop((report, compiled)));
    Outcome::checked(counters, Oracle::Within(reference, 0.05))
}

fn quiet() -> SimOptions {
    SimOptions {
        trace: false,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// resim_systolic, kernel_fused
// ---------------------------------------------------------------------------

fn resident_item(v: &Resident, spans: &mut Spans) -> Outcome {
    let report = match spans.time("core.run", || v.compiled.simulate(&quiet())) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(e),
    };
    let counters = Counters::of(&report);
    spans.time("core.teardown", || drop(report));
    let mut out = Outcome::checked(counters, v.oracle);
    if let Some(want) = v.fused_entries.filter(|&w| w != counters.fused_entries) {
        out.error.get_or_insert(format!(
            "{} fused-trace entries, expected {want}",
            counters.fused_entries
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// design_iteration
// ---------------------------------------------------------------------------

/// A conv module in the textual form the `equeue-opt` verify recipe uses:
/// one SRAM, one processor, and a `linalg.conv2d` on `memref.alloc`s.
fn conv_input(d: ConvDims) -> TextInput {
    let (c, hw, f, n, e) = (d.c, d.h, d.fh, d.n, d.eh());
    let ifmap = format!("memref<{c}x{hw}x{hw}xi32>");
    let weights = format!("memref<{n}x{c}x{f}x{f}xi32>");
    let ofmap = format!("memref<{n}x{e}x{e}xi32>");
    let capacity = c * hw * hw + n * c * f * f + n * e * e;
    let text = format!(
        "%mem = \"equeue.create_mem\"() {{banks = 4, data_bits = 32, kind = \"SRAM\", shape = [{capacity}]}} : () -> !equeue.mem\n\
         %proc = \"equeue.create_proc\"() {{kind = \"ARMr5\"}} : () -> !equeue.proc\n\
         %i = \"memref.alloc\"() : () -> {ifmap}\n\
         %w = \"memref.alloc\"() : () -> {weights}\n\
         %o = \"memref.alloc\"() : () -> {ofmap}\n\
         \"linalg.conv2d\"(%i, %w, %o) : ({ifmap}, {weights}, {ofmap}) -> ()\n"
    );
    let macs = (n * e * e * c * f * f) as u64;
    TextInput {
        text,
        // Lowered to affine loops, each MAC is three loads, a multiply, an
        // add and a store on the one processor: six cycles.
        oracle: Oracle::Exact(6 * macs),
    }
}

/// The paper's cycle counts: exact for FIR cases 1–3, within 1% for case 4.
fn fir_oracle(case: FirCase) -> Oracle {
    match case {
        FirCase::SingleCore => Oracle::Exact(fir_reference::PAPER_CASE1),
        FirCase::Pipelined16 => Oracle::Exact(fir_reference::PAPER_CASE2),
        FirCase::Bandwidth16 => Oracle::Exact(fir_reference::PAPER_CASE3),
        FirCase::Balanced4 => Oracle::Within(fir_reference::PAPER_CASE4, 0.01),
    }
}

/// The `equeue-opt` lowering pipeline: buffers on the first memory, loops,
/// reads/writes, and a launch on the first processor.
fn lower(module: &mut Module) -> Result<(), String> {
    let first = |op: &str| {
        module
            .find_first(op)
            .map(|id| module.result(id, 0))
            .ok_or(format!("no '{op}' in the module"))
    };
    let (mem, proc) = (first("equeue.create_mem")?, first("equeue.create_proc")?);
    let mut pm = PassManager::new(standard_registry());
    pm.add(AllocateMemory::new(mem))
        .add(ConvertLinalgToAffineLoops)
        .add(EqueueReadWrite)
        .add(WrapInLaunch::new(proc));
    pm.run(module).map(drop).map_err(|e| e.to_string())
}

fn text_item(t: &TextInput, registry: &DialectRegistry, spans: &mut Spans) -> Outcome {
    let mut module = match spans.time("ir.parse", || parse_module(&t.text)) {
        Ok(m) => m,
        Err(e) => return Outcome::failed(e),
    };
    if let Err(e) = spans.time("passes", || lower(&mut module)) {
        return Outcome::failed(e);
    }
    if let Err(e) = spans.time("ir.verify", || verify_module(&module, registry)) {
        return Outcome::failed(e);
    }
    let compiled = match compile(spans, module) {
        Ok(c) => c,
        Err(e) => return Outcome::failed(e),
    };
    let traced = SimOptions {
        trace: true,
        ..Default::default()
    };
    let report = match spans.time("core.run", || compiled.simulate(&traced)) {
        Ok(r) => r,
        Err(e) => return Outcome::failed(e),
    };
    let (summary, chrome) = spans.time("core.report", || {
        (report.summary(), report.trace.to_chrome_json())
    });
    let counters = Counters::of(&report);
    let exported = !report.trace.is_empty()
        && chrome.starts_with('[')
        && chrome.trim_end().ends_with(']')
        && summary.contains(&format!(": {} cycles", counters.cycles));
    let report_bytes = summary.len() + chrome.len();
    spans.time("core.teardown", || {
        drop((chrome, summary, report, compiled))
    });
    let mut out = Outcome::checked(counters, t.oracle);
    out.report_bytes = report_bytes;
    if !exported {
        out.error
            .get_or_insert("malformed summary or Chrome trace".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sample_is_seeded_and_stratified() {
        let a = sweep_sample(&mut Rng::new(0));
        assert_eq!(a, sweep_sample(&mut Rng::new(0)));
        assert_ne!(a, sweep_sample(&mut Rng::new(1)));
        assert_eq!(a.len(), 3780 / STRATUM);
        for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
            assert_eq!(a.iter().filter(|p| p.df == df).count(), 1260 / STRATUM);
        }
    }

    #[test]
    fn design_texts_are_seeded() {
        let texts = |seed| match Workload::DesignIteration.prepare(seed, &mut Spans::new(false)) {
            Ok(Prepared::Texts { texts, .. }) => {
                texts.into_iter().map(|t| t.text).collect::<Vec<_>>()
            }
            _ => panic!("design_iteration prepares texts"),
        };
        let (a, b) = (texts(0), texts(0));
        assert_eq!(a, b);
        assert_ne!(a, texts(1));
    }

    #[test]
    fn conv_oracle_matches_the_verify_recipe() {
        // The 4x4 input, 2x2 filter recipe simulates to 216 cycles.
        let t = conv_input(ConvDims::square(4, 2, 1, 1));
        assert!(matches!(t.oracle, Oracle::Exact(216)));
        let out = text_item(&t, &standard_registry(), &mut Spans::new(false));
        assert_eq!(out.error, None);
        assert_eq!(out.counters.map(|c| c.cycles), Some(216));
    }

    #[test]
    fn oracles_flag_perturbed_cycles() {
        assert_eq!(Oracle::Exact(216).check(216).1, None);
        assert!(Oracle::Exact(216).check(217).1.is_some());
        assert_eq!(Oracle::Within(1000, 0.05).check(1049).1, None);
        assert!(Oracle::Within(1000, 0.05).check(1051).1.is_some());
        assert!(fir_oracle(FirCase::Balanced4).check(540).1.is_none());
        assert!(fir_oracle(FirCase::Balanced4).check(546).1.is_some());
        assert!(fir_oracle(FirCase::Pipelined16).check(144).1.is_some());
    }
}
