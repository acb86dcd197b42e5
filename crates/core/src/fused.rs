//! Fused threaded-code loop traces (the [`crate::SimOptions::backend`]
//! `Fused` backend).
//!
//! The interpreter's inner loop pays an enum dispatch, slot lookups through
//! `Option<SimValue>`, and scheduler bookkeeping for every op of every loop
//! iteration — even though an `affine.for` body is a *static* op sequence
//! whose operand slots, cycle costs, and constants never change across
//! iterations. This module compiles such bodies once, at [`Plan::build`]
//! time, into flat instruction tables ([`FusedLoop`]) whose operands are
//! pre-resolved virtual-register indices into a dense `i64` bank. The trace
//! runner ([`Engine::run_fused`]) then executes whole loop nests without
//! touching the frame environment or the event heap, consulting the event
//! engine only at *trace exits*:
//!
//! * **contention** — a timed instruction's finish time reaches another
//!   pending event, so the scheduler must interleave (mirrors the
//!   interpreter's contended-yield path, which never counts a wake);
//! * **completion** — the loop's trip count is exhausted;
//! * **limits** — the event/cycle budgets and the epoch-cadence
//!   cancellation/wall-clock polls, evaluated on exactly the same counter
//!   values (and in the same order) as the interpreter's checks.
//!
//! Counter identity is the contract: `wakes`, `ops_interpreted`,
//! `idle_steps`, per-processor clocks, the horizon, and every memory traffic
//! counter advance bit-identically to the interpreter — enforced by the
//! `fused_differential` test suite and the CI drift guard.
//!
//! **Trace formation** (`build_fused`) is conservative: a loop body fuses
//! only if every op is scalar-integer straight-line work (`affine.load` /
//! `affine.store` / pre-decoded binary arith / `arith.cmpi` / `arith.select`
//! / integer `arith.constant` / `affine.yield`) with no cross-iteration
//! value flow. Anything else — nested loops, launches, tensor ops, unknown
//! predicates, use-before-def — leaves the body to the interpreter, which
//! is always correct.
//!
//! **Runtime preflight** (`run_fused`) re-validates the parts only the
//! running machine knows: the buffers must be live integer tensors of the
//! decoded rank, backed by memories with uniform stateless access latency
//! ([`crate::MemoryBehavior::uniform_scalar_cycles`]), and every
//! loop-invariant input must currently hold a scalar integer. Any mismatch
//! *declines* the trace — the block is marked skipped for the rest of the
//! run and the interpreter takes over. Declining is never an error: it is
//! the escape hatch that keeps cache-backed memories, float data, and
//! malformed programs on the exact interpreter semantics.

use std::cmp::Reverse;
use std::time::Instant;

use equeue_ir::Module;

use crate::engine::{Engine, Frame, OpCode, OpInfo, Slot, Step, OP_EPOCH, WAKE_EPOCH};
use crate::error::{LimitExceeded, LimitKind, Progress, SimError};
use crate::interp::{BinOp, CmpPred};
use crate::machine::AccessKind;
use crate::value::{BufId, CompId, SimValue, TensorData};

// ---------------------------------------------------------------------------
// Trace representation
// ---------------------------------------------------------------------------

/// Why trace formation declined to fuse an `affine.for` body.
///
/// Produced by the compile-time half of the fused backend (the layout
/// prepass) and surfaced through [`crate::PrepassFacts`] so static analysis
/// — and the phase-2 fusion worklist — can see *why* a loop still pays
/// interpreter dispatch. Runtime-only declines (cache-backed memories,
/// non-integer tensors, contended entry) are not represented here: they
/// depend on live machine state and are reported separately by the
/// analyzer's fusibility pass.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FuseDecline {
    /// The body contains a nested `affine.for`/`affine.parallel`: only
    /// innermost 1-D bodies fuse today (the phase-2 worklist).
    MultiLevelNest,
    /// A value is used before its in-body definition — cross-iteration
    /// value flow the straight-line trace cannot model.
    CrossIterationFlow,
    /// The body contains an op the trace compiler does not model
    /// (launches, tensor ops, float constants, unknown predicates, …).
    UnsupportedOp(String),
    /// The body has no instructions; the interpreter's idle-step
    /// accounting is the reference semantics for degenerate loops.
    EmptyBody,
    /// The body is structurally malformed (result-arity mismatches,
    /// inconsistent buffer ranks, out-of-range op ids); execution will
    /// surface the precise typed error.
    Malformed,
}

impl std::fmt::Display for FuseDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseDecline::MultiLevelNest => {
                write!(f, "multi-level nest: only innermost 1-D bodies fuse")
            }
            FuseDecline::CrossIterationFlow => {
                write!(f, "cross-iteration value flow (use before in-body def)")
            }
            FuseDecline::UnsupportedOp(name) => {
                write!(f, "unsupported op in body: {name}")
            }
            FuseDecline::EmptyBody => write!(f, "empty body"),
            FuseDecline::Malformed => write!(f, "structurally malformed body"),
        }
    }
}

/// One pre-compiled instruction of a fused loop body. Operands are virtual
/// registers (indices into the trace runner's `i64` bank); `op_pos` is the
/// instruction's op index within the source block, kept so a mid-trace
/// yield can hand the scope back to the interpreter at the exact op
/// boundary (`scope.idx = op_pos + 1`).
#[derive(Debug)]
pub(crate) enum FusedInst {
    /// `affine.load` from buffer table entry `buf` at `indices`.
    Load {
        buf: u32,
        indices: Box<[u32]>,
        dst: u32,
        op_pos: u32,
    },
    /// `affine.store` of register `src` into buffer table entry `buf`.
    Store {
        buf: u32,
        indices: Box<[u32]>,
        src: u32,
        op_pos: u32,
    },
    /// A pre-decoded scalar binary op. `index_typed` arithmetic is address
    /// generation and costs no datapath cycles (same rule as the
    /// interpreter).
    Bin {
        op: BinOp,
        lhs: u32,
        rhs: u32,
        dst: u32,
        index_typed: bool,
        op_pos: u32,
    },
    /// `arith.cmpi` with a pre-decoded predicate.
    Cmp {
        pred: CmpPred,
        lhs: u32,
        rhs: u32,
        dst: u32,
        op_pos: u32,
    },
    /// `arith.select` (both branches are registers, so evaluating
    /// eagerly is exact).
    Sel {
        cond: u32,
        on_true: u32,
        on_false: u32,
        dst: u32,
        op_pos: u32,
    },
    /// An integer `arith.constant`, re-bound every iteration like the
    /// interpreter does (it still counts as an interpreted op).
    Const { value: i64, dst: u32, op_pos: u32 },
    /// `affine.yield`: pure op accounting.
    Nop { op_pos: u32 },
}

impl FusedInst {
    fn op_pos(&self) -> u32 {
        match self {
            FusedInst::Load { op_pos, .. }
            | FusedInst::Store { op_pos, .. }
            | FusedInst::Bin { op_pos, .. }
            | FusedInst::Cmp { op_pos, .. }
            | FusedInst::Sel { op_pos, .. }
            | FusedInst::Const { op_pos, .. }
            | FusedInst::Nop { op_pos } => *op_pos,
        }
    }
}

/// A fused single-dimension `affine.for` body: the instruction table plus
/// the register-bank layout needed to enter and exit the trace.
///
/// Plain data (no interior mutability, no machine references), so the
/// containing [`Plan`](crate::engine) stays `Send + Sync` and one compiled
/// module can back concurrent simulations.
#[derive(Debug)]
pub(crate) struct FusedLoop {
    /// Body instructions in program order (erased ops omitted).
    insts: Vec<FusedInst>,
    /// Total virtual registers (inputs + defs + induction variable).
    n_regs: u32,
    /// Register holding the induction variable.
    iv_reg: u32,
    /// The induction variable's frame slot.
    iv_slot: Slot,
    /// Loop step (as decoded; the trace re-checks it against the live
    /// [`LoopState`](crate::engine) at entry).
    step: i64,
    /// Loop upper bound (exclusive).
    upper: i64,
    /// Loop-invariant scalar inputs: `(frame slot, register)`.
    inputs: Vec<(Slot, u32)>,
    /// Body-defined values written back at trace exits:
    /// `(register, frame slot)`.
    defs: Vec<(u32, Slot)>,
    /// Buffers the body accesses: `(frame slot, subscript rank)`.
    buffers: Vec<(Slot, u32)>,
}

impl FusedLoop {
    /// Number of trace instructions (for [`crate::PrepassFacts`]).
    pub(crate) fn inst_count(&self) -> usize {
        self.insts.len()
    }
}

// ---------------------------------------------------------------------------
// Trace formation (Plan::build step 6)
// ---------------------------------------------------------------------------

/// Register allocation state while decoding one loop body.
struct RegAlloc<'a> {
    n: u32,
    iv: Slot,
    iv_reg: u32,
    /// Every slot the body defines (any op result), in program order.
    def_slots: &'a [Slot],
    inputs: Vec<(Slot, u32)>,
    /// Slots defined so far, with their registers.
    defs: Vec<(Slot, u32)>,
}

impl RegAlloc<'_> {
    /// Resolves an operand slot to a register; `None` rejects the loop
    /// (use of a body def before its definition — a cross-iteration or
    /// erroneous flow the trace cannot model).
    fn operand(&mut self, slot: Slot) -> Option<u32> {
        if slot == self.iv {
            return Some(self.iv_reg);
        }
        if let Some(&(_, r)) = self.defs.iter().find(|&&(s, _)| s == slot) {
            return Some(r);
        }
        if self.def_slots.contains(&slot) {
            return None;
        }
        if let Some(&(_, r)) = self.inputs.iter().find(|&&(s, _)| s == slot) {
            return Some(r);
        }
        let r = self.n;
        self.n += 1;
        self.inputs.push((slot, r));
        Some(r)
    }

    fn define(&mut self, slot: Slot) -> u32 {
        let r = self.n;
        self.n += 1;
        self.defs.push((slot, r));
        r
    }
}

/// Interns a buffer operand, keyed by frame slot. Rejects body-defined
/// buffers (cross-iteration flow) and rank-inconsistent subscript lists
/// (the runtime preflight then checks the single recorded rank against the
/// live tensor).
fn buffer_index(
    buffers: &mut Vec<(Slot, u32)>,
    def_slots: &[Slot],
    slot: Slot,
    rank: u32,
) -> Result<u32, FuseDecline> {
    if def_slots.contains(&slot) {
        return Err(FuseDecline::CrossIterationFlow);
    }
    if let Some(i) = buffers.iter().position(|&(s, _)| s == slot) {
        if buffers[i].1 != rank {
            return Err(FuseDecline::Malformed);
        }
        return Ok(i as u32);
    }
    buffers.push((slot, rank));
    Ok((buffers.len() - 1) as u32)
}

/// Walks every decoded op and compiles each fusible `affine.for` body into
/// a [`FusedLoop`], returning a trace table and a decline table, both
/// indexed by the body block's
/// [`BlockId::index`](equeue_ir::BlockId::index). Pure and cheap (linear in
/// the module); runs unconditionally in `Plan::build` so a single compiled
/// module can serve both backends. Blocks that are not an `affine.for` body
/// (or whose loop never enters) are `None` in both tables.
#[allow(clippy::type_complexity)]
pub(crate) fn build_fused(
    module: &Module,
    ops: &[OpInfo],
) -> (Vec<Option<Box<FusedLoop>>>, Vec<Option<FuseDecline>>) {
    let mut fused: Vec<Option<Box<FusedLoop>>> = (0..module.num_blocks()).map(|_| None).collect();
    let mut declines: Vec<Option<FuseDecline>> = (0..module.num_blocks()).map(|_| None).collect();
    for info in ops {
        if let OpCode::For {
            lower,
            upper,
            step,
            body,
            iv,
        } = &info.code
        {
            if lower < upper {
                let bi = body.index();
                if let Some(entry) = fused.get_mut(bi) {
                    if entry.is_none() && declines[bi].is_none() {
                        match try_build(module, ops, *body, *iv, *step, *upper) {
                            Ok(f) => *entry = Some(Box::new(f)),
                            Err(why) => declines[bi] = Some(why),
                        }
                    }
                }
            }
        }
    }
    (fused, declines)
}

/// Attempts to compile one loop body; `Err` carries the precise decline
/// reason ("leave it to the interpreter, because …").
fn try_build(
    module: &Module,
    ops: &[OpInfo],
    body: equeue_ir::BlockId,
    iv: Slot,
    step: i64,
    upper: i64,
) -> Result<FusedLoop, FuseDecline> {
    let block = module.block(body);
    // Shorthands: operand resolution failures are cross-iteration flow;
    // structural surprises (arity, missing op records) are malformed.
    let flow = || FuseDecline::CrossIterationFlow;
    let bad = || FuseDecline::Malformed;

    // Pass 1: collect every slot the body defines, so operand resolution
    // can tell loop-invariant inputs from in-body defs.
    let mut def_slots: Vec<Slot> = Vec::new();
    for &op in &block.ops {
        let info = ops.get(op.index()).ok_or_else(bad)?;
        if matches!(info.code, OpCode::Erased) {
            continue;
        }
        def_slots.extend(&info.results);
    }
    if def_slots.contains(&iv) {
        return Err(flow());
    }

    // Pass 2: decode each op into a trace instruction.
    let mut regs = RegAlloc {
        n: 1,
        iv,
        iv_reg: 0,
        def_slots: &def_slots,
        inputs: Vec::new(),
        defs: Vec::new(),
    };
    let mut buffers: Vec<(Slot, u32)> = Vec::new();
    let mut insts: Vec<FusedInst> = Vec::new();
    for (pos, &op) in block.ops.iter().enumerate() {
        let info = ops.get(op.index()).ok_or_else(bad)?;
        let op_pos = pos as u32;
        match &info.code {
            OpCode::Erased => continue,
            OpCode::AffineLoad { buffer, indices } => {
                if info.results.len() != 1 {
                    return Err(bad());
                }
                let buf = buffer_index(&mut buffers, &def_slots, *buffer, indices.len() as u32)?;
                let idx: Option<Box<[u32]>> = indices.iter().map(|&s| regs.operand(s)).collect();
                let dst = regs.define(info.results[0]);
                insts.push(FusedInst::Load {
                    buf,
                    indices: idx.ok_or_else(flow)?,
                    dst,
                    op_pos,
                });
            }
            OpCode::AffineStore {
                value,
                buffer,
                indices,
            } => {
                if !info.results.is_empty() {
                    return Err(bad());
                }
                let src = regs.operand(*value).ok_or_else(flow)?;
                let buf = buffer_index(&mut buffers, &def_slots, *buffer, indices.len() as u32)?;
                let idx: Option<Box<[u32]>> = indices.iter().map(|&s| regs.operand(s)).collect();
                insts.push(FusedInst::Store {
                    buf,
                    indices: idx.ok_or_else(flow)?,
                    src,
                    op_pos,
                });
            }
            OpCode::Binary {
                kind: Some(op),
                lhs,
                rhs,
                index_typed,
                ..
            } => {
                if info.results.len() != 1 {
                    return Err(bad());
                }
                let lhs = regs.operand(*lhs).ok_or_else(flow)?;
                let rhs = regs.operand(*rhs).ok_or_else(flow)?;
                let dst = regs.define(info.results[0]);
                insts.push(FusedInst::Bin {
                    op: *op,
                    lhs,
                    rhs,
                    dst,
                    index_typed: *index_typed,
                    op_pos,
                });
            }
            OpCode::Cmpi { pred, lhs, rhs } => {
                if info.results.len() != 1 {
                    return Err(bad());
                }
                let pred = CmpPred::from_name(pred)
                    .ok_or_else(|| FuseDecline::UnsupportedOp(format!("arith.cmpi {pred}")))?;
                let lhs = regs.operand(*lhs).ok_or_else(flow)?;
                let rhs = regs.operand(*rhs).ok_or_else(flow)?;
                let dst = regs.define(info.results[0]);
                insts.push(FusedInst::Cmp {
                    pred,
                    lhs,
                    rhs,
                    dst,
                    op_pos,
                });
            }
            OpCode::Select {
                cond,
                on_true,
                on_false,
            } => {
                if info.results.len() != 1 {
                    return Err(bad());
                }
                let cond = regs.operand(*cond).ok_or_else(flow)?;
                let on_true = regs.operand(*on_true).ok_or_else(flow)?;
                let on_false = regs.operand(*on_false).ok_or_else(flow)?;
                let dst = regs.define(info.results[0]);
                insts.push(FusedInst::Sel {
                    cond,
                    on_true,
                    on_false,
                    dst,
                    op_pos,
                });
            }
            OpCode::Constant(SimValue::Int(v)) => {
                if info.results.len() != 1 {
                    return Err(bad());
                }
                let dst = regs.define(info.results[0]);
                insts.push(FusedInst::Const {
                    value: *v,
                    dst,
                    op_pos,
                });
            }
            OpCode::Yield => {
                if !info.results.is_empty() {
                    return Err(bad());
                }
                insts.push(FusedInst::Nop { op_pos });
            }
            OpCode::For { .. } | OpCode::Parallel { .. } => {
                return Err(FuseDecline::MultiLevelNest)
            }
            _ => return Err(FuseDecline::UnsupportedOp(module.op(op).name.clone())),
        }
    }
    if insts.is_empty() {
        return Err(FuseDecline::EmptyBody);
    }
    Ok(FusedLoop {
        insts,
        n_regs: regs.n,
        iv_reg: 0,
        iv_slot: iv,
        step,
        upper,
        inputs: regs.inputs,
        defs: regs.defs.iter().map(|&(s, r)| (r, s)).collect(),
        buffers,
    })
}

// ---------------------------------------------------------------------------
// Trace execution
// ---------------------------------------------------------------------------

/// Per-entry runtime view of one buffer: identity, pre-resolved uniform
/// access cost, and batched traffic counts for zero-latency memories
/// (flushed into [`MemCounters`](crate::MemCounters) at trace exit; timed
/// memories go through [`Memory::access`](crate::Memory::access) per access
/// so port schedules stay exact).
#[derive(Debug, Clone, Copy)]
struct BufRt {
    buf: BufId,
    mem: CompId,
    /// Uniform per-element access latency; `0` enables counter batching.
    cost: u64,
    elem_bytes: u64,
    base_addr: usize,
    dims_start: u32,
    dims_len: u32,
    reads: u64,
    writes: u64,
}

/// Reusable trace-runner scratch, owned by the engine so repeated trace
/// entries (e.g. an inner loop re-entered by every outer iteration)
/// allocate nothing.
#[derive(Debug, Default)]
pub(crate) struct FusedScratch {
    /// Blocks whose trace this run has declined (runtime preflight
    /// mismatch); permanent for the run, so a declined loop pays the
    /// preflight once, not per entry.
    pub(crate) skip: Vec<bool>,
    /// The virtual register bank.
    regs: Vec<i64>,
    /// Per-instruction cycle cost, resolved from the entering processor's
    /// [`HotCycles`](crate::engine) at trace entry.
    costs: Vec<u64>,
    bufs: Vec<BufRt>,
    /// Concatenated buffer shapes (`BufRt.dims_start/dims_len` slices).
    dims: Vec<usize>,
}

impl FusedScratch {
    pub(crate) fn new(n_blocks: usize) -> FusedScratch {
        FusedScratch {
            skip: vec![false; n_blocks],
            ..FusedScratch::default()
        }
    }
}

/// How a trace run ended.
enum Exit {
    /// Trip count exhausted: pop the loop scope.
    Done,
    /// A timed instruction (at this `op_pos`) reached another pending
    /// event: yield to the scheduler mid-iteration.
    Yield(u32),
    /// A limit/cancellation/runtime error, bit-identical to what the
    /// interpreter would raise at the same point.
    Fail(SimError),
}

/// Replicates `Tensor::try_flatten_index` over registers, including the
/// interpreter's negative-subscript clamp and its exact error message.
/// Rank equality is a preflight invariant, so only per-dim bounds can fail.
fn flatten(regs: &[i64], dims: &[usize], indices: &[u32]) -> Result<usize, String> {
    let mut flat = 0usize;
    for (i, &r) in indices.iter().enumerate() {
        let idx = regs[r as usize].max(0) as usize;
        let dim = dims[i];
        if idx >= dim {
            return Err(format!("index {idx} out of range for dim {i} (size {dim})"));
        }
        flat = flat * dim + idx;
    }
    Ok(flat)
}

impl<'m> Engine<'m> {
    /// Runs the fused trace for the loop scope currently on top of
    /// `frame`'s stack. `Ok(None)` means the runtime preflight declined:
    /// the block is marked skipped for the rest of the run and the caller
    /// falls through to the interpreter.
    pub(crate) fn run_fused(
        &mut self,
        p: usize,
        frame: &mut Frame,
        f: &FusedLoop,
        block_idx: usize,
    ) -> Result<Option<Step>, SimError> {
        // Contended entry: another event is already due at or before this
        // processor's clock, so the very first timed instruction would
        // yield right back to the scheduler. The interpreter's single-op
        // path is cheaper than trace preflight there, and
        // contention-dominated programs (e.g. the fig12 sweep points) hit
        // this on almost every entry. Declining here does NOT mark the
        // block skipped — the next uncontended entry runs the trace.
        {
            let clock = self.procs[p].clock;
            if self
                .heap
                .peek()
                .is_some_and(|&Reverse((t, _, _))| t <= clock)
            {
                return Ok(None);
            }
        }
        // The scratch is moved out for the duration of the run so the
        // borrow checker sees `self` (machine, heap, counters) and the
        // scratch as disjoint. It is restored on every path.
        let mut s = std::mem::take(&mut self.fused);
        let out = self.fused_exec(p, frame, f, &mut s);
        self.fused = s;
        if matches!(out, Ok(None)) {
            if let Some(skip) = self.fused.skip.get_mut(block_idx) {
                *skip = true;
            }
        }
        out
    }

    #[allow(clippy::too_many_lines)]
    fn fused_exec(
        &mut self,
        p: usize,
        frame: &mut Frame,
        f: &FusedLoop,
        s: &mut FusedScratch,
    ) -> Result<Option<Step>, SimError> {
        // ---- preflight: validate the live machine state against the
        // trace's compile-time assumptions; any mismatch declines. ----
        let entry_idx;
        let mut iv;
        {
            let Some(scope) = frame.stack.last() else {
                return Ok(None);
            };
            let Some(state) = &scope.looping else {
                return Ok(None);
            };
            if state.ivs.len() != 1
                || state.ivs[0] != f.iv_slot
                || state.steps[0] != f.step
                || state.uppers[0] != f.upper
            {
                return Ok(None);
            }
            entry_idx = scope.idx;
            iv = state.current[0];
        }

        s.bufs.clear();
        s.dims.clear();
        for &(slot, rank) in &f.buffers {
            let Ok(SimValue::Buffer(bid)) = self.lookup(frame, slot) else {
                return Ok(None);
            };
            let b = self.machine.buffer(bid);
            if b.data.shape.len() != rank as usize || !matches!(b.data.data, TensorData::Int(_)) {
                return Ok(None);
            }
            let Some(cost) = self
                .machine
                .memory(b.mem)
                .and_then(|m| m.behavior.uniform_scalar_cycles())
            else {
                return Ok(None);
            };
            let dims_start = s.dims.len() as u32;
            s.dims.extend_from_slice(&b.data.shape);
            s.bufs.push(BufRt {
                buf: bid,
                mem: b.mem,
                cost,
                elem_bytes: b.elem_bytes as u64,
                base_addr: b.base_addr,
                dims_start,
                dims_len: b.data.shape.len() as u32,
                reads: 0,
                writes: 0,
            });
        }

        s.regs.clear();
        s.regs.resize(f.n_regs as usize, 0);
        for &(slot, r) in &f.inputs {
            let Ok(SimValue::Int(v)) = self.lookup(frame, slot) else {
                return Ok(None);
            };
            s.regs[r as usize] = v;
        }
        // Defs already computed this iteration (resuming mid-iteration
        // after a contended yield) are re-loaded from the environment; the
        // zero default is never read before being overwritten, because
        // trace formation rejects use-before-def.
        for &(r, slot) in &f.defs {
            if let Some(Some(SimValue::Int(v))) = frame.env.get(slot as usize) {
                s.regs[r as usize] = *v;
            }
        }
        s.regs[f.iv_reg as usize] = iv;

        s.costs.clear();
        s.costs.reserve(f.insts.len());
        {
            let hot = &self.procs[p].hot;
            for inst in &f.insts {
                s.costs.push(match inst {
                    FusedInst::Load { .. } => hot.load,
                    FusedInst::Store { .. } => hot.store,
                    FusedInst::Bin {
                        op, index_typed, ..
                    } => {
                        if *index_typed {
                            0
                        } else {
                            hot.arith[*op as usize]
                        }
                    }
                    FusedInst::Cmp { .. } => hot.cmpi,
                    FusedInst::Sel { .. } => hot.select,
                    FusedInst::Const { .. } | FusedInst::Nop { .. } => 0,
                });
            }
        }

        // ---- trace state: engine counters as locals. The heap is
        // untouched inside a trace (no pushes, no signal resolutions), so
        // the earliest pending event is a constant contention barrier. An
        // armed snapshot cut caps the barrier too: the trace then exits via
        // `Exit::Yield` at the first timed op at or past the cut — this is
        // where a snapshot requested mid-trace lands. ----
        let mut barrier = self.heap.peek().map_or(u64::MAX, |&Reverse((t, _, _))| t);
        if let Some(cut) = self.snapshot_at {
            barrier = barrier.min(cut);
        }
        let max_events = self.options.limits.max_events;
        let max_cycles = self.options.limits.max_cycles;
        let entry_clock = self.procs[p].clock;
        let mut clock = entry_clock;
        let mut wakes = self.wakes;
        let mut ops = self.ops_interpreted;
        let mut idle = self.idle_steps;
        let mut last_wake: Option<u64> = None;
        let mut pos = f
            .insts
            .partition_point(|i| (i.op_pos() as usize) < entry_idx);

        let exit = 'run: loop {
            while pos < f.insts.len() {
                let inst = &f.insts[pos];
                let cost = s.costs[pos];
                ops += 1;
                match inst {
                    FusedInst::Load {
                        buf, indices, dst, ..
                    } => {
                        let b = s.bufs[*buf as usize];
                        let dims =
                            &s.dims[b.dims_start as usize..(b.dims_start + b.dims_len) as usize];
                        let flat = match flatten(&s.regs, dims, indices) {
                            Ok(flat) => flat,
                            Err(msg) => break 'run Exit::Fail(SimError::Runtime(msg)),
                        };
                        if b.cost > 0 {
                            // Timed memory: exact per-access port
                            // reservation and traffic accounting.
                            match self.machine.memory_mut(b.mem) {
                                Some(m) => {
                                    let _ = m.access(
                                        AccessKind::Read,
                                        b.base_addr + flat,
                                        1,
                                        b.elem_bytes,
                                        clock,
                                    );
                                }
                                None => {
                                    break 'run Exit::Fail(SimError::Runtime(
                                        "internal: buffer not backed by a memory".into(),
                                    ))
                                }
                            }
                        } else {
                            s.bufs[*buf as usize].reads += 1;
                        }
                        match self.machine.buffer(b.buf).data.data.int_at(flat) {
                            Some(v) => s.regs[*dst as usize] = v,
                            None => {
                                break 'run Exit::Fail(SimError::Runtime(
                                    "internal: fused load outside buffer storage".into(),
                                ))
                            }
                        }
                    }
                    FusedInst::Store {
                        buf, indices, src, ..
                    } => {
                        let b = s.bufs[*buf as usize];
                        let dims =
                            &s.dims[b.dims_start as usize..(b.dims_start + b.dims_len) as usize];
                        let flat = match flatten(&s.regs, dims, indices) {
                            Ok(flat) => flat,
                            Err(msg) => break 'run Exit::Fail(SimError::Runtime(msg)),
                        };
                        if b.cost > 0 {
                            match self.machine.memory_mut(b.mem) {
                                Some(m) => {
                                    let _ = m.access(
                                        AccessKind::Write,
                                        b.base_addr + flat,
                                        1,
                                        b.elem_bytes,
                                        clock,
                                    );
                                }
                                None => {
                                    break 'run Exit::Fail(SimError::Runtime(
                                        "internal: buffer not backed by a memory".into(),
                                    ))
                                }
                            }
                        } else {
                            s.bufs[*buf as usize].writes += 1;
                        }
                        let v = s.regs[*src as usize];
                        if !self.machine.buffer_mut(b.buf).data.data.set_int_at(flat, v) {
                            break 'run Exit::Fail(SimError::Runtime(format!(
                                "write index {flat} out of range"
                            )));
                        }
                    }
                    FusedInst::Bin {
                        op, lhs, rhs, dst, ..
                    } => match op.int(s.regs[*lhs as usize], s.regs[*rhs as usize]) {
                        Ok(v) => s.regs[*dst as usize] = v,
                        Err(msg) => break 'run Exit::Fail(SimError::Runtime(msg)),
                    },
                    FusedInst::Cmp {
                        pred,
                        lhs,
                        rhs,
                        dst,
                        ..
                    } => {
                        s.regs[*dst as usize] =
                            i64::from(pred.eval(s.regs[*lhs as usize], s.regs[*rhs as usize]));
                    }
                    FusedInst::Sel {
                        cond,
                        on_true,
                        on_false,
                        dst,
                        ..
                    } => {
                        s.regs[*dst as usize] = if s.regs[*cond as usize] != 0 {
                            s.regs[*on_true as usize]
                        } else {
                            s.regs[*on_false as usize]
                        };
                    }
                    FusedInst::Const { value, dst, .. } => s.regs[*dst as usize] = *value,
                    FusedInst::Nop { .. } => {}
                }
                // Timing: mirrors `advance` + the inline-wake path of
                // `step_frame`. A timed op whose finish time reaches the
                // barrier yields (contended — no wake counted); otherwise
                // the wake is taken inline with the interpreter's exact
                // budget-check order.
                if cost > 0 {
                    clock += cost;
                    if barrier <= clock {
                        break 'run Exit::Yield(inst.op_pos());
                    }
                    last_wake = Some(clock);
                    wakes += 1;
                    if wakes > max_events {
                        break 'run Exit::Fail(self.fused_limit(
                            LimitKind::Events,
                            max_events,
                            clock,
                            wakes,
                            ops,
                        ));
                    }
                    if clock > max_cycles {
                        break 'run Exit::Fail(self.fused_limit(
                            LimitKind::Cycles,
                            max_cycles,
                            clock,
                            wakes,
                            ops,
                        ));
                    }
                    if wakes & (WAKE_EPOCH - 1) == 1 {
                        if let Err(e) = self.fused_poll(clock, wakes, ops) {
                            break 'run Exit::Fail(e);
                        }
                    }
                } else if ops & (OP_EPOCH - 1) == 0 {
                    if let Err(e) = self.fused_poll(clock, wakes, ops) {
                        break 'run Exit::Fail(e);
                    }
                }
                pos += 1;
            }

            // ---- iteration boundary: the interpreter's end-of-block
            // bookkeeping (loop advance + bounded idle-step spin). ----
            let next = iv.saturating_add(f.step);
            let continuing = next < f.upper;
            if continuing {
                iv = next;
                s.regs[f.iv_reg as usize] = next;
            }
            idle += 1;
            if idle & (OP_EPOCH - 1) == 0 {
                if idle > max_events {
                    break Exit::Fail(self.fused_limit(
                        LimitKind::Events,
                        max_events,
                        clock,
                        wakes,
                        ops,
                    ));
                }
                if let Err(e) = self.fused_poll(clock, wakes, ops) {
                    break Exit::Fail(e);
                }
            }
            if !continuing {
                break Exit::Done;
            }
            pos = 0;
        };

        // ---- trace exit: sync counters, flush batched traffic, write
        // live register state back into the frame. ----
        self.wakes = wakes;
        self.ops_interpreted = ops;
        self.idle_steps = idle;
        self.procs[p].clock = clock;
        if clock > entry_clock {
            self.bump_horizon(clock);
        }
        if let Some(t) = last_wake {
            self.now = t;
        }
        for b in &mut s.bufs {
            if b.reads == 0 && b.writes == 0 {
                continue;
            }
            if let Some(m) = self.machine.memory_mut(b.mem) {
                m.counters.reads += b.reads;
                m.counters.bytes_read += b.reads * b.elem_bytes;
                m.counters.writes += b.writes;
                m.counters.bytes_written += b.writes * b.elem_bytes;
            }
        }

        match exit {
            Exit::Fail(e) => Err(e),
            Exit::Done => {
                for &(r, slot) in &f.defs {
                    frame.env[slot as usize] = Some(SimValue::Int(s.regs[r as usize]));
                }
                frame.env[f.iv_slot as usize] = Some(SimValue::Int(iv));
                frame.stack.pop();
                Ok(Some(Step::Continue))
            }
            Exit::Yield(op_pos) => {
                for &(r, slot) in &f.defs {
                    frame.env[slot as usize] = Some(SimValue::Int(s.regs[r as usize]));
                }
                frame.env[f.iv_slot as usize] = Some(SimValue::Int(iv));
                if let Some(scope) = frame.stack.last_mut() {
                    scope.idx = op_pos as usize + 1;
                    if let Some(state) = &mut scope.looping {
                        state.current[0] = iv;
                    }
                }
                Ok(Some(Step::Yield))
            }
        }
    }

    /// `Progress` from trace-local counters (the engine's own counters are
    /// synced only at trace exit).
    fn fused_progress(&self, clock: u64, wakes: u64, ops: u64) -> Progress {
        Progress {
            cycles: self.horizon.max(clock),
            events: wakes,
            ops,
        }
    }

    fn fused_limit(
        &self,
        kind: LimitKind,
        limit: u64,
        clock: u64,
        wakes: u64,
        ops: u64,
    ) -> SimError {
        SimError::Limit(LimitExceeded {
            kind,
            limit,
            progress: self.fused_progress(clock, wakes, ops),
        })
    }

    /// The epoch-cadence cancellation / wall-deadline poll, identical to
    /// the interpreter's `check_epoch` but fed trace-local counters.
    #[cold]
    fn fused_poll(&self, clock: u64, wakes: u64, ops: u64) -> Result<(), SimError> {
        if let Some(c) = &self.options.cancel {
            if c.is_cancelled() {
                return Err(SimError::Cancelled(self.fused_progress(clock, wakes, ops)));
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                let ms = self
                    .options
                    .limits
                    .wall_deadline
                    .map_or(0, |w| w.as_millis() as u64);
                return Err(self.fused_limit(LimitKind::WallClock, ms, clock, wakes, ops));
            }
        }
        Ok(())
    }
}
