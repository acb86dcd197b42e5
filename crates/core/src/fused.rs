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
//! touching the frame environment or the wake queue, consulting the event
//! engine only at *trace exits*:
//!
//! * **contention** — a timed instruction's finish time reaches another
//!   pending event, so the scheduler must interleave (mirrors the
//!   interpreter's contended-yield path, which never counts a wake);
//! * **completion** — the nest's outermost loop is exhausted;
//! * **limits** — the engine's run-budget rules (`Engine::on_wake`,
//!   `Engine::after_op`, `Engine::on_idle`), called on the trace's local
//!   copy of the run counters where the interpreter calls them on the
//!   engine's own.
//!
//! Counter identity is the contract: wakes, interpreted ops, idle steps,
//! per-processor clocks, the horizon, every memory traffic counter and
//! port reservation, and every Chrome-trace record advance bit-identically
//! to the interpreter — enforced by the `fused_differential` test suite,
//! the golden counter pins and the trace pin.
//!
//! **Trace formation** (`build_fused`) is conservative. An innermost loop
//! body fuses only if every op is scalar-integer straight-line work
//! (`affine.load` / `affine.store` / `equeue.read` / `equeue.write` on a
//! buffer, with no connection operand / pre-decoded binary arith /
//! `arith.cmpi` / `arith.select` / integer `arith.constant` /
//! `affine.yield`) with no cross-iteration value flow. A loop whose body is
//! exactly `[affine.for, affine.yield]` around a fused loop fuses as one
//! more level of the same nest, so a *perfect nest* runs as one trace.
//! Anything else — imperfect nests, launches, tensor ops, unknown
//! predicates, use-before-def — leaves the body to the interpreter, which
//! is always correct. Formation also marks each access whose subscripts
//! are all the innermost induction variable or inputs the innermost body
//! does not define as *strided*: its flat address is `base + iv·stride`,
//! with `base` resolved each time the innermost loop starts. A nest that
//! forms a trace is then checked against everything else known before the
//! run: each accessed buffer must statically be an integer tensor,
//! allocated in host memory or in a memory whose model has uniform
//! stateless access latency
//! ([`crate::MemoryBehavior::uniform_scalar_cycles`]). A cache-backed,
//! float or unresolvable buffer declines the loop at plan time, with a
//! [`FuseDecline`] reason that static analysis reads as is.
//!
//! **Runtime preflight** (`run_fused`) re-validates the live machine state
//! as safety code: the frame's scopes must sit on the nest's level blocks
//! (a level's bounds are the plan's, so the block is the whole check),
//! each level's induction slot must hold an integer, the buffers must be
//! live integer tensors of the decoded rank in uniform-latency memories,
//! and every loop-invariant input must currently hold a scalar integer. Any mismatch *declines* the trace — the block is
//! marked skipped for the rest of the run and the interpreter takes over.
//! Declining is never an error: it is the escape hatch that keeps
//! malformed programs on the exact interpreter semantics. The interpreter
//! offers the runner its top scope when that scope is a loop with a trace,
//! and the runner takes over every enclosing scope on the frame stack that
//! is a level of the same fused nest; a mid-nest exit rebuilds that stack
//! exactly, one scope per active level.
//!
//! **Timing.** `affine.load`/`affine.store` cost the processor's cycles
//! for the op, as in the interpreter; `equeue.read`/`equeue.write` wait for
//! the memory: each access calls [`crate::Memory::access`], the port model
//! the interpreter calls, and the processor's clock moves to its finish.
//! With tracing on, each instruction records the interpreter's events
//! (stall and operation slots) through `Engine::trace_slot`, with name and
//! row ids resolved once at trace entry.
//!
//! **Bulk segments.** For the trace's duration each distinct buffer's
//! elements are hoisted out of the machine into a plain `Vec<i64>`. At every
//! innermost iteration boundary the runner computes how many whole
//! iterations fit before anything observable can happen — the contention
//! barrier, a budget, the next epoch poll, the innermost loop's end, or a
//! strided access leaving its buffer — and runs them with no per-op
//! timing, advancing the counters once per segment. The per-op loop stays
//! the exact path for the iterations at those boundaries; both loops
//! execute instructions through one semantics function (`exec`). Segments
//! need a fixed cost per iteration and record nothing, so a traced run, or
//! a body whose `equeue.read`/`equeue.write` wait on a timed memory (a
//! port can stall them), takes the exact path throughout.

use std::sync::Arc;

use equeue_dialect::{buffer_origin, read_view, write_view, BufferOrigin};
use equeue_ir::{BlockId, Module};

use crate::engine::{Engine, Frame, RunCounters, Scope, Step};
use crate::engine::{OP_EPOCH, WAKE_EPOCH};
use crate::error::SimError;
use crate::interp::{BinOp, CmpPred};
use crate::library::SimLibrary;
use crate::machine::{AccessKind, Machine};
use crate::plan::{mem_spec, OpCode, Plan, Slot};
use crate::trace::{self, NameId, Pid, TraceCat};
use crate::value::{BufId, CompId, SimValue, TensorData};

// ---------------------------------------------------------------------------
// Trace representation
// ---------------------------------------------------------------------------

/// Why `Plan::build` declined to fuse an `affine.for` body.
///
/// Everything about fusion that is known before the run is decided once,
/// at plan time, and surfaced through [`crate::PrepassFacts`] so static
/// analysis can see *why* a loop still pays interpreter dispatch. The
/// runtime preflight in `run_fused` stays as safety code over live machine
/// state; its declines (and contended entries) are not represented here.
/// A loop around a perfectly nested loop that declines gets that loop's
/// reason.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FuseDecline {
    /// The body contains an `affine.for`/`affine.parallel` but is not
    /// exactly `[affine.for, affine.yield]` around a loop that runs: only
    /// perfect nests fuse.
    ImperfectNest,
    /// A value is used before its in-body definition — cross-iteration
    /// value flow the straight-line trace cannot model.
    CrossIterationFlow,
    /// The body contains an op the trace compiler does not model
    /// (launches, tensor ops, float constants, unknown predicates,
    /// accesses over a connection, …).
    UnsupportedOp(String),
    /// The body has no instructions; the interpreter's idle-step
    /// accounting is the reference semantics for degenerate loops.
    EmptyBody,
    /// The body is structurally malformed (result-arity mismatches,
    /// inconsistent buffer ranks, out-of-range op ids); execution will
    /// surface the precise typed error.
    Malformed,
    /// A body buffer has a non-integer element type (the `i64` register
    /// bank models integer data only).
    NonIntegerTensor(String),
    /// A body buffer lives in a memory whose model (named here) has
    /// state-dependent latency, e.g. a cache.
    StatefulMemory(String),
    /// A body buffer's allocation site cannot be resolved statically.
    UnresolvedBuffer,
}

impl std::fmt::Display for FuseDecline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuseDecline::ImperfectNest => {
                write!(f, "imperfect nest: only perfectly nested loops fuse")
            }
            FuseDecline::CrossIterationFlow => {
                write!(f, "cross-iteration value flow (use before in-body def)")
            }
            FuseDecline::UnsupportedOp(name) => {
                write!(f, "unsupported op in body: {name}")
            }
            FuseDecline::EmptyBody => write!(f, "empty body"),
            FuseDecline::Malformed => write!(f, "structurally malformed body"),
            FuseDecline::NonIntegerTensor(elem) => write!(f, "non-integer tensor ({elem})"),
            FuseDecline::StatefulMemory(model) => {
                write!(f, "{model} memory has state-dependent latency")
            }
            FuseDecline::UnresolvedBuffer => write!(f, "buffer origin not resolvable"),
        }
    }
}

/// One pre-compiled instruction of a fused loop body. Operands are virtual
/// registers (indices into the trace runner's `i64` bank); `op_pos` is the
/// instruction's op index within the source block, kept so a mid-trace
/// yield can hand the scope back to the interpreter at the exact op
/// boundary (`scope.idx = op_pos + 1`).
#[derive(Debug, Clone)]
pub(crate) enum FusedInst {
    /// A read of buffer table entry `buf` at `indices`. `strided`: every
    /// subscript is the induction variable or a loop-invariant input.
    /// `waits`: an `equeue.read`, whose processor waits for the memory;
    /// else an `affine.load`, which costs the processor's load cycles.
    Load {
        buf: u32,
        indices: Box<[u32]>,
        strided: bool,
        waits: bool,
        dst: u32,
        op_pos: u32,
    },
    /// A write of register `src` into buffer table entry `buf`
    /// (`equeue.write` when `waits`, else `affine.store`).
    Store {
        buf: u32,
        indices: Box<[u32]>,
        strided: bool,
        waits: bool,
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

/// One loop of a fused nest: its body block, induction variable and
/// bounds.
#[derive(Debug, Clone)]
struct Level {
    block: BlockId,
    iv_slot: Slot,
    /// The register holding the induction variable.
    iv_reg: u32,
    lower: i64,
    /// Exclusive upper bound.
    upper: i64,
    step: i64,
}

/// A fused perfect loop nest: its levels, the innermost body's instruction
/// table, and the register-bank layout needed to enter and exit the trace.
///
/// Plain data (no interior mutability, no machine references), so the
/// containing [`Plan`](crate::plan) stays `Send + Sync` and one compiled
/// module can back concurrent simulations.
#[derive(Debug, Clone)]
pub(crate) struct FusedLoop {
    /// The nest's loops, outermost first. Every level but the last has the
    /// body `[affine.for, affine.yield]`; the last one's body is `insts`.
    levels: Vec<Level>,
    /// Innermost body instructions in program order (erased ops omitted).
    insts: Vec<FusedInst>,
    /// Total virtual registers (inputs + defs + induction variables).
    n_regs: u32,
    /// Loop-invariant scalar inputs: `(frame slot, register)`.
    inputs: Vec<(Slot, u32)>,
    /// Body-defined values written back at trace exits:
    /// `(register, frame slot, op_pos)`.
    defs: Vec<(u32, Slot, u32)>,
    /// Buffers the body accesses: `(frame slot, subscript rank)`.
    buffers: Vec<(Slot, u32)>,
}

impl FusedLoop {
    /// Number of trace instructions (for [`crate::PrepassFacts`]).
    pub(crate) fn inst_count(&self) -> usize {
        self.insts.len()
    }

    /// The innermost level.
    fn inner(&self) -> &Level {
        &self.levels[self.levels.len() - 1]
    }

    /// This nest inside one more loop, `outer`: its induction variable
    /// stops being a loop-invariant input and becomes a register the
    /// runner sets.
    fn enclosed_in(&self, mut outer: Level) -> FusedLoop {
        let mut nest = self.clone();
        outer.iv_reg = match nest.inputs.iter().position(|&(s, _)| s == outer.iv_slot) {
            Some(i) => nest.inputs.remove(i).1,
            None => {
                nest.n_regs += 1;
                nest.n_regs - 1
            }
        };
        nest.levels.insert(0, outer);
        nest
    }
}

// ---------------------------------------------------------------------------
// Trace formation (Plan::build step 5)
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
    /// The `op_pos` of each entry of `defs`.
    def_pos: Vec<u32>,
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

    fn define(&mut self, slot: Slot, op_pos: u32) -> u32 {
        let r = self.n;
        self.n += 1;
        self.defs.push((slot, r));
        self.def_pos.push(op_pos);
        r
    }

    /// Resolves a subscript list. The flag says whether every subscript is
    /// the induction variable or a loop-invariant input (no body def), so
    /// the access is strided in the induction variable.
    fn subscripts(&mut self, slots: &[Slot]) -> Option<(Box<[u32]>, bool)> {
        let regs: Box<[u32]> = slots
            .iter()
            .map(|&s| self.operand(s))
            .collect::<Option<_>>()?;
        let strided = regs
            .iter()
            .all(|&r| !self.defs.iter().any(|&(_, d)| d == r));
        Some((regs, strided))
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

/// One `affine.for` body's fusion outcome: its trace, or why `Plan::build`
/// declined it.
pub(crate) type LoopFusion = Result<Box<FusedLoop>, FuseDecline>;

/// Walks every decoded op and decides fusion for each entered `affine.for`
/// body: a [`FusedLoop`] trace of the perfect nest it heads, or the reason
/// it stays on the interpreter. The table is indexed by the body block's
/// [`BlockId::index`](equeue_ir::BlockId::index). Pure and cheap (linear in
/// the module times nest depth); runs unconditionally in `Plan::build` so a
/// single compiled module can serve both backends. Blocks that are not an
/// `affine.for` body (or whose loop never enters) are `None`.
pub(crate) fn build_fused(
    module: &Module,
    lib: &SimLibrary,
    plan: &Plan,
) -> Vec<Option<LoopFusion>> {
    let mut table: Vec<Option<LoopFusion>> = (0..module.num_blocks()).map(|_| None).collect();
    for info in &plan.ops {
        if let OpCode::For { bounds, body, iv } = info.code {
            fuse_loop(module, lib, plan, &mut table, body, iv, bounds);
        }
    }
    table
}

/// Decides fusion for the `affine.for` with body `body` (memoised in
/// `table`): an innermost body compiles to a trace; a perfect level fuses
/// around its inner loop's nest, or takes that loop's decline reason.
fn fuse_loop(
    module: &Module,
    lib: &SimLibrary,
    plan: &Plan,
    table: &mut [Option<LoopFusion>],
    body: BlockId,
    iv: Slot,
    bounds: u32,
) {
    let (lower, upper, step) = plan.for_bounds(bounds);
    if lower >= upper || !matches!(table.get(body.index()), Some(None)) {
        return;
    }
    let level = Level {
        block: body,
        iv_slot: iv,
        iv_reg: 0,
        lower,
        upper,
        step,
    };
    // A provisional verdict (the index was just checked), so a malformed
    // nest that reaches this body again ends the recursion.
    table[body.index()] = Some(Err(FuseDecline::Malformed));
    let verdict = match inner_loop(module, plan, body) {
        Inner::None => try_build(module, plan, level)
            .and_then(|f| check_buffers(module, lib, plan, body).map(|()| f)),
        Inner::Perfect { body, iv, bounds } => {
            fuse_loop(module, lib, plan, table, body, iv, bounds);
            match table.get(body.index()) {
                Some(Some(Ok(inner))) => Ok(inner.enclosed_in(level)),
                Some(Some(Err(reason))) => Err(reason.clone()),
                // The inner loop never enters.
                _ => Err(FuseDecline::ImperfectNest),
            }
        }
        Inner::Imperfect => Err(FuseDecline::ImperfectNest),
    };
    table[body.index()] = Some(verdict.map(Box::new));
}

/// What a loop body holds besides straight-line ops.
enum Inner {
    /// No loop: the body is an innermost one.
    None,
    /// Exactly `[affine.for, affine.yield]`: a perfect level around the
    /// inner `affine.for`'s body, induction slot and bounds.
    Perfect {
        body: BlockId,
        iv: Slot,
        bounds: u32,
    },
    /// A loop among other ops.
    Imperfect,
}

fn inner_loop(module: &Module, plan: &Plan, body: BlockId) -> Inner {
    let ops = &module.block(body).ops;
    let code = |i: usize| ops.get(i).and_then(|op| plan.ops.get(op.index()));
    let is_loop = |i: usize| {
        code(i)
            .is_some_and(|info| matches!(info.code, OpCode::For { .. } | OpCode::Parallel { .. }))
    };
    if !(0..ops.len()).any(is_loop) {
        return Inner::None;
    }
    match (
        ops.len(),
        code(0).map(|i| &i.code),
        code(1).map(|i| &i.code),
    ) {
        (2, Some(&OpCode::For { bounds, body, iv }), Some(OpCode::Yield)) => {
            Inner::Perfect { body, iv, bounds }
        }
        _ => Inner::Imperfect,
    }
}

/// The statically decidable half of the runtime preflight, run on bodies
/// whose trace formed: every accessed buffer must be an integer tensor
/// allocated in host memory or in a memory whose model has uniform
/// stateless access latency
/// ([`crate::MemoryBehavior::uniform_scalar_cycles`]). The first offending
/// access, in body order, names the reason.
fn check_buffers(
    module: &Module,
    lib: &SimLibrary,
    plan: &Plan,
    body: BlockId,
) -> Result<(), FuseDecline> {
    let ops = &plan.ops;
    for &op in &module.block(body).ops {
        let operands = &module.op(op).operands;
        let buf = match ops.get(op.index()).map(|info| &info.code) {
            Some(OpCode::AffineLoad { .. }) => operands.first().copied(),
            Some(OpCode::AffineStore { .. }) => operands.get(1).copied(),
            Some(OpCode::Read { .. }) => read_view(module, op).ok().map(|v| v.buffer),
            Some(OpCode::Write { .. }) => write_view(module, op).ok().map(|v| v.buffer),
            _ => None,
        };
        let Some(buf) = buf else { continue };
        if let Some(elem) = module.value_type(buf).elem() {
            if !elem.is_integer() {
                return Err(FuseDecline::NonIntegerTensor(elem.to_string()));
            }
        }
        let behavior = match buffer_origin(module, buf) {
            BufferOrigin::Host(_) => continue,
            BufferOrigin::Mem(mem) => ops
                .get(mem.index())
                .filter(|info| matches!(info.code, OpCode::CreateMem))
                .and_then(|_| mem_spec(module, mem))
                .and_then(|spec| lib.make_memory(&spec).ok()),
            BufferOrigin::Unknown => None,
        };
        let Some(behavior) = behavior else {
            return Err(FuseDecline::UnresolvedBuffer);
        };
        if behavior.uniform_scalar_cycles().is_none() {
            return Err(FuseDecline::StatefulMemory(
                behavior.model_name().to_string(),
            ));
        }
    }
    Ok(())
}

/// Attempts to compile one innermost loop body; `Err` carries the precise
/// decline reason ("leave it to the interpreter, because …").
fn try_build(module: &Module, plan: &Plan, level: Level) -> Result<FusedLoop, FuseDecline> {
    let block = module.block(level.block);
    let iv = level.iv_slot;
    // Shorthands: operand resolution failures are cross-iteration flow;
    // structural surprises (arity, missing op records) are malformed.
    let flow = || FuseDecline::CrossIterationFlow;
    let bad = || FuseDecline::Malformed;

    // Pass 1: collect every slot the body defines, so operand resolution
    // can tell loop-invariant inputs from in-body defs.
    let mut def_slots: Vec<Slot> = Vec::new();
    for &op in &block.ops {
        let info = plan.ops.get(op.index()).ok_or_else(bad)?;
        if matches!(info.code, OpCode::Erased) {
            continue;
        }
        def_slots.extend(plan.slots(info.results));
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
        def_pos: Vec::new(),
    };
    let mut buffers: Vec<(Slot, u32)> = Vec::new();
    let mut insts: Vec<FusedInst> = Vec::new();
    for (pos, &op) in block.ops.iter().enumerate() {
        let info = plan.ops.get(op.index()).ok_or_else(bad)?;
        let results = plan.slots(info.results);
        let op_pos = pos as u32;
        // `equeue.read`/`equeue.write` fuse on a buffer's elements, with
        // no connection: the trace models the memory's port, not a link.
        let element_access = |indices: crate::plan::Span, conn: crate::plan::OptSlot| {
            let name = &module.op(op).name;
            if conn.get().is_some() {
                Err(FuseDecline::UnsupportedOp(format!(
                    "{name} over a connection"
                )))
            } else if indices.len() == 0 {
                Err(FuseDecline::UnsupportedOp(format!(
                    "{name} of a whole buffer"
                )))
            } else {
                Ok(())
            }
        };
        match info.code {
            OpCode::Erased => continue,
            OpCode::AffineLoad { buffer, indices }
            | OpCode::Read {
                buffer, indices, ..
            } => {
                let waits = match info.code {
                    OpCode::Read { conn, .. } => {
                        element_access(indices, conn)?;
                        true
                    }
                    _ => false,
                };
                if results.len() != 1 {
                    return Err(bad());
                }
                let buf = buffer_index(&mut buffers, &def_slots, buffer, indices.len() as u32)?;
                let (indices, strided) = regs.subscripts(plan.slots(indices)).ok_or_else(flow)?;
                let dst = regs.define(results[0], op_pos);
                insts.push(FusedInst::Load {
                    buf,
                    indices,
                    strided,
                    waits,
                    dst,
                    op_pos,
                });
            }
            OpCode::AffineStore {
                value,
                buffer,
                indices,
            }
            | OpCode::Write {
                value,
                buffer,
                indices,
                ..
            } => {
                let waits = match info.code {
                    OpCode::Write { conn, .. } => {
                        element_access(indices, conn)?;
                        true
                    }
                    _ => false,
                };
                if !results.is_empty() {
                    return Err(bad());
                }
                let src = regs.operand(value).ok_or_else(flow)?;
                let buf = buffer_index(&mut buffers, &def_slots, buffer, indices.len() as u32)?;
                let (indices, strided) = regs.subscripts(plan.slots(indices)).ok_or_else(flow)?;
                insts.push(FusedInst::Store {
                    buf,
                    indices,
                    strided,
                    waits,
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
                if results.len() != 1 {
                    return Err(bad());
                }
                let lhs = regs.operand(lhs).ok_or_else(flow)?;
                let rhs = regs.operand(rhs).ok_or_else(flow)?;
                let dst = regs.define(results[0], op_pos);
                insts.push(FusedInst::Bin {
                    op,
                    lhs,
                    rhs,
                    dst,
                    index_typed,
                    op_pos,
                });
            }
            OpCode::Cmpi { pred, lhs, rhs } => {
                if results.len() != 1 {
                    return Err(bad());
                }
                let pred = pred.ok_or_else(|| {
                    let name = module.op(op).attrs.str("predicate").unwrap_or_default();
                    FuseDecline::UnsupportedOp(format!("arith.cmpi {name}"))
                })?;
                let lhs = regs.operand(lhs).ok_or_else(flow)?;
                let rhs = regs.operand(rhs).ok_or_else(flow)?;
                let dst = regs.define(results[0], op_pos);
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
                if results.len() != 1 {
                    return Err(bad());
                }
                let cond = regs.operand(cond).ok_or_else(flow)?;
                let on_true = regs.operand(on_true).ok_or_else(flow)?;
                let on_false = regs.operand(on_false).ok_or_else(flow)?;
                let dst = regs.define(results[0], op_pos);
                insts.push(FusedInst::Sel {
                    cond,
                    on_true,
                    on_false,
                    dst,
                    op_pos,
                });
            }
            OpCode::ConstInt(value) => {
                if results.len() != 1 {
                    return Err(bad());
                }
                let dst = regs.define(results[0], op_pos);
                insts.push(FusedInst::Const { value, dst, op_pos });
            }
            OpCode::Yield => {
                if !results.is_empty() {
                    return Err(bad());
                }
                insts.push(FusedInst::Nop { op_pos });
            }
            _ => return Err(FuseDecline::UnsupportedOp(module.op(op).name.to_string())),
        }
    }
    if insts.is_empty() {
        return Err(FuseDecline::EmptyBody);
    }
    Ok(FusedLoop {
        levels: vec![level],
        insts,
        n_regs: regs.n,
        inputs: regs.inputs,
        defs: (regs.defs.iter().zip(&regs.def_pos))
            .map(|(&(s, r), &pos)| (r, s, pos))
            .collect(),
        buffers,
    })
}

// ---------------------------------------------------------------------------
// Trace execution
// ---------------------------------------------------------------------------

/// Per-entry runtime view of one buffer table entry: pre-resolved uniform
/// access cost, and batched traffic counts for zero-latency memories
/// (flushed into [`MemCounters`](crate::MemCounters) at trace exit; timed
/// memories go through [`Memory::access`](crate::Memory::access) per access
/// so port schedules stay exact).
#[derive(Debug, Clone, Copy)]
struct BufRt {
    mem: CompId,
    /// Uniform per-element access latency; `0` enables counter batching.
    cost: u64,
    elem_bytes: u64,
    base_addr: usize,
    dims_start: u32,
    dims_len: u32,
    /// Index of the buffer's hoisted elements in `Bank::data`; table
    /// entries bound to the same buffer share one.
    data: u32,
    reads: u64,
    writes: u64,
}

/// Per-entry runtime view of one instruction.
#[derive(Debug, Clone, Copy, Default)]
struct InstRt {
    /// Cycle cost, resolved from the entering processor's
    /// `HotCycles` (`crate::machine`); for an access that waits on its
    /// memory, the memory's uncontended latency.
    cost: u64,
    /// The op ends when its memory access does (`equeue.read`/`write`).
    waits: bool,
    /// Cycles from the start of an iteration to the start of this op.
    start: u64,
    /// A strided access whose loop-invariant subscripts are in range for
    /// the current innermost loop: its flat index is `base + iv·stride` for
    /// every iv in the trace's strided range (`Shape::iv_lo..Shape::iv_hi`).
    strided: bool,
    base: usize,
    stride: usize,
    /// A timed binary op's trace name (resolved at entry when tracing).
    name: NameId,
}

/// The state instructions read and write.
#[derive(Debug, Default)]
struct Bank {
    /// The virtual register bank.
    regs: Vec<i64>,
    bufs: Vec<BufRt>,
    /// Concatenated buffer shapes (`BufRt.dims_start/dims_len` slices).
    dims: Vec<usize>,
    /// Each distinct buffer's elements, hoisted out of the machine for the
    /// trace's duration.
    data: Vec<Vec<i64>>,
    /// The buffer each `data` entry belongs to.
    owners: Vec<BufId>,
}

impl Bank {
    /// The shape of buffer table entry `buf`.
    fn dims(&self, buf: u32) -> &[usize] {
        let b = &self.bufs[buf as usize];
        &self.dims[b.dims_start as usize..(b.dims_start + b.dims_len) as usize]
    }

    /// The flat element index of an access. Bulk segments use the strided
    /// form (the segment keeps `iv` in range); everything else replicates
    /// the interpreter's checks via [`flatten`].
    #[inline(always)]
    fn flat<const BULK: bool>(
        &self,
        buf: u32,
        indices: &[u32],
        rt: &InstRt,
        iv: i64,
    ) -> Result<usize, SimError> {
        if BULK && rt.strided {
            // `iv` is non-negative whenever `stride > 0` (`Shape::iv_lo`).
            return Ok(rt.base + iv as usize * rt.stride);
        }
        flatten(&self.regs, self.dims(buf), indices).map_err(SimError::Runtime)
    }

    /// Accounts one element access at `clock` and returns its `(start,
    /// finish)`: a timed memory reserves a port through `Memory::access`
    /// (the finish includes any port stall); a zero-latency memory batches
    /// its traffic counters and takes no time.
    #[inline(always)]
    fn touch(
        &mut self,
        buf: u32,
        kind: AccessKind,
        flat: usize,
        machine: &mut Machine,
        clock: u64,
    ) -> Result<(u64, u64), SimError> {
        let b = &mut self.bufs[buf as usize];
        if b.cost > 0 {
            let m = machine.memory_mut(b.mem).ok_or_else(|| {
                SimError::Runtime("internal: buffer not backed by a memory".into())
            })?;
            let (start, end, _) = m.access(kind, b.base_addr + flat, 1, b.elem_bytes, clock);
            return Ok((start, end));
        }
        match kind {
            AccessKind::Read => b.reads += 1,
            AccessKind::Write => b.writes += 1,
        }
        Ok((clock, clock))
    }
}

/// One instruction's semantics — registers, buffer elements, memory
/// traffic — shared by the per-op loop and bulk segments. `clock` is the
/// op's start time; the result is its memory access's `(start, finish)`
/// (`(clock, clock)` for an op that touches no timed memory). Every failure
/// precedes the op's side effects, so a failing op can be re-executed.
#[inline(always)]
fn exec<const BULK: bool>(
    inst: &FusedInst,
    rt: &InstRt,
    bank: &mut Bank,
    machine: &mut Machine,
    clock: u64,
    iv: i64,
) -> Result<(u64, u64), SimError> {
    match inst {
        FusedInst::Load {
            buf, indices, dst, ..
        } => {
            let flat = bank.flat::<BULK>(*buf, indices, rt, iv)?;
            let data = bank.bufs[*buf as usize].data as usize;
            let v = bank.data[data].get(flat).copied().ok_or_else(|| {
                SimError::Runtime("internal: fused load outside buffer storage".into())
            })?;
            let access = bank.touch(*buf, AccessKind::Read, flat, machine, clock)?;
            bank.regs[*dst as usize] = v;
            return Ok(access);
        }
        FusedInst::Store {
            buf, indices, src, ..
        } => {
            let flat = bank.flat::<BULK>(*buf, indices, rt, iv)?;
            let data = bank.bufs[*buf as usize].data as usize;
            if flat >= bank.data[data].len() {
                return Err(SimError::Runtime(format!(
                    "write index {flat} out of range"
                )));
            }
            let access = bank.touch(*buf, AccessKind::Write, flat, machine, clock)?;
            bank.data[data][flat] = bank.regs[*src as usize];
            return Ok(access);
        }
        FusedInst::Bin {
            op, lhs, rhs, dst, ..
        } => {
            let regs = &mut bank.regs;
            regs[*dst as usize] = op
                .int(regs[*lhs as usize], regs[*rhs as usize])
                .map_err(SimError::Runtime)?;
        }
        FusedInst::Cmp {
            pred,
            lhs,
            rhs,
            dst,
            ..
        } => {
            let regs = &mut bank.regs;
            regs[*dst as usize] = i64::from(pred.eval(regs[*lhs as usize], regs[*rhs as usize]));
        }
        FusedInst::Sel {
            cond,
            on_true,
            on_false,
            dst,
            ..
        } => {
            let regs = &mut bank.regs;
            regs[*dst as usize] = if regs[*cond as usize] != 0 {
                regs[*on_true as usize]
            } else {
                regs[*on_false as usize]
            };
        }
        FusedInst::Const { value, dst, .. } => bank.regs[*dst as usize] = *value,
        FusedInst::Nop { .. } => {}
    }
    Ok((clock, clock))
}

/// Reusable trace-runner scratch, owned by the engine so repeated trace
/// entries (e.g. a nest re-entered after each contended yield) allocate
/// nothing.
#[derive(Debug, Default)]
pub(crate) struct FusedScratch {
    /// Blocks this run does not fuse, indexed by `BlockId::index()`: those
    /// without a trace, and those whose trace the runtime preflight
    /// declined. A decline is permanent for the run, so a declined loop
    /// pays the preflight once, not per entry.
    pub(crate) skip: Vec<bool>,
    /// Per-instruction runtime views, parallel to `FusedLoop::insts`.
    insts: Vec<InstRt>,
    /// Each level's current induction variable, outermost first.
    ivs: Vec<i64>,
    bank: Bank,
}

impl FusedScratch {
    pub(crate) fn new(plan: &Plan) -> FusedScratch {
        FusedScratch {
            skip: plan
                .fusion
                .iter()
                .map(|f| !matches!(f, Some(Ok(_))))
                .collect(),
            ..FusedScratch::default()
        }
    }
}

/// Per-entry constants of the innermost loop: its bounds, one whole
/// iteration's totals, and the iv range over which every strided access
/// stays in bounds (re-resolved each time the loop starts).
struct Shape {
    step: i64,
    upper: i64,
    /// Cycles, timed ops (= scheduler wakes) and ops of one iteration.
    cycles: u64,
    wakes: u64,
    ops: u64,
    /// Strided accesses are in range for `iv_lo <= iv < iv_hi`.
    iv_lo: i64,
    iv_hi: i64,
    /// Whether bulk segments may run: off while tracing (segments record
    /// nothing) and when an access waits on a timed memory (its port may
    /// stall it, so an iteration has no fixed cost).
    bulk: bool,
}

impl Shape {
    /// The segment-length rule: how many whole iterations, from an
    /// iteration boundary at `iv`, run before anything the per-op loop
    /// would observe. Every iteration must stay below `upper` and inside
    /// the strided range; no op count, idle step or wake may land on an
    /// epoch poll; and every timed op must finish below `barrier` and
    /// within the cycle and event budgets. `0` sends the next iteration
    /// down the exact path.
    fn segment_len(
        &self,
        iv: i64,
        t: &Tally,
        barrier: u64,
        max_events: u64,
        max_cycles: u64,
    ) -> u64 {
        if !self.bulk || self.step <= 0 || iv < self.iv_lo {
            return 0;
        }
        let end = self.upper.min(self.iv_hi);
        if iv >= end {
            return 0;
        }
        let trips = (i128::from(end) - i128::from(iv) - 1) / i128::from(self.step) + 1;
        // Whole iterations that fit in `room` units at `per` units each;
        // unbounded when an iteration uses none (no timed op).
        let fit = |room: u64, per: u64| room.checked_div(per).unwrap_or(u64::MAX);
        // The WAKE_EPOCH poll fires on `wakes % WAKE_EPOCH == 1`.
        let c = &t.count;
        let to_poll = (WAKE_EPOCH - c.wakes % WAKE_EPOCH) % WAKE_EPOCH;
        [
            u64::try_from(trips).unwrap_or(u64::MAX),
            fit(until_multiple(c.ops, OP_EPOCH), self.ops),
            until_multiple(c.idle, OP_EPOCH),
            fit(to_poll, self.wakes),
            fit(max_events.saturating_sub(c.wakes), self.wakes),
            fit(
                barrier.saturating_sub(t.clock).saturating_sub(1),
                self.cycles,
            ),
            fit(max_cycles.saturating_sub(t.clock), self.cycles),
        ]
        .into_iter()
        .min()
        .unwrap_or(0)
    }
}

/// How many increments `count` can take before landing on a multiple of
/// `epoch` (a power of two).
fn until_multiple(count: u64, epoch: u64) -> u64 {
    epoch - 1 - (count & (epoch - 1))
}

/// The engine counters as trace locals, synced back at trace exit.
struct Tally {
    clock: u64,
    count: RunCounters,
    last_wake: Option<u64>,
}

impl Tally {
    /// Advances the counters over `n` whole iterations, as `n` passes of
    /// the per-op loop and the iteration boundary would.
    fn whole(&mut self, shape: &Shape, n: u64) {
        self.clock += n * shape.cycles;
        self.count.wakes += n * shape.wakes;
        self.count.ops += n * shape.ops;
        self.count.idle += n;
        if n > 0 && shape.wakes > 0 {
            self.last_wake = Some(self.clock);
        }
    }

    /// Advances the counters over the first `pos` ops of an iteration.
    fn prefix(&mut self, insts: &[InstRt], pos: usize) {
        let done = &insts[..pos];
        let timed = done.iter().filter(|i| i.cost > 0).count() as u64;
        self.count.ops += pos as u64;
        self.count.wakes += timed;
        self.clock += done.iter().map(|i| i.cost).sum::<u64>();
        if timed > 0 {
            self.last_wake = Some(self.clock);
        }
    }
}

/// Resolves a strided access for one entry: returns `(base, stride)` with
/// the loop-invariant subscripts (clamped like [`flatten`]) folded into
/// `base`, and narrows `[lo, hi)` to the ivs for which every iv subscript
/// is in range. `None` when an invariant subscript is out of range: the
/// access then goes through `flatten`, which raises the interpreter's
/// error.
fn resolve_stride(
    regs: &[i64],
    dims: &[usize],
    indices: &[u32],
    iv_reg: u32,
    lo: &mut i64,
    hi: &mut i64,
) -> Option<(usize, usize)> {
    let (mut base, mut stride, mut row) = (0usize, 0usize, 1usize);
    let (mut iv_lo, mut iv_hi) = (i64::MIN, i64::MAX);
    for (&r, &dim) in indices.iter().zip(dims).rev() {
        if r == iv_reg {
            stride = stride.checked_add(row)?;
            iv_lo = 0;
            iv_hi = iv_hi.min(i64::try_from(dim).unwrap_or(i64::MAX));
        } else {
            let idx = regs[r as usize].max(0) as usize;
            if idx >= dim {
                return None;
            }
            base = base.checked_add(idx.checked_mul(row)?)?;
        }
        row = row.checked_mul(dim)?;
    }
    *lo = (*lo).max(iv_lo);
    *hi = (*hi).min(iv_hi);
    Some((base, stride))
}

/// Resolves every strided access of the innermost body for the current
/// outer induction variables, and the iv range over which they all stay in
/// bounds. Runs each time the innermost loop starts.
fn restride(f: &FusedLoop, bank: &Bank, insts: &mut [InstRt], shape: &mut Shape) {
    shape.iv_lo = i64::MIN;
    shape.iv_hi = i64::MAX;
    for (inst, rt) in f.insts.iter().zip(insts) {
        rt.strided = false;
        if let FusedInst::Load {
            buf,
            indices,
            strided: true,
            ..
        }
        | FusedInst::Store {
            buf,
            indices,
            strided: true,
            ..
        } = inst
        {
            if let Some((base, stride)) = resolve_stride(
                &bank.regs,
                bank.dims(*buf),
                indices,
                f.inner().iv_reg,
                &mut shape.iv_lo,
                &mut shape.iv_hi,
            ) {
                rt.strided = true;
                rt.base = base;
                rt.stride = stride;
            }
        }
    }
}

/// Runs `k` whole iterations from `iv` with no per-op timing: timed
/// memories still see each access at its op's exact start time. On a
/// failing instruction, returns `(iteration, position)`; every earlier
/// op's effects are applied and the failing op's are not, so the exact path
/// can re-execute it and raise the interpreter's error.
#[allow(clippy::too_many_arguments)]
fn bulk(
    f: &FusedLoop,
    insts: &[InstRt],
    bank: &mut Bank,
    machine: &mut Machine,
    shape: &Shape,
    iv: i64,
    k: u64,
    clock: u64,
) -> Result<(), (u64, usize)> {
    let iv_reg = f.inner().iv_reg as usize;
    for it in 0..k {
        let cur = iv.wrapping_add((it as i64).wrapping_mul(shape.step));
        bank.regs[iv_reg] = cur;
        let t0 = clock + it * shape.cycles;
        for (pos, (inst, rt)) in f.insts.iter().zip(insts).enumerate() {
            if exec::<true>(inst, rt, bank, machine, t0 + rt.start, cur).is_err() {
                return Err((it, pos));
            }
        }
    }
    Ok(())
}

/// How a trace run ended.
enum Exit {
    /// The outermost level is exhausted: pop the nest's scopes.
    Done,
    /// A timed instruction (at this `op_pos` of the innermost body)
    /// reached another pending event: yield to the scheduler mid-iteration.
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
    /// The fused nest to run for `frame`'s top scope, if any: the top loop
    /// scope's trace, extended over every scope below it that is the next
    /// level out of the same nest. Returns the stack index of the nest's
    /// outermost scope with the nest.
    #[inline]
    pub(crate) fn fused_entry(&self, frame: &Frame) -> Option<(usize, &'m FusedLoop)> {
        let plan: &'m Plan = self.plan;
        // The interpreter asks before every op: a block without a trace
        // answers from the skip set alone.
        let fused = |scope: &Scope| {
            let bi = scope.block.index();
            if self.fused.skip[bi] {
                return None;
            }
            match plan.fusion.get(bi) {
                Some(Some(Ok(f))) => Some(&**f),
                _ => None,
            }
        };
        let mut base = frame.stack.len().checked_sub(1)?;
        let mut nest = fused(&frame.stack[base])?;
        while let Some(outer) = base.checked_sub(1).and_then(|b| fused(&frame.stack[b])) {
            if outer.levels.len() != nest.levels.len() + 1
                || outer.levels[1].block != frame.stack[base].block
            {
                break;
            }
            nest = outer;
            base -= 1;
        }
        Some((base, nest))
    }

    /// Runs the fused nest `f` over the loop scopes `frame.stack[base..]`
    /// (its outermost levels, down to the one the interpreter is in).
    /// `Ok(None)` means the runtime preflight declined: the outermost
    /// scope's block is marked skipped for the rest of the run and the
    /// caller falls through to the interpreter.
    pub(crate) fn run_fused(
        &mut self,
        p: usize,
        frame: &mut Frame,
        f: &FusedLoop,
        base: usize,
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
            if self.wake_queue.peek_time().is_some_and(|t| t <= clock) {
                return Ok(None);
            }
        }
        // The scratch is moved out for the duration of the run so the
        // borrow checker sees `self` (machine, wake queue, counters) and the
        // scratch as disjoint. It is restored on every path.
        let mut s = std::mem::take(&mut self.fused);
        let out = self.fused_exec(p, frame, f, base, &mut s);
        self.fused = s;
        if matches!(out, Ok(None)) {
            if let Some(skip) = self.fused.skip.get_mut(f.levels[0].block.index()) {
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
        base: usize,
        s: &mut FusedScratch,
    ) -> Result<Option<Step>, SimError> {
        // ---- preflight: validate the live machine state against the
        // trace's compile-time assumptions; any mismatch declines. The
        // scopes from `base` up are the nest's levels from the outermost,
        // each below the top one inside its inner loop. ----
        let n = f.levels.len();
        let Some(mut depth) = frame.stack.len().checked_sub(base + 1) else {
            return Ok(None);
        };
        if depth >= n {
            return Ok(None);
        }
        s.ivs.clear();
        for (level, scope) in f.levels.iter().zip(&frame.stack[base..]) {
            if scope.block != level.block || (s.ivs.len() < depth && scope.idx != 1) {
                return Ok(None);
            }
            let Some(Some(SimValue::Int(iv))) = frame.env.get(level.iv_slot as usize) else {
                return Ok(None);
            };
            s.ivs.push(*iv);
        }
        s.ivs.resize(n, 0);
        let entry_idx = frame.stack[base + depth].idx;
        let mut pos = if depth + 1 < n {
            // A perfect level: `affine.for` at 0, `affine.yield` at 1.
            if entry_idx > 1 {
                return Ok(None);
            }
            entry_idx
        } else {
            f.insts
                .partition_point(|i| (i.op_pos() as usize) < entry_idx)
        };
        let mut iv = s.ivs[n - 1];

        let bank = &mut s.bank;
        bank.bufs.clear();
        bank.dims.clear();
        bank.owners.clear();
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
            let data = match bank.owners.iter().position(|&o| o == bid) {
                Some(i) => i,
                None => {
                    bank.owners.push(bid);
                    bank.owners.len() - 1
                }
            };
            let dims_start = bank.dims.len() as u32;
            bank.dims.extend_from_slice(&b.data.shape);
            bank.bufs.push(BufRt {
                mem: b.mem,
                cost,
                elem_bytes: b.elem_bytes as u64,
                base_addr: b.base_addr,
                dims_start,
                dims_len: b.data.shape.len() as u32,
                data: data as u32,
                reads: 0,
                writes: 0,
            });
        }

        bank.regs.clear();
        bank.regs.resize(f.n_regs as usize, 0);
        for &(slot, r) in &f.inputs {
            let Ok(SimValue::Int(v)) = self.lookup(frame, slot) else {
                return Ok(None);
            };
            bank.regs[r as usize] = v;
        }
        // Defs already computed this iteration (resuming mid-iteration
        // after a contended yield) are re-loaded from the environment; the
        // zero default is never read before being overwritten, because
        // trace formation rejects use-before-def.
        for &(r, slot, _) in &f.defs {
            if let Some(Some(SimValue::Int(v))) = frame.env.get(slot as usize) {
                bank.regs[r as usize] = *v;
            }
        }
        for (level, &v) in f.levels.iter().zip(&s.ivs).take(depth + 1) {
            bank.regs[level.iv_reg as usize] = v;
        }

        // Per-instruction costs and start offsets; trace names and the
        // processor's trace row when tracing.
        let tracing = self.trace.is_enabled();
        let row = if tracing {
            self.trace_row(p, Pid::Processor)
        } else {
            0
        };
        let module: &'m Module = self.module;
        let body_ops = &module.block(f.inner().block).ops;
        let mut shape = Shape {
            step: f.inner().step,
            upper: f.inner().upper,
            cycles: 0,
            wakes: 0,
            ops: f.insts.len() as u64,
            iv_lo: i64::MIN,
            iv_hi: i64::MAX,
            bulk: !tracing,
        };
        s.insts.clear();
        {
            let hot = &self.procs[p].hot;
            for inst in &f.insts {
                let (cost, waits) = match inst {
                    FusedInst::Load {
                        waits: true, buf, ..
                    }
                    | FusedInst::Store {
                        waits: true, buf, ..
                    } => (bank.bufs[*buf as usize].cost, true),
                    FusedInst::Load { .. } => (hot.load, false),
                    FusedInst::Store { .. } => (hot.store, false),
                    FusedInst::Bin {
                        op, index_typed, ..
                    } => (
                        if *index_typed {
                            0
                        } else {
                            hot.arith[*op as usize]
                        },
                        false,
                    ),
                    FusedInst::Cmp { .. } => (hot.cmpi, false),
                    FusedInst::Sel { .. } => (hot.select, false),
                    FusedInst::Const { .. } | FusedInst::Nop { .. } => (0, false),
                };
                let mut rt = InstRt {
                    cost,
                    waits,
                    start: shape.cycles,
                    ..InstRt::default()
                };
                if tracing && cost > 0 && matches!(inst, FusedInst::Bin { .. }) {
                    if let Some(&op) = body_ops.get(inst.op_pos() as usize) {
                        rt.name = self.trace.name_id(&module.op(op).name);
                    }
                }
                shape.bulk &= !(waits && cost > 0);
                shape.cycles = shape.cycles.saturating_add(cost);
                shape.wakes += u64::from(cost > 0);
                s.insts.push(rt);
            }
        }
        if depth + 1 == n {
            restride(f, &s.bank, &mut s.insts, &mut shape);
        }

        // ---- trace state: engine counters as locals. The wake queue is
        // untouched inside a trace (no pushes, no signal resolutions), so
        // the earliest pending event is a constant contention barrier. An
        // armed snapshot cut caps the barrier too: the trace then exits via
        // `Exit::Yield` at the first timed op at or past the cut — this is
        // where a snapshot requested mid-trace lands. ----
        let mut barrier = self.wake_queue.peek_time().unwrap_or(u64::MAX);
        if let Some(cut) = self.snapshot_at {
            barrier = barrier.min(cut);
        }
        let max_events = self.options.limits.max_events;
        let max_cycles = self.options.limits.max_cycles;
        let entry_clock = self.procs[p].clock;
        let mut t = Tally {
            clock: entry_clock,
            count: self.count,
            last_wake: None,
        };
        // Innermost loop starts in this run: the interpreter's entry into a
        // running innermost loop counts, as does each loop a fused level
        // starts.
        let mut entries = u64::from(depth + 1 == n);
        // The deepest level this run has been in, and whether an innermost
        // iteration finished in it (so every body def was computed).
        let mut reached = depth;
        let mut full = false;
        let iv_reg = f.inner().iv_reg as usize;

        self.hoist(&mut s.bank);
        let exit = 'run: loop {
            if depth + 1 < n {
                // ---- a perfect level: `[affine.for, affine.yield]`, each
                // an interpreted op. ----
                t.count.ops += 1;
                if let Err(e) = self.after_op(&t.count, t.clock) {
                    break Exit::Fail(e);
                }
                if pos == 0 {
                    // `affine.for`: start the next level.
                    depth += 1;
                    reached = reached.max(depth);
                    let level = &f.levels[depth];
                    s.ivs[depth] = level.lower;
                    s.bank.regs[level.iv_reg as usize] = level.lower;
                    if depth + 1 == n {
                        iv = level.lower;
                        entries += 1;
                        restride(f, &s.bank, &mut s.insts, &mut shape);
                    }
                    continue;
                }
                // `affine.yield`, then the iteration boundary.
                let level = &f.levels[depth];
                let next = s.ivs[depth].saturating_add(level.step);
                let continuing = next < level.upper;
                if continuing {
                    s.ivs[depth] = next;
                    s.bank.regs[level.iv_reg as usize] = next;
                    pos = 0;
                }
                t.count.idle += 1;
                if let Err(e) = self.on_idle(&t.count, t.clock) {
                    break Exit::Fail(e);
                }
                if !continuing {
                    if depth == 0 {
                        break Exit::Done;
                    }
                    // The enclosing level's `affine.yield` is next.
                    depth -= 1;
                }
                continue;
            }

            // ---- the innermost level. `exhausted` says whether this
            // pass ended its loop. ----
            let exhausted = 'inner: {
                // Bulk segment: whole iterations with no per-op timing,
                // then one counter step. The exact path below takes the
                // iteration that holds the boundary.
                if pos == 0 {
                    let k = shape.segment_len(iv, &t, barrier, max_events, max_cycles);
                    if k > 0 {
                        let ran = bulk(
                            f,
                            &s.insts,
                            &mut s.bank,
                            &mut self.machine,
                            &shape,
                            iv,
                            k,
                            t.clock,
                        );
                        match ran {
                            Ok(()) => {
                                t.whole(&shape, k);
                                full = true;
                                let last =
                                    iv.wrapping_add(((k - 1) as i64).wrapping_mul(shape.step));
                                let next = last.saturating_add(shape.step);
                                if next >= shape.upper {
                                    iv = last;
                                    break 'inner true;
                                }
                                iv = next;
                                s.bank.regs[iv_reg] = next;
                            }
                            Err((it, at)) => {
                                // Re-run the failing op on the exact path.
                                t.whole(&shape, it);
                                iv = iv.wrapping_add((it as i64).wrapping_mul(shape.step));
                                t.prefix(&s.insts, at);
                                pos = at;
                            }
                        }
                    }
                }

                // Exact path: one op at a time.
                while pos < f.insts.len() {
                    let inst = &f.insts[pos];
                    let rt = &s.insts[pos];
                    t.count.ops += 1;
                    let start = t.clock;
                    let access =
                        match exec::<false>(inst, rt, &mut s.bank, &mut self.machine, start, iv) {
                            Ok(access) => access,
                            Err(e) => break 'run Exit::Fail(e),
                        };
                    if tracing {
                        self.trace_inst(row, inst, rt, start, access);
                    }
                    // Timing: mirrors `advance` + the inline-wake path of
                    // `step_frame`. A timed op whose finish time reaches
                    // the barrier yields (contended — no wake counted);
                    // otherwise the wake is taken inline under the engine's
                    // wake rule.
                    let end = if rt.waits { access.1 } else { start + rt.cost };
                    let budget = if end > start {
                        t.clock = end;
                        if barrier <= t.clock {
                            break 'run Exit::Yield(inst.op_pos());
                        }
                        t.last_wake = Some(t.clock);
                        t.count.wakes += 1;
                        self.on_wake(&t.count, t.clock)
                    } else {
                        self.after_op(&t.count, t.clock)
                    };
                    if let Err(e) = budget {
                        break 'run Exit::Fail(e);
                    }
                    pos += 1;
                }

                // Iteration boundary: the interpreter's end-of-block
                // bookkeeping (loop advance + bounded idle-step spin).
                let next = iv.saturating_add(shape.step);
                let continuing = next < shape.upper;
                if continuing {
                    iv = next;
                    s.bank.regs[iv_reg] = next;
                }
                t.count.idle += 1;
                if let Err(e) = self.on_idle(&t.count, t.clock) {
                    break 'run Exit::Fail(e);
                }
                !continuing
            };
            full = true;
            if !exhausted {
                pos = 0;
                continue;
            }
            s.ivs[depth] = iv;
            if depth == 0 {
                break Exit::Done;
            }
            // The enclosing level's `affine.yield` is next.
            depth -= 1;
            pos = 1;
        };
        self.unhoist(&mut s.bank);

        // ---- trace exit: sync counters, flush batched traffic, write
        // live register state back into the frame. ----
        self.count = t.count;
        self.fused_trace_entries += entries;
        self.procs[p].clock = t.clock;
        if t.clock > entry_clock {
            self.bump_horizon(t.clock);
        }
        if let Some(w) = t.last_wake {
            self.now = w;
        }
        for b in &s.bank.bufs {
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
        if reached + 1 == n {
            s.ivs[n - 1] = iv;
        }
        // The innermost body's defs this run computed: all of them once an
        // iteration finished, else those up to a yield (a def the
        // interpreter never reached stays unset).
        let write_back = |frame: &mut Frame, s: &FusedScratch, yield_pos: Option<u32>| {
            for &(r, slot, pos) in &f.defs {
                if full || yield_pos.is_some_and(|y| pos <= y) {
                    frame.env[slot as usize] = Some(SimValue::Int(s.bank.regs[r as usize]));
                }
            }
            for (level, &v) in f.levels.iter().zip(&s.ivs).take(reached + 1) {
                frame.env[level.iv_slot as usize] = Some(SimValue::Int(v));
            }
        };

        match exit {
            Exit::Fail(e) => Err(e),
            Exit::Done => {
                write_back(frame, s, None);
                frame.stack.truncate(base);
                Ok(Some(Step::Continue))
            }
            Exit::Yield(op_pos) => {
                write_back(frame, s, Some(op_pos));
                // One scope per level, each below the innermost inside its
                // inner loop: update the scopes the run entered with, push
                // the levels it started. `write_back` set every level's iv.
                for (d, level) in f.levels.iter().enumerate() {
                    let idx = if d + 1 < n { 1 } else { op_pos as usize + 1 };
                    match frame.stack.get_mut(base + d) {
                        Some(scope) => scope.idx = idx,
                        None => frame.stack.push(Scope {
                            block: level.block,
                            idx,
                        }),
                    }
                }
                Ok(Some(Step::Yield))
            }
        }
    }

    /// Records an instruction's trace events as the interpreter does: an
    /// access that took time records its port stall, if any, and its
    /// operation slot; a timed binary op records its own slot.
    fn trace_inst(
        &mut self,
        row: u32,
        inst: &FusedInst,
        rt: &InstRt,
        start: u64,
        (astart, end): (u64, u64),
    ) {
        let name = match inst {
            FusedInst::Load { .. } => trace::READ,
            FusedInst::Store { .. } => trace::WRITE,
            FusedInst::Bin { .. } if rt.cost > 0 => {
                self.trace_slot(row, rt.name, TraceCat::Operation, start, rt.cost);
                return;
            }
            _ => return,
        };
        if end > start {
            if astart > start {
                self.trace_slot(row, trace::STALL, TraceCat::Stall, start, astart - start);
            }
            self.trace_slot(row, name, TraceCat::Operation, astart, end - astart);
        }
    }

    /// Moves each distinct buffer's elements out of the machine into
    /// `bank.data` (one vector per `BufId`, so a tensor bound to two slots
    /// is one vector). A shared payload is copied, as the interpreter's
    /// first store would copy it. [`Engine::unhoist`] puts them back.
    fn hoist(&mut self, bank: &mut Bank) {
        bank.data.clear();
        for &bid in &bank.owners {
            let v = match &mut self.machine.buffer_mut(bid).data.data {
                TensorData::Int(a) => match Arc::get_mut(a) {
                    Some(v) => std::mem::take(v),
                    None => {
                        let v = a.as_ref().clone();
                        *a = Arc::default();
                        v
                    }
                },
                // Preflight admits integer tensors only.
                TensorData::Float(_) => Vec::new(),
            };
            bank.data.push(v);
        }
    }

    /// Returns the hoisted elements to their buffers.
    fn unhoist(&mut self, bank: &mut Bank) {
        for (&bid, v) in bank.owners.iter().zip(bank.data.drain(..)) {
            if let TensorData::Int(a) = &mut self.machine.buffer_mut(bid).data.data {
                match Arc::get_mut(a) {
                    Some(slot) => *slot = v,
                    None => *a = Arc::new(v),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shape whose iteration takes `wakes` timed ops (one cycle each)
    /// and `ops` ops, with the trip count and strided range open.
    fn shape(wakes: u64, ops: u64) -> Shape {
        Shape {
            step: 1,
            upper: i64::MAX,
            cycles: wakes,
            wakes,
            ops,
            iv_lo: 0,
            iv_hi: i64::MAX,
            bulk: true,
        }
    }

    /// `segment_len` at a fresh boundary, with no barrier and no budgets.
    fn open_segment(shape: &Shape, wakes: u64, ops: u64, idle: u64) -> u64 {
        let t = Tally {
            clock: 0,
            count: RunCounters { wakes, ops, idle },
            last_wake: None,
        };
        shape.segment_len(0, &t, u64::MAX, u64::MAX, u64::MAX)
    }

    /// Steps one iteration at a time from `count`, adding `per` a step:
    /// the largest `k` such that no count in `(count, count + k·per]` is
    /// `hit` modulo `epoch`.
    fn reference(count: u64, per: u64, epoch: u64, hit: u64) -> u64 {
        let mut k = 0;
        let mut c = count;
        loop {
            for _ in 0..per {
                c += 1;
                if c % epoch == hit {
                    return k;
                }
            }
            k += 1;
        }
    }

    #[test]
    fn segment_stops_before_a_wake_epoch_poll() {
        for per in 1..=5 {
            for wakes in 0..=3 * WAKE_EPOCH {
                assert_eq!(
                    open_segment(&shape(per, 0), wakes, 0, 0),
                    reference(wakes, per, WAKE_EPOCH, 1),
                    "wakes {wakes}, {per} per iteration"
                );
            }
        }
    }

    #[test]
    fn segment_stops_before_an_op_epoch_poll() {
        for per in 1..=5 {
            for ops in 0..=3 * OP_EPOCH {
                assert_eq!(
                    open_segment(&shape(0, per), 0, ops, 0),
                    reference(ops, per, OP_EPOCH, 0),
                    "ops {ops}, {per} per iteration"
                );
            }
        }
    }

    #[test]
    fn segment_stops_before_an_idle_epoch_poll() {
        for idle in 0..=3 * OP_EPOCH {
            assert_eq!(
                open_segment(&shape(0, 0), 0, 0, idle),
                reference(idle, 1, OP_EPOCH, 0),
                "idle {idle}"
            );
        }
    }
}
