//! The generic timed discrete-event simulation engine (§IV).
//!
//! The engine executes an EQueue program directly. It follows the paper's
//! four-stage loop, realised as an event-driven scheduler:
//!
//! 1. **Set up entry** — every processor holds at most one active *frame*
//!    (an executing launch block) plus a FIFO *event queue* of pending
//!    `launch`/`memcpy` events.
//! 2. **Check event queue** — when a processor is woken, the head of its
//!    queue is issued if (and only if) its dependency signal has resolved.
//! 3. **Schedule operation** — interpreting an op inside a frame queries
//!    the component models (processor op costs, memory behaviours,
//!    connection bandwidth) and *reserves* time on each device's schedule
//!    queue; contention shows up as stalls.
//! 4. **Finish operation** — completion times resolve dependency signals,
//!    which cascade through `control_and`/`control_or` combinators and wake
//!    any processors blocked in `await` or at their queue head.
//!
//! The engine is also a *hybrid-dialect interpreter* (Fig. 1): `linalg`
//! ops execute analytically, `affine` loops execute iteration by iteration,
//! and `arith` ops compute real values — so one engine simulates a program
//! at every lowering stage.
//!
//! # Hot-path design: the layout prepass
//!
//! Before the clock starts, a one-shot **layout prepass** ([`Plan::build`])
//! compiles the module into an interpreter-friendly form, in the spirit of
//! compiled-simulation systems (CVC, GSIM): specialise data layout and
//! decode work *once*, not once per event.
//!
//! * Every SSA value is numbered into a **dense slot** within its *frame
//!   scope* (the innermost enclosing `equeue.launch` body, or the top
//!   region). A running frame's environment is a `Vec<Option<SimValue>>`
//!   indexed by slot — no hashing on any value read or write.
//! * Every op is pre-decoded into an [`OpCode`]: operand/result slots and
//!   parsed attribute scalars (`launch`/`memcpy`/`read`/`write` segments,
//!   loop bounds, constants, cmpi predicates, external-op cycle counts) —
//!   so the inner loop dispatches on a plain enum and never touches
//!   attribute maps. Lists are ranges into pooled tables; names and
//!   attributes needed only on rare paths are read from the module by op
//!   id (see [`crate::plan`]). Ops that fail to decode become
//!   [`OpCode::Invalid`] and only error if actually executed, preserving
//!   the lazy semantics of the original interpreter.
//! * Each `equeue.launch` gets a pre-computed **capture map**: exactly the
//!   values its body (transitively) references, as parent-slot → child-slot
//!   pairs. Spawning an event copies just those — with copy-on-write
//!   tensors ([`crate::TensorData`]), each copy is a pointer bump.

use crate::error::{LimitExceeded, LimitKind, Progress};
use crate::interp::{apply_binary, conv2d_int, eval_cmpi, matmul_int};
use crate::library::SimLibrary;
use crate::machine::{
    AccessKind, Component, ComponentKind, HotCycles, Machine, Memory, Processor, RegisterBehavior,
};
use crate::plan::{mem_spec, LoopDims, OpCode, OpInfo, Plan, Slot};
use crate::profile::SimReport;
use crate::queue::EventQueue;
use crate::signal::SignalTable;
use crate::trace::{self, Pid, Trace, TraceCat};
use crate::value::{BufId, CompId, SignalId, SimValue, Tensor, TensorData};
pub use crate::{CancelToken, RunLimits, SimError};
use equeue_dialect::{create_mem_view, ConvDims};
use equeue_ir::{BlockId, Module, OpId, Operation};
use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// Scheduler wakes per epoch: the cadence at which the engine polls the
/// cancel token and the wall-clock deadline (a power of two, so the check is
/// a mask). Cancellation latency is bounded by one epoch.
pub(crate) const WAKE_EPOCH: u64 = 1024;
/// Interpreted-op cadence for the same polls, bounding zero-time op bursts
/// (tight loops that never touch the wake queue).
pub(crate) const OP_EPOCH: u64 = 4096;

/// Cycles per multiply-accumulate when executing `linalg.conv2d` /
/// `linalg.matmul` analytically. The Linalg level is the most abstract
/// (and most pessimistic) estimate in the Fig. 1 hierarchy: a naive
/// scalar schedule with three operand fetches, a multiply, an add, a
/// writeback, and fetch/decode overhead — 8 cycles per MAC. Explicit
/// Affine-level simulation comes in below this, matching the paper's
/// Fig. 11b trend of runtime falling as lowering proceeds.
const LINALG_CYCLES_PER_MAC: u64 = 8;

/// Concurrent access ports of a memory whose `create_mem` sets none.
const DEFAULT_MEM_PORTS: usize = 2;

/// The counters the run budget reads. The engine owns one set; a fused
/// trace runs on a copy and writes it back at trace exit. Both backends
/// apply the budget through the same rules (`Engine::on_wake`,
/// `Engine::after_op`, `Engine::on_idle`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RunCounters {
    /// Scheduler wakes (reported as `events_processed`).
    pub(crate) wakes: u64,
    /// Ops interpreted (reported as `ops_interpreted`).
    pub(crate) ops: u64,
    /// Loop iteration boundaries. Bounded alongside `max_events` so a loop
    /// whose body never comes due (an empty or zero-cycle body) cannot
    /// spin forever. Not reported: purely a safety counter.
    pub(crate) idle: u64,
}

/// Which execution backend interprets launch bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Fused threaded-code execution (the default): static affine loop
    /// bodies are pre-compiled at `Plan::build` time into dispatch-free
    /// traces (see the crate's `fused` module); everything else — and every loop the
    /// trace builder declines — runs on the interpreter. Counters
    /// (cycles/events/ops) are bit-identical to [`Backend::Interp`], and
    /// so is the trace of a traced run: fused traces record the same
    /// events.
    #[default]
    Fused,
    /// Pure op-by-op interpretation — the escape hatch (`--backend interp`
    /// in the bench harness) and the reference for differential testing.
    Interp,
}

/// Simulation options. Every run executes on one thread, in the single
/// sequential scheduler loop; parallelism lives one level up, across
/// independent runs (concurrent [`crate::CompiledModule::simulate`] calls,
/// the bench harness's `--jobs` pool), where it is bit-identical by
/// construction. The default runs the fused backend with tracing off and
/// the default [`RunLimits`].
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Record an operation-level Chrome trace (off by default; a caller
    /// that reads [`SimReport::trace`] turns it on). When off, the engine
    /// skips all trace bookkeeping — no event allocation and no string
    /// formatting on the hot path.
    pub trace: bool,
    /// Resource budgets for this run (cycles, events, live tensor bytes,
    /// wall clock). Violations surface as [`SimError::Limit`].
    pub limits: RunLimits,
    /// Cooperative cancellation: when the token fires, the run stops within
    /// one epoch with [`SimError::Cancelled`] carrying partial statistics.
    pub cancel: Option<CancelToken>,
    /// Execution backend. [`Backend::Fused`] and [`Backend::Interp`]
    /// produce bit-identical cycles, events, ops, and buffer contents; they
    /// differ only in wall-clock speed.
    pub backend: Backend,
}

/// Simulates `module` with the standard library and default options
/// (fused backend, no trace).
///
/// # Errors
///
/// See [`SimError`].
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, OpBuilder};
/// use equeue_dialect::{EqueueBuilder, kinds};
/// use equeue_core::simulate;
///
/// let mut m = Module::new();
/// let blk = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// let pe = b.create_proc(kinds::MAC);
/// let start = b.control_start();
/// let launch = b.launch(start, pe, &[], vec![]);
/// let mut body = OpBuilder::at_end(b.module_mut(), launch.body);
/// body.ext_op("mac", vec![], vec![]);
/// body.ret(vec![]);
/// let done = launch.done;
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// b.await_all(vec![done]);
/// let report = simulate(&m)?;
/// assert_eq!(report.cycles, 1);
/// # Ok::<(), equeue_core::SimError>(())
/// ```
pub fn simulate(module: &Module) -> Result<SimReport, SimError> {
    simulate_with(module, &SimLibrary::standard(), &SimOptions::default())
}

/// Simulates `module` with an explicit library and options.
///
/// # Errors
///
/// See [`SimError`].
pub fn simulate_with(
    module: &Module,
    library: &SimLibrary,
    options: &SimOptions,
) -> Result<SimReport, SimError> {
    let plan = Plan::build(module, library);
    run_with_plan(module, &plan, library, options, Instant::now())
}

/// Executes a module against an already-built [`Plan`]: the compile-once /
/// run-many entry point behind [`crate::CompiledModule`]. All mutable state
/// lives in the per-run [`Engine`]; `module`, `plan`, and `library` are only
/// read, so concurrent runs over one plan are safe.
pub(crate) fn run_with_plan(
    module: &Module,
    plan: &Plan,
    library: &SimLibrary,
    options: &SimOptions,
    start: Instant,
) -> Result<SimReport, SimError> {
    let mut engine = Engine::fresh(module, plan, library, options, start);
    engine.run()?;
    Ok(build_report(&mut engine, start))
}

/// Assembles the final [`SimReport`] from a finished engine. Shared by the
/// plain and resumed entry points: counters are run totals (a resumed run's
/// counters continue from the snapshot), while `execution_time` covers only
/// the window since `start` (the resumed portion, for a resume).
pub(crate) fn build_report(engine: &mut Engine, start: Instant) -> SimReport {
    let mut report = SimReport {
        cycles: engine.horizon,
        execution_time: start.elapsed(),
        events_processed: engine.count.wakes,
        events_spawned: engine.events_spawned,
        peak_live_tensor_bytes: engine.peak_live_tensor_bytes,
        fused_trace_entries: engine.fused_trace_entries,
        ops_interpreted: engine.count.ops,
        trace: std::mem::take(&mut engine.trace),
        ..Default::default()
    };
    report.collect(&engine.machine);
    report
}

/// Records that executor component `comp` runs as processor `idx`.
pub(crate) fn set_proc_of_comp(proc_of_comp: &mut Vec<Option<usize>>, comp: CompId, idx: usize) {
    let i = comp.0 as usize;
    if proc_of_comp.len() <= i {
        proc_of_comp.resize(i + 1, None);
    }
    proc_of_comp[i] = Some(idx);
}

// ---------------------------------------------------------------------------
// Runtime state
// ---------------------------------------------------------------------------

/// A pending event in a processor's event queue. `pub(crate)` so snapshots
/// can write and read queues verbatim.
#[derive(Debug)]
pub(crate) enum EventKind {
    Launch {
        op: OpId,
        env: Vec<Option<SimValue>>,
    },
    Memcpy {
        src: BufId,
        dst: BufId,
        conn: Option<crate::value::ConnId>,
    },
}

#[derive(Debug)]
pub(crate) struct PendingEvent {
    pub(crate) kind: EventKind,
    pub(crate) dep: SignalId,
    pub(crate) done: SignalId,
}

/// One block on a frame's stack and the index of its next op. A loop
/// body's bounds live in the plan and its current iteration in the frame's
/// induction slots.
#[derive(Debug)]
pub(crate) struct Scope {
    pub(crate) block: BlockId,
    pub(crate) idx: usize,
}

/// An executing launch body: a dense slot-indexed environment plus a block
/// stack. `scope` names the frame's [`ScopeLayout`] (diagnostics).
#[derive(Debug)]
pub(crate) struct Frame {
    pub(crate) env: Vec<Option<SimValue>>,
    pub(crate) stack: Vec<Scope>,
    pub(crate) done: SignalId,
    pub(crate) scope: u32,
}

#[derive(Debug)]
pub(crate) struct ProcRuntime {
    pub(crate) comp: CompId,
    pub(crate) queue: VecDeque<PendingEvent>,
    pub(crate) frame: Option<Frame>,
    pub(crate) clock: u64,
    pub(crate) hot: HotCycles,
}

/// A small inline buffer for buffer subscripts (tensor ranks are tiny);
/// spills to the heap only past 8 dimensions.
#[derive(Debug, Default)]
struct IndexBuf {
    inline: [usize; 8],
    len: usize,
    spill: Vec<usize>,
}

impl IndexBuf {
    fn push(&mut self, v: usize) {
        if self.len < self.inline.len() {
            self.inline[self.len] = v;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.push(v);
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[usize] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// What happened when a frame stepped one op.
pub(crate) enum Step {
    /// Keep stepping (zero time passed).
    Continue,
    /// Time passed; yield to the scheduler until `clock`.
    Yield,
    /// The frame is blocked on a signal (already subscribed).
    Blocked,
    /// The frame completed.
    Finished,
}

pub(crate) struct Engine<'m> {
    pub(crate) module: &'m Module,
    pub(crate) plan: &'m Plan,
    pub(crate) lib: &'m SimLibrary,
    pub(crate) options: SimOptions,
    pub(crate) machine: Machine,
    pub(crate) signals: SignalTable,
    /// Per-signal waiter lists: processors whose queue head waits on the
    /// signal, or whose frame is blocked in an `await` on it. Indexed by
    /// signal id (grown lazily). Not serialised — rebuilt from the proc
    /// states on snapshot resume (`rebuild_waiters`).
    waiters: Vec<Vec<usize>>,
    pub(crate) procs: Vec<ProcRuntime>,
    /// Processor index of each executor component, indexed by `CompId`.
    pub(crate) proc_of_comp: Vec<Option<usize>>,
    /// Pending wakes `(time, seq, proc)`. Ordering is `(time, seq)` —
    /// `seq` is unique, so `proc` never tie-breaks.
    pub(crate) wake_queue: EventQueue,
    pub(crate) seq: u64,
    pub(crate) now: u64,
    pub(crate) horizon: u64,
    pub(crate) count: RunCounters,
    /// Events pushed onto processor queues (launches + memcpys issued).
    /// Reported so static spawn-count estimates can be validated against
    /// actual runs; never consulted by limits or scheduling.
    pub(crate) events_spawned: u64,
    /// Bytes of simultaneously-live tensor storage (for
    /// `max_live_tensor_bytes`).
    pub(crate) live_tensor_bytes: u64,
    /// High-water mark of `live_tensor_bytes` over the run (reported; the
    /// static resource-estimation pass upper-bounds it).
    pub(crate) peak_live_tensor_bytes: u64,
    /// Successful fused-trace entries (the fusibility report's runtime
    /// ground truth; `0` under `Backend::Interp`).
    pub(crate) fused_trace_entries: u64,
    /// Absolute wall-clock deadline (run start + `wall_deadline`).
    pub(crate) deadline: Option<Instant>,
    pub(crate) trace: Trace,
    pub(crate) host_mem: Option<CompId>,
    /// Per-run fused-trace scratch (registers, costs, skip set).
    pub(crate) fused: crate::fused::FusedScratch,
    /// When armed (`Some(cut)`), the scheduler pauses before processing the
    /// first event at or after cycle `cut` so the snapshot writer can
    /// serialise the state. Armed only by the snapshot entry point — plain
    /// runs never set it. Read by the fused backend to cap trace barriers.
    pub(crate) snapshot_at: Option<u64>,
    /// Set when [`Engine::run`] returned because it reached `snapshot_at`
    /// (as opposed to draining the wake queue / completing the program).
    pub(crate) snapshot_due: bool,
    /// Wake-path scratch, reused so a wake allocates nothing of its own:
    /// waiter lists drained by a resolution (`subscribe` draws from them),
    /// the processors a resolution wakes, finished frames' scope stacks
    /// (`issue_event` draws from them) and `control_and`/`_or` deps.
    waiter_pool: Vec<Vec<usize>>,
    woken: Vec<usize>,
    stack_pool: Vec<Vec<Scope>>,
    dep_buf: Vec<SignalId>,
}

impl<'m> Engine<'m> {
    /// An engine with no state yet: no components, signals or processors,
    /// every counter at zero. A fresh run starts the host on it
    /// ([`Engine::fresh`]); a resume reads a snapshot into it.
    pub(crate) fn new(
        module: &'m Module,
        plan: &'m Plan,
        lib: &'m SimLibrary,
        options: &SimOptions,
        start: Instant,
    ) -> Self {
        Engine {
            module,
            plan,
            lib,
            options: options.clone(),
            machine: Machine::new(),
            signals: SignalTable::new(),
            waiters: vec![],
            procs: vec![],
            proc_of_comp: vec![],
            wake_queue: EventQueue::new(),
            seq: 0,
            now: 0,
            horizon: 0,
            count: RunCounters::default(),
            events_spawned: 0,
            live_tensor_bytes: 0,
            peak_live_tensor_bytes: 0,
            fused_trace_entries: 0,
            deadline: options.limits.wall_deadline.map(|d| start + d),
            trace: if options.trace {
                Trace::new()
            } else {
                Trace::disabled()
            },
            host_mem: None,
            fused: crate::fused::FusedScratch::new(plan),
            snapshot_at: None,
            snapshot_due: false,
            waiter_pool: vec![],
            woken: vec![],
            stack_pool: vec![],
            dep_buf: vec![],
        }
    }

    /// An engine at cycle 0, its host processor about to interpret the
    /// top block.
    pub(crate) fn fresh(
        module: &'m Module,
        plan: &'m Plan,
        lib: &'m SimLibrary,
        options: &SimOptions,
        start: Instant,
    ) -> Self {
        let mut engine = Self::new(module, plan, lib, options, start);
        // The implicit host processor interprets the top block at time 0.
        engine.add_executor(processor(module, None), None);
        let done = engine.signals.fresh();
        engine.procs[0].frame = Some(Frame {
            env: vec![None; plan.scope_values(0).len()],
            stack: vec![Scope {
                block: module.top_block(),
                idx: 0,
            }],
            done,
            scope: 0,
        });
        engine.schedule(0, 0);
        engine
    }

    /// Adds a component that `origin` created and, since it executes, its
    /// processor runtime.
    fn add_executor(&mut self, kind: ComponentKind, origin: Option<OpId>) -> CompId {
        let comp = self.machine.add_component(kind, origin);
        if let Some(hot) = runtime_costs(self.lib, &self.machine.components[comp.0 as usize]) {
            set_proc_of_comp(&mut self.proc_of_comp, comp, self.procs.len());
            self.procs.push(ProcRuntime {
                comp,
                queue: VecDeque::new(),
                frame: None,
                clock: 0,
                hot,
            });
        }
        comp
    }

    /// The processor index of executor component `comp`.
    fn proc_of(&self, comp: CompId) -> Option<usize> {
        self.proc_of_comp.get(comp.0 as usize).copied().flatten()
    }

    fn schedule(&mut self, time: u64, proc: usize) {
        let t = time.max(self.now);
        self.wake_queue.push(t, self.seq, proc);
        self.seq += 1;
    }

    /// Reconstructs the per-signal waiter lists from the processor states
    /// after a snapshot restore. The runtime invariant is: a processor is
    /// registered on a signal iff (a) it is idle and its queue head's
    /// dependency is that signal, unresolved, or (b) its frame is blocked
    /// in an `await` whose first unresolved dependency is that signal —
    /// and in either case no wake for it is pending in the wake queue (a
    /// pending wake re-discovers the block and re-registers when it pops,
    /// exactly as the live engine does).
    pub(crate) fn rebuild_waiters(&mut self) {
        let scheduled: HashSet<usize> = self.wake_queue.iter().map(|(_, _, p)| p).collect();
        for p in 0..self.procs.len() {
            if scheduled.contains(&p) {
                continue;
            }
            let target = match &self.procs[p].frame {
                None => match self.procs[p].queue.front() {
                    Some(head) if self.signals.resolve_time(head.dep).is_none() => Some(head.dep),
                    _ => None,
                },
                Some(frame) => self.blocked_await_dep(frame),
            };
            if let Some(sig) = target {
                self.subscribe(sig, p);
            }
        }
    }

    /// The first unresolved dependency of the `await` op a frame is parked
    /// on, if its current op is an await. Lookup failures (possible only in
    /// adversarial snapshots) yield `None`; such frames surface as a
    /// deadlock instead of progressing, which is a typed error, not UB.
    fn blocked_await_dep(&self, frame: &Frame) -> Option<SignalId> {
        let scope = frame.stack.last()?;
        let ops = &self.module.block(scope.block).ops;
        let op = *ops.get(scope.idx)?;
        let OpCode::Await { deps } = self.plan.ops[op.index()].code else {
            return None;
        };
        for &d in self.plan.slots(deps) {
            match self.lookup_signal(frame, d) {
                Ok(sig) if self.signals.resolve_time(sig).is_none() => return Some(sig),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        None
    }

    /// Registers `p` as a waiter on `sig` (deduplicated).
    fn subscribe(&mut self, sig: SignalId, p: usize) {
        let i = sig.0 as usize;
        if self.waiters.len() <= i {
            self.waiters.resize_with(i + 1, Vec::new);
        }
        let list = &mut self.waiters[i];
        if list.capacity() == 0 {
            if let Some(spare) = self.waiter_pool.pop() {
                *list = spare;
            }
        }
        if !list.contains(&p) {
            list.push(p);
        }
    }

    pub(crate) fn bump_horizon(&mut self, t: u64) {
        if t > self.horizon {
            self.horizon = t;
        }
    }

    // ---- run budget ---------------------------------------------------------
    // Every run-stopping rule, written once. The interpreter passes the
    // engine's own counters, a fused trace its local copy; `clock` is the
    // stepping processor's clock (the popped wake time in the scheduler).

    /// Partial statistics at the current point of execution (carried by
    /// limit/cancellation errors).
    fn progress(&self, c: &RunCounters, clock: u64) -> Progress {
        Progress {
            cycles: self.horizon.max(clock),
            events: c.wakes,
            ops: c.ops,
        }
    }

    fn limit_err(&self, kind: LimitKind, limit: u64, c: &RunCounters, clock: u64) -> SimError {
        SimError::Limit(LimitExceeded {
            kind,
            limit,
            progress: self.progress(c, clock),
        })
    }

    /// The event budget, applied to `n` wakes or idle steps.
    #[inline]
    fn check_events(&self, n: u64, c: &RunCounters, clock: u64) -> Result<(), SimError> {
        let lim = self.options.limits.max_events;
        if n > lim {
            return Err(self.limit_err(LimitKind::Events, lim, c, clock));
        }
        Ok(())
    }

    /// Epoch-cadence polls: cancellation and the wall-clock deadline. Kept
    /// off the per-wake fast path — the rules below gate on epoch masks.
    #[cold]
    fn poll(&self, c: &RunCounters, clock: u64) -> Result<(), SimError> {
        if let Some(token) = &self.options.cancel {
            if token.is_cancelled() {
                return Err(SimError::Cancelled(self.progress(c, clock)));
            }
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                let ms = self
                    .options
                    .limits
                    .wall_deadline
                    .map_or(0, |w| w.as_millis() as u64);
                return Err(self.limit_err(LimitKind::WallClock, ms, c, clock));
            }
        }
        Ok(())
    }

    /// After a wake is counted: the event budget, the cycle budget, then
    /// the poll on `wakes % WAKE_EPOCH == 1`, so a pre-cancelled run stops
    /// on its very first wake.
    #[inline]
    pub(crate) fn on_wake(&self, c: &RunCounters, clock: u64) -> Result<(), SimError> {
        self.check_events(c.wakes, c, clock)?;
        let lim = self.options.limits.max_cycles;
        if clock > lim {
            return Err(self.limit_err(LimitKind::Cycles, lim, c, clock));
        }
        if c.wakes & (WAKE_EPOCH - 1) == 1 {
            self.poll(c, clock)?;
        }
        Ok(())
    }

    /// After a zero-time op: the poll every `OP_EPOCH` ops, since op bursts
    /// never reach the scheduler's per-wake rule.
    #[inline]
    pub(crate) fn after_op(&self, c: &RunCounters, clock: u64) -> Result<(), SimError> {
        if c.ops & (OP_EPOCH - 1) == 0 {
            self.poll(c, clock)?;
        }
        Ok(())
    }

    /// After an idle step is counted: every `OP_EPOCH` steps, the event
    /// budget (on the step count) and then the poll.
    #[inline]
    pub(crate) fn on_idle(&self, c: &RunCounters, clock: u64) -> Result<(), SimError> {
        if c.idle & (OP_EPOCH - 1) == 0 {
            self.check_events(c.idle, c, clock)?;
            self.poll(c, clock)?;
        }
        Ok(())
    }

    /// The scheduler loop: pops wakes in `(time, seq)` order until the
    /// queue drains (or an armed snapshot cut is reached), then checks for
    /// stuck work.
    pub(crate) fn run(&mut self) -> Result<(), SimError> {
        while let Some(t) = self.wake_queue.peek_time() {
            if self.snapshot_at.is_some_and(|cut| t >= cut) {
                // Snapshot boundary: every event strictly before the cut has
                // been processed. Leave the event untouched (its wake is
                // counted by the resumed run's pop, keeping wake counts
                // bit-identical with an uninterrupted run) and pause.
                self.snapshot_due = true;
                return Ok(());
            }
            let Some((t, _, p)) = self.wake_queue.pop() else {
                break;
            };
            self.now = t;
            self.count.wakes += 1;
            self.on_wake(&self.count, t)?;
            self.wake(p, t)?;
        }
        // Everything drained: check for stuck work.
        let mut stuck = vec![];
        for (i, proc) in self.procs.iter().enumerate() {
            if proc.frame.is_some() && i != 0 {
                stuck.push(format!(
                    "{} has an unfinished frame",
                    self.machine.name(proc.comp)
                ));
            }
            if !proc.queue.is_empty() {
                stuck.push(format!(
                    "{} has {} unissued events",
                    self.machine.name(proc.comp),
                    proc.queue.len()
                ));
            }
        }
        if let Some(host) = &self.procs[0].frame {
            // The host frame must have run to completion too.
            if !host.stack.is_empty() {
                stuck.push("host program did not finish".into());
            }
        }
        if stuck.is_empty() {
            Ok(())
        } else {
            Err(SimError::Deadlock(stuck.join("; ")))
        }
    }

    /// Wakes processor `p` at time `t` and steps it as far as possible.
    fn wake(&mut self, p: usize, t: u64) -> Result<(), SimError> {
        // A processor whose local clock is ahead of the wake time is
        // mid-operation: this wake is a spurious one from a signal
        // cascade. Stepping now would let the processor reserve shared
        // schedule queues ahead of same-time requesters on other
        // processors. Dropping the wake is safe: every state transition
        // that leaves a processor with pending work schedules a wake at
        // (or after) its clock — `advance` at the new clock, and signal
        // resolution at `max(resolve_time, clock)`.
        if self.procs[p].clock > t {
            return Ok(());
        }
        if self.procs[p].clock < t {
            self.procs[p].clock = t;
        }
        loop {
            if self.procs[p].frame.is_none() {
                // Stage 2: check the event queue head.
                let Some(head) = self.procs[p].queue.front() else {
                    return Ok(());
                };
                let dep = head.dep;
                match self.signals.resolve_time(dep) {
                    None => {
                        // Dependency pending: register as a waiter so the
                        // signal's resolution cascade re-wakes exactly this
                        // processor (stage 4).
                        self.subscribe(dep, p);
                        return Ok(());
                    }
                    Some(dep_time) => {
                        if dep_time > self.procs[p].clock {
                            self.procs[p].clock = dep_time;
                        }
                        let Some(event) = self.procs[p].queue.pop_front() else {
                            return Ok(()); // unreachable: front() was Some
                        };
                        self.issue_event(p, event)?;
                        // issue_event may have finished instantly (memcpy) or
                        // installed a frame; loop to continue stepping.
                        continue;
                    }
                }
            }
            // Step the active frame (a burst of ops; see `step_frame`).
            match self.step_frame(p)? {
                Step::Continue => continue,
                Step::Yield => {
                    let clock = self.procs[p].clock;
                    self.schedule(clock, p);
                    return Ok(());
                }
                Step::Blocked => return Ok(()),
                Step::Finished => continue,
            }
        }
    }

    /// Starts a pending event on processor `p` (stage 3 for events).
    fn issue_event(&mut self, p: usize, event: PendingEvent) -> Result<(), SimError> {
        match event.kind {
            EventKind::Launch { op, env } => {
                let OpCode::Launch(launch) = self.plan.ops[op.index()].code else {
                    return Err(SimError::Runtime("launch event for a non-launch op".into()));
                };
                let info = self.plan.launch(launch);
                let mut stack = self.stack_pool.pop().unwrap_or_default();
                stack.push(Scope {
                    block: info.body,
                    idx: 0,
                });
                self.procs[p].frame = Some(Frame {
                    env,
                    stack,
                    done: event.done,
                    scope: info.scope,
                });
                Ok(())
            }
            EventKind::Memcpy { src, dst, conn } => {
                let clock = self.procs[p].clock;
                let end = self.do_memcpy(p, src, dst, conn, clock)?;
                self.procs[p].clock = end;
                self.resolve_signal(event.done, end, vec![]);
                Ok(())
            }
        }
    }

    /// Executes a DMA copy: read `src`, move through `conn`, write `dst`.
    /// Returns the finish time. The three legs are pipelined, so the copy
    /// takes the max of their latencies (plus any schedule-queue stalls).
    fn do_memcpy(
        &mut self,
        p: usize,
        src: BufId,
        dst: BufId,
        conn: Option<crate::value::ConnId>,
        start: u64,
    ) -> Result<u64, SimError> {
        let (src_mem, bytes, elems, src_addr) = {
            let b = self.machine.buffer(src);
            (b.mem, b.bytes() as u64, b.elems(), b.base_addr)
        };
        let (dst_mem, dst_elems, dst_addr) = {
            let b = self.machine.buffer(dst);
            (b.mem, b.elems(), b.base_addr)
        };
        if dst_elems != elems {
            return Err(SimError::Runtime(format!(
                "memcpy size mismatch: src {elems} elems, dst {dst_elems} elems"
            )));
        }
        let no_mem =
            || SimError::Runtime("internal: memcpy endpoint not backed by a memory".into());
        let (_, rd_end, _) = self.machine.memory_mut(src_mem).ok_or_else(no_mem)?.access(
            AccessKind::Read,
            src_addr,
            elems,
            bytes,
            start,
        );
        let (_, wr_end, _) = self.machine.memory_mut(dst_mem).ok_or_else(no_mem)?.access(
            AccessKind::Write,
            dst_addr,
            elems,
            bytes,
            start,
        );
        let mut end = rd_end.max(wr_end);
        if let Some(c) = conn {
            let (_, c_end) = self
                .machine
                .connection_mut(c)
                .reserve(AccessKind::Read, start, bytes);
            let (_, c_end2) =
                self.machine
                    .connection_mut(c)
                    .reserve(AccessKind::Write, start, bytes);
            end = end.max(c_end).max(c_end2);
        }
        // Move the data (an Arc bump under copy-on-write).
        let data = self.machine.buffer(src).data.clone();
        self.machine.buffer_mut(dst).data = data;
        if self.trace.is_enabled() {
            let row = self.trace_row(p, Pid::Dma);
            self.trace_slot(row, trace::MEMCPY, TraceCat::Operation, start, end - start);
        }
        self.bump_horizon(end);
        Ok(end)
    }

    /// Resolves a signal and wakes every processor registered as a waiter
    /// on a signal the resolution cascade fired (stage 4). Waiter lists
    /// replace the historical whole-table broadcast: only processors whose
    /// queue head or blocked await actually depends on a fired signal are
    /// scheduled. This is timing-equivalent — a resolution popping at
    /// `t_r` always carries `resolve_time >= t_r`, so resume times
    /// `max(resolve_time, clock)` never depended on the spurious clock
    /// bumps the broadcast produced — but drops the O(procs) wake storm
    /// per resolution (the fig12 sweep spends most of its 9.26 M wakes
    /// there). Waking in ascending processor order preserves queue sequence
    /// assignment for same-time ties.
    fn resolve_signal(&mut self, sig: SignalId, time: u64, payload: Vec<SimValue>) {
        let mut woken = std::mem::take(&mut self.woken);
        for &f in self.signals.resolve_cascade(sig, time, payload) {
            let Some(list) = self.waiters.get_mut(f.0 as usize) else {
                continue;
            };
            if list.is_empty() {
                continue;
            }
            // A signal resolves once, so its list is never used again:
            // hand its allocation to the next `subscribe`.
            let mut list = std::mem::take(list);
            for &p in &list {
                if !woken.contains(&p) {
                    woken.push(p);
                }
            }
            list.clear();
            self.waiter_pool.push(list);
        }
        self.bump_horizon(time);
        woken.sort_unstable();
        let rt = self.signals.resolve_time(sig).unwrap_or(time);
        for &p in &woken {
            let at = rt.max(self.procs[p].clock);
            self.schedule(at, p);
        }
        woken.clear();
        self.woken = woken;
    }

    // ---- value evaluation -------------------------------------------------

    /// "Used before definition" diagnostic for an empty slot.
    fn undef(&self, frame: &Frame, slot: Slot) -> SimError {
        let v = self.plan.scope_values(frame.scope)[slot as usize];
        SimError::Runtime(format!("value %{v} used before definition in simulation"))
    }

    /// Reads a slot. `strict` controls [`SimValue::Deferred`] handling:
    /// strict lookups fail when the launch payload is not yet available,
    /// lazy ones (used when *spawning* events whose dependency guarantees
    /// the value exists by issue time) keep the `Deferred` marker.
    fn lookup_mode(&self, frame: &Frame, slot: Slot, strict: bool) -> Result<SimValue, SimError> {
        let val = frame.env[slot as usize]
            .as_ref()
            .ok_or_else(|| self.undef(frame, slot))?;
        if let SimValue::Deferred { signal, index } = *val {
            match self.signals.payload(signal).get(index) {
                Some(resolved) => return Ok(resolved.clone()),
                None if strict => {
                    return Err(SimError::Runtime(
                        "launch result used before the launch completed (missing await?)".into(),
                    ))
                }
                None => {}
            }
        }
        Ok(val.clone())
    }

    pub(crate) fn lookup(&self, frame: &Frame, slot: Slot) -> Result<SimValue, SimError> {
        self.lookup_mode(frame, slot, true)
    }

    fn lookup_lazy(&self, frame: &Frame, slot: Slot) -> Result<SimValue, SimError> {
        self.lookup_mode(frame, slot, false)
    }

    fn lookup_signal(&self, frame: &Frame, slot: Slot) -> Result<SignalId, SimError> {
        match self.lookup(frame, slot)? {
            SimValue::Signal(s) => Ok(s),
            other => Err(SimError::Type {
                expected: "a signal",
                got: other.to_string(),
            }),
        }
    }

    fn lookup_comp(&self, frame: &Frame, slot: Slot) -> Result<CompId, SimError> {
        match self.lookup(frame, slot)? {
            SimValue::Component(c) => Ok(c),
            other => Err(SimError::Type {
                expected: "a component",
                got: other.to_string(),
            }),
        }
    }

    fn lookup_buffer(&self, frame: &Frame, slot: Slot) -> Result<BufId, SimError> {
        match self.lookup(frame, slot)? {
            SimValue::Buffer(b) => Ok(b),
            other => Err(SimError::Type {
                expected: "a buffer",
                got: other.to_string(),
            }),
        }
    }

    fn lookup_conn(
        &self,
        frame: &Frame,
        slot: Option<Slot>,
    ) -> Result<Option<crate::value::ConnId>, SimError> {
        match slot {
            Some(s) => match self.lookup(frame, s)? {
                SimValue::Connection(id) => Ok(Some(id)),
                other => Err(SimError::Type {
                    expected: "a connection",
                    got: other.to_string(),
                }),
            },
            None => Ok(None),
        }
    }

    /// Evaluates subscript slots into a stack-allocated [`IndexBuf`] — no
    /// heap allocation on the per-access path.
    fn read_indices(
        &self,
        frame: &Frame,
        slots: &[Slot],
        out: &mut IndexBuf,
    ) -> Result<(), SimError> {
        for &s in slots {
            let v = self.lookup(frame, s)?;
            let i = v.as_int().ok_or_else(|| SimError::Type {
                expected: "an integer subscript",
                got: v.to_string(),
            })?;
            out.push(i.max(0) as usize);
        }
        Ok(())
    }

    // ---- frame stepping ----------------------------------------------------

    /// Interprets a *burst* of ops in `p`'s frame (stages 3 and 4 for
    /// in-frame operations): keeps stepping through zero-time ops, and
    /// through timed ops whenever no other event is due at or before this
    /// processor's advancing clock — those wakes would be the very next
    /// queue pop, so they are taken inline (still counted, so
    /// `events_processed` and the event-limit guard behave exactly as if
    /// each had gone through the queue). Returns `Yield` only when another
    /// processor must run first.
    fn step_frame(&mut self, p: usize) -> Result<Step, SimError> {
        let Some(mut frame) = self.procs[p].frame.take() else {
            return Ok(Step::Blocked); // unreachable: callers check the frame
        };
        let result = loop {
            match self.step_frame_inner(p, &mut frame) {
                Ok(Step::Continue) => {
                    if let Err(e) = self.after_op(&self.count, self.procs[p].clock) {
                        break Err(e);
                    }
                }
                Ok(Step::Yield) => {
                    let clock = self.procs[p].clock;
                    let contended = self
                        .wake_queue
                        .peek_time()
                        .is_some_and(|t_top| t_top <= clock);
                    // An armed snapshot cut behaves like contention: yield to
                    // the scheduler without counting a wake here — the
                    // resumed run's pop of the rescheduled wake counts it,
                    // exactly as the inline count would have.
                    let paused = self.snapshot_at.is_some_and(|cut| clock >= cut);
                    if contended || paused {
                        break Ok(Step::Yield);
                    }
                    self.now = clock;
                    self.count.wakes += 1;
                    if let Err(e) = self.on_wake(&self.count, clock) {
                        break Err(e);
                    }
                }
                other => break other,
            }
        };
        match &result {
            Ok(Step::Finished) => {
                // The done signal was resolved inside; keep the stack's
                // allocation for a later launch.
                let mut stack = frame.stack;
                stack.clear();
                self.stack_pool.push(stack);
            }
            _ => self.procs[p].frame = Some(frame),
        }
        result
    }

    fn step_frame_inner(&mut self, p: usize, frame: &mut Frame) -> Result<Step, SimError> {
        // End-of-block handling: loops iterate, the root scope finishes.
        loop {
            let Some(scope) = frame.stack.last_mut() else {
                return self.finish_frame(p, frame, vec![]);
            };
            let block_len = self.module.block(scope.block).ops.len();
            if scope.idx < block_len {
                break;
            }
            match self.plan.body_loop(scope.block) {
                Some(dims) => {
                    if next_iteration(dims, &mut frame.env)? {
                        scope.idx = 0;
                    } else {
                        frame.stack.pop();
                    }
                    self.count.idle += 1;
                    self.on_idle(&self.count, self.procs[p].clock)?;
                }
                None => {
                    frame.stack.pop();
                    if frame.stack.is_empty() {
                        return self.finish_frame(p, frame, vec![]);
                    }
                }
            }
        }

        // Fused-backend entry: when the current scope is a loop whose body
        // has a pre-compiled trace (and the run hasn't declined it), hand
        // the loop, and every enclosing scope of the same perfect nest, to
        // the trace runner. It executes straight-line instructions —
        // bit-identical counters and trace records — and returns to the
        // event engine only at trace exits (contention, completion, limit
        // epochs). `Ok(None)` means the runtime preflight declined (e.g. a
        // non-integer loop input): the run marks the block skipped and falls
        // through to the interpreter.
        if self.options.backend == Backend::Fused {
            if let Some((base, f)) = self.fused_entry(frame) {
                if let Some(step) = self.run_fused(p, frame, f, base)? {
                    return Ok(step);
                }
            }
        }

        // The end-of-block loop above only breaks while the stack is
        // non-empty with `idx` in range.
        let Some(scope) = frame.stack.last_mut() else {
            return self.finish_frame(p, frame, vec![]);
        };
        let op = self.module.block(scope.block).ops[scope.idx];
        scope.idx += 1;
        if matches!(self.plan.ops[op.index()].code, OpCode::Erased) {
            return Ok(Step::Continue);
        }
        self.count.ops += 1;
        self.exec_op(p, frame, op)
    }

    fn finish_frame(
        &mut self,
        p: usize,
        frame: &mut Frame,
        payload: Vec<SimValue>,
    ) -> Result<Step, SimError> {
        let clock = self.procs[p].clock;
        self.resolve_signal(frame.done, clock, payload);
        self.bump_horizon(clock);
        Ok(Step::Finished)
    }

    /// Binds an op's `index`-th result in the frame.
    fn bind(&self, frame: &mut Frame, info: &OpInfo, index: usize, value: SimValue) {
        frame.env[self.plan.slots(info.results)[index] as usize] = Some(value);
    }

    /// Executes one pre-decoded op inside a frame. Returns how the
    /// scheduler should proceed.
    #[allow(clippy::too_many_lines)]
    fn exec_op(&mut self, p: usize, frame: &mut Frame, op: OpId) -> Result<Step, SimError> {
        // `plan` and `module` are copies of the `&'m` references, so `info`
        // and the op's module data borrow them, not `self` — the
        // machine/signal state stays mutable.
        let plan: &'m Plan = self.plan;
        let module: &'m Module = self.module;
        let data = module.op(op);
        let info = &plan.ops[op.index()];
        let clock = self.procs[p].clock;
        // Attribute strings are read from the module, only on the rare
        // paths that need them; decode has checked they are present.
        let attr_str = |name: &str| data.attrs.str(name).unwrap_or_default();
        match info.code {
            OpCode::Erased => Ok(Step::Continue),

            // ---- structure specification (elaboration, free) ----
            OpCode::CreateProc => {
                let comp = self.add_executor(processor(module, Some(op)), Some(op));
                self.bind(frame, info, 0, SimValue::Component(comp));
                Ok(Step::Continue)
            }
            OpCode::CreateMem => {
                let memory = ComponentKind::Memory(build_memory(module, self.lib, op)?);
                let comp = self.machine.add_component(memory, Some(op));
                self.bind(frame, info, 0, SimValue::Component(comp));
                Ok(Step::Continue)
            }
            OpCode::CreateDma => {
                let comp = self.add_executor(ComponentKind::Dma, Some(op));
                self.bind(frame, info, 0, SimValue::Component(comp));
                Ok(Step::Continue)
            }
            OpCode::CreateComp { children } => {
                let names = comp_names(data);
                let children = plan.slots(children);
                if names.len() != children.len() {
                    return Err(SimError::Port(format!(
                        "create_comp has {} names for {} children",
                        names.len(),
                        children.len()
                    )));
                }
                let kids: Vec<CompId> = children
                    .iter()
                    .map(|&s| self.lookup_comp(frame, s))
                    .collect::<Result<_, _>>()?;
                let comp = self.machine.add_composite(names, &kids);
                self.machine.components[comp.0 as usize].origin = Some(op);
                self.trace.renamed(&kids);
                self.bind(frame, info, 0, SimValue::Component(comp));
                Ok(Step::Continue)
            }
            OpCode::AddComp { target, children } => {
                let names = comp_names(data);
                let children = plan.slots(children);
                if names.len() != children.len() {
                    return Err(SimError::Port(format!(
                        "add_comp has {} names for {} children",
                        names.len(),
                        children.len()
                    )));
                }
                let target = self.lookup_comp(frame, target)?;
                let kids: Vec<CompId> = children
                    .iter()
                    .map(|&s| self.lookup_comp(frame, s))
                    .collect::<Result<_, _>>()?;
                self.machine
                    .extend_composite(target, names, &kids)
                    .map_err(SimError::Port)?;
                self.trace.renamed(&kids);
                Ok(Step::Continue)
            }
            OpCode::GetComp { target } => {
                let target = self.lookup_comp(frame, target)?;
                let child = attr_str("name");
                let found = self.machine.child(target, child).ok_or_else(|| {
                    SimError::Port(format!(
                        "component '{}' has no child '{child}'",
                        self.machine.name(target)
                    ))
                })?;
                self.bind(frame, info, 0, SimValue::Component(found));
                Ok(Step::Continue)
            }
            OpCode::CreateConnection { kind, bandwidth } => {
                let conn = self.machine.add_connection(kind, bandwidth);
                self.machine.connection_mut(conn).origin = Some(op);
                self.bind(frame, info, 0, SimValue::Connection(conn));
                Ok(Step::Continue)
            }

            // ---- data movement ----
            OpCode::Alloc {
                mem,
                elem_bytes,
                is_int,
            } => {
                let mem = self.lookup_comp(frame, mem)?;
                let shape = result_shape(module, data);
                self.charge_tensor_bytes(shape, elem_bytes as usize, clock)?;
                let buf = self
                    .machine
                    .alloc_buffer(mem, shape.to_vec(), elem_bytes as usize, is_int)
                    .map_err(SimError::Port)?;
                self.bind(frame, info, 0, SimValue::Buffer(buf));
                Ok(Step::Continue)
            }
            OpCode::MemrefAlloc { elem_bytes, is_int } => {
                let shape = result_shape(module, data);
                self.charge_tensor_bytes(shape, elem_bytes as usize, clock)?;
                let host_mem = self.host_memory();
                let buf = self
                    .machine
                    .alloc_buffer(host_mem, shape.to_vec(), elem_bytes as usize, is_int)
                    .map_err(SimError::Port)?;
                self.bind(frame, info, 0, SimValue::Buffer(buf));
                Ok(Step::Continue)
            }
            OpCode::Dealloc { buf } => {
                let buf = self.lookup_buffer(frame, buf)?;
                let freed = self.machine.dealloc_buffer(buf);
                self.live_tensor_bytes = self.live_tensor_bytes.saturating_sub(freed as u64);
                Ok(Step::Continue)
            }
            OpCode::Read {
                buffer,
                indices,
                conn,
            } => {
                let buf = self.lookup_buffer(frame, buffer)?;
                let mut idx = IndexBuf::default();
                self.read_indices(frame, plan.slots(indices), &mut idx)?;
                let conn = self.lookup_conn(frame, conn.get())?;
                let (value, end) = self.access_buffer(
                    p,
                    AccessKind::Read,
                    buf,
                    idx.as_slice(),
                    None,
                    conn,
                    clock,
                )?;
                let value = value
                    .ok_or_else(|| SimError::Runtime("internal: read produced no value".into()))?;
                self.bind(frame, info, 0, value);
                self.advance(p, end)
            }
            OpCode::Write {
                value,
                buffer,
                indices,
                conn,
            } => {
                let value = self.lookup(frame, value)?;
                let buf = self.lookup_buffer(frame, buffer)?;
                let mut idx = IndexBuf::default();
                self.read_indices(frame, plan.slots(indices), &mut idx)?;
                let conn = self.lookup_conn(frame, conn.get())?;
                let (_, end) = self.access_buffer(
                    p,
                    AccessKind::Write,
                    buf,
                    idx.as_slice(),
                    Some(value),
                    conn,
                    clock,
                )?;
                self.advance(p, end)
            }
            OpCode::AffineLoad { buffer, indices } => {
                let buf = self.lookup_buffer(frame, buffer)?;
                let mut idx = IndexBuf::default();
                self.read_indices(frame, plan.slots(indices), &mut idx)?;
                let (value, _) = self.access_buffer(
                    p,
                    AccessKind::Read,
                    buf,
                    idx.as_slice(),
                    None,
                    None,
                    clock,
                )?;
                let value = value
                    .ok_or_else(|| SimError::Runtime("internal: load produced no value".into()))?;
                self.bind(frame, info, 0, value);
                let cycles = self.procs[p].hot.load;
                self.advance(p, clock + cycles)
            }
            OpCode::AffineStore {
                value,
                buffer,
                indices,
            } => {
                let value = self.lookup(frame, value)?;
                let buf = self.lookup_buffer(frame, buffer)?;
                let mut idx = IndexBuf::default();
                self.read_indices(frame, plan.slots(indices), &mut idx)?;
                self.access_buffer(
                    p,
                    AccessKind::Write,
                    buf,
                    idx.as_slice(),
                    Some(value),
                    None,
                    clock,
                )?;
                let cycles = self.procs[p].hot.store;
                self.advance(p, clock + cycles)
            }

            // ---- events and control ----
            OpCode::Memcpy {
                dep,
                src,
                dst,
                dma,
                conn,
            } => {
                let dep = self.lookup_signal(frame, dep)?;
                let src = self.lookup_buffer(frame, src)?;
                let dst = self.lookup_buffer(frame, dst)?;
                let dma = self.lookup_comp(frame, dma)?;
                let conn = self.lookup_conn(frame, conn.get())?;
                let done = self.signals.fresh();
                self.bind(frame, info, 0, SimValue::Signal(done));
                let target = self.proc_of(dma).ok_or_else(|| {
                    SimError::Port(format!(
                        "memcpy target '{}' is not an executor",
                        self.machine.name(dma)
                    ))
                })?;
                self.events_spawned += 1;
                self.procs[target].queue.push_back(PendingEvent {
                    kind: EventKind::Memcpy { src, dst, conn },
                    dep,
                    done,
                });
                self.schedule(clock, target);
                Ok(Step::Continue)
            }
            OpCode::Launch(launch) => {
                let l = plan.launch(launch);
                let dep = self.lookup_signal(frame, l.dep)?;
                let proc_comp = self.lookup_comp(frame, l.proc)?;
                // Snapshot exactly the values the body references (the
                // pre-computed capture map), then bind explicit captures
                // to block args. Copy-on-write makes each copy cheap.
                let mut env: Vec<Option<SimValue>> = vec![None; plan.scope_values(l.scope).len()];
                for pair in plan.slots(l.captures).chunks_exact(2) {
                    if let Some(v) = &frame.env[pair[0] as usize] {
                        let v = if let SimValue::Deferred { signal, index } = *v {
                            self.signals
                                .payload(signal)
                                .get(index)
                                .cloned()
                                .unwrap_or(SimValue::Deferred { signal, index })
                        } else {
                            v.clone()
                        };
                        env[pair[1] as usize] = Some(v);
                    }
                }
                for pair in plan.slots(l.arg_binds).chunks_exact(2) {
                    env[pair[1] as usize] = Some(self.lookup_lazy(frame, pair[0])?);
                }
                let done = self.signals.fresh();
                let results = plan.slots(info.results);
                frame.env[results[0] as usize] = Some(SimValue::Signal(done));
                for (i, &r) in results.iter().enumerate().skip(1) {
                    frame.env[r as usize] = Some(SimValue::Deferred {
                        signal: done,
                        index: i - 1,
                    });
                }
                let target = self.proc_of(proc_comp).ok_or_else(|| {
                    SimError::Port(format!(
                        "launch target '{}' is not an executor",
                        self.machine.name(proc_comp)
                    ))
                })?;
                self.events_spawned += 1;
                self.procs[target].queue.push_back(PendingEvent {
                    kind: EventKind::Launch { op, env },
                    dep,
                    done,
                });
                self.schedule(clock, target);
                Ok(Step::Continue)
            }
            OpCode::ControlStart => {
                let sig = self.signals.resolved_at(clock);
                self.bind(frame, info, 0, SimValue::Signal(sig));
                Ok(Step::Continue)
            }
            OpCode::Control { and, deps } => {
                let mut sigs = std::mem::take(&mut self.dep_buf);
                sigs.clear();
                for &s in plan.slots(deps) {
                    sigs.push(self.lookup_signal(frame, s)?);
                }
                let sig = if and {
                    self.signals.new_and(&sigs)
                } else {
                    self.signals.new_or(&sigs)
                };
                self.dep_buf = sigs;
                self.bind(frame, info, 0, SimValue::Signal(sig));
                Ok(Step::Continue)
            }
            OpCode::Await { deps } => {
                let mut latest = clock;
                for &d in plan.slots(deps) {
                    let sig = self.lookup_signal(frame, d)?;
                    match self.signals.resolve_time(sig) {
                        Some(t) => latest = latest.max(t),
                        None => {
                            // Re-run this await when the signal fires. The
                            // await restarts from its first dependency, so
                            // registering on the first unresolved one is
                            // enough — later ones are (re-)checked then.
                            self.subscribe(sig, p);
                            if let Some(scope) = frame.stack.last_mut() {
                                scope.idx -= 1;
                            }
                            return Ok(Step::Blocked);
                        }
                    }
                }
                self.procs[p].clock = latest;
                Ok(Step::Continue)
            }
            OpCode::Return { values } => {
                let payload: Vec<SimValue> = plan
                    .slots(values)
                    .iter()
                    .map(|&s| self.lookup(frame, s))
                    .collect::<Result<_, _>>()?;
                self.finish_frame(p, frame, payload)
            }
            OpCode::ExtOp { cycles } => {
                let sig = || attr_str("signature");
                let cycles = cycles.ok_or_else(|| {
                    SimError::Unsupported(format!(
                        "no simulator-library implementation for equeue.op signature '{}'",
                        sig()
                    ))
                })?;
                for i in 0..info.results.len() {
                    self.bind(frame, info, i, SimValue::Unit);
                }
                let end = clock.saturating_add(cycles);
                if self.trace.is_enabled() {
                    let name = self.trace.name_id(sig());
                    let row = self.trace_row(p, Pid::Processor);
                    self.trace_slot(row, name, TraceCat::Operation, clock, cycles);
                }
                self.advance(p, end)
            }

            // ---- loops ----
            // `affine.parallel` is interpreted sequentially at the Affine
            // level; the --parallel-to-equeue pass lowers it to true
            // concurrency.
            OpCode::For { body, .. } | OpCode::Parallel { body, .. } => {
                let Some(dims) = plan.loop_dims(&info.code) else {
                    return Ok(Step::Continue); // unreachable: a loop op has dims
                };
                if dims.lowers.iter().zip(dims.uppers).all(|(l, u)| l < u) {
                    for (&iv, &lower) in dims.ivs.iter().zip(dims.lowers) {
                        frame.env[iv as usize] = Some(SimValue::Int(lower));
                    }
                    frame.stack.push(Scope {
                        block: body,
                        idx: 0,
                    });
                }
                Ok(Step::Continue)
            }
            OpCode::Yield => Ok(Step::Continue),

            // ---- linalg (analytic + functional) ----
            OpCode::Conv2d {
                dims,
                ifmap,
                weights,
                ofmap,
            } => self.exec_conv2d(p, frame, plan.conv(dims), ifmap, weights, ofmap),
            OpCode::Matmul { a, b, c } => self.exec_matmul(p, frame, a, b, c),
            OpCode::Fill { scalar, buffer } => self.exec_fill(p, frame, scalar, buffer),

            // ---- arith ----
            OpCode::ConstInt(v) => {
                self.bind(frame, info, 0, SimValue::Int(v));
                Ok(Step::Continue)
            }
            OpCode::ConstFloat(v) => {
                self.bind(frame, info, 0, SimValue::Float(v));
                Ok(Step::Continue)
            }
            OpCode::Cmpi { pred, lhs, rhs } => {
                let a = self.lookup(frame, lhs)?;
                let b = self.lookup(frame, rhs)?;
                let pred = pred.ok_or_else(|| attr_str("predicate"));
                let v = eval_cmpi(pred, &a, &b).map_err(SimError::Runtime)?;
                self.bind(frame, info, 0, v);
                let cycles = self.procs[p].hot.cmpi;
                self.advance(p, clock + cycles)
            }
            OpCode::Select {
                cond,
                on_true,
                on_false,
            } => {
                let c = self.lookup(frame, cond)?;
                let v = if c.as_int().unwrap_or(0) != 0 {
                    self.lookup(frame, on_true)?
                } else {
                    self.lookup(frame, on_false)?
                };
                self.bind(frame, info, 0, v);
                let cycles = self.procs[p].hot.select;
                self.advance(p, clock + cycles)
            }
            OpCode::Binary {
                kind,
                lhs,
                rhs,
                index_typed,
            } => {
                let a = self.lookup(frame, lhs)?;
                let b = self.lookup(frame, rhs)?;
                let op = kind.ok_or_else(|| {
                    SimError::Runtime(format!("unknown binary op '{}'", data.name))
                })?;
                let v = apply_binary(op, &a, &b).map_err(SimError::Runtime)?;
                self.bind(frame, info, 0, v);
                // Index-typed arithmetic is address generation, which the
                // memory pipeline absorbs; it costs no datapath cycles.
                let cycles = if index_typed {
                    0
                } else {
                    self.procs[p].hot.arith[op as usize]
                };
                if cycles > 0 && self.trace.is_enabled() {
                    let name = self.trace.name_id(&data.name);
                    let row = self.trace_row(p, Pid::Processor);
                    self.trace_slot(row, name, TraceCat::Operation, clock, cycles);
                }
                self.advance(p, clock + cycles)
            }

            OpCode::Invalid(ref msg) => Err(SimError::Layout {
                op: data.name.to_string(),
                msg: msg.to_string(),
            }),
            OpCode::Unsupported => Err(SimError::Unsupported(format!(
                "op '{}' is not simulatable",
                data.name
            ))),
        }
    }

    /// A timed read/write of a buffer: reserves the memory's schedule queue
    /// and the optional connection, records traffic and trace, and applies
    /// the data effect. Returns `(read value, finish time)`.
    #[allow(clippy::too_many_arguments)]
    fn access_buffer(
        &mut self,
        p: usize,
        kind: AccessKind,
        buf: BufId,
        indices: &[usize],
        value: Option<SimValue>,
        conn: Option<crate::value::ConnId>,
        start: u64,
    ) -> Result<(Option<SimValue>, u64), SimError> {
        let (mem, elem_bytes, base_addr, total_elems, flat) = {
            let b = self.machine.buffer(buf);
            let flat = if indices.is_empty() {
                None
            } else {
                Some(
                    b.data
                        .try_flatten_index(indices)
                        .map_err(SimError::Runtime)?,
                )
            };
            (b.mem, b.elem_bytes, b.base_addr, b.elems(), flat)
        };
        let elems = if indices.is_empty() { total_elems } else { 1 };
        let bytes = (elems * elem_bytes) as u64;
        let addr = base_addr + flat.unwrap_or(0);
        // Fused latency + port reservation + traffic accounting: one
        // component borrow per access (see [`Memory::access`]); zero-latency
        // memories skip the port scan.
        let (mstart, mend, mem_cycles) = self
            .machine
            .memory_mut(mem)
            .ok_or_else(|| SimError::Runtime("internal: buffer not backed by a memory".into()))?
            .access(kind, addr, elems, bytes, start);
        let mut end = mend;
        let mut astart = if mem_cycles > 0 { mstart } else { start };
        if let Some(c) = conn {
            let (cstart, cend) = self
                .machine
                .connection_mut(c)
                .reserve_spanning(kind, start, bytes, mem_cycles);
            end = end.max(cend);
            astart = astart.max(cstart.min(end));
        }

        // Data effect.
        let out = match kind {
            AccessKind::Read => {
                let b = self.machine.buffer(buf);
                match flat {
                    None if total_elems == 1 => Some(element_value(&b.data, 0)),
                    // Copy-on-write: cloning the tensor is an Arc bump.
                    None => Some(SimValue::Tensor(b.data.clone())),
                    Some(flat) => Some(element_value(&b.data, flat)),
                }
            }
            AccessKind::Write => {
                let v = value
                    .ok_or_else(|| SimError::Runtime("internal: write without a value".into()))?;
                let b = self.machine.buffer_mut(buf);
                write_value(b, flat, v).map_err(SimError::Runtime)?;
                None
            }
        };

        // Trace: stall slot (schedule-queue wait) then the operation slot.
        if end > start && self.trace.is_enabled() {
            let row = self.trace_row(p, Pid::Processor);
            if astart > start {
                let dur = astart - start;
                self.trace_slot(row, trace::STALL, TraceCat::Stall, start, dur);
            }
            let name = match kind {
                AccessKind::Read => trace::READ,
                AccessKind::Write => trace::WRITE,
            };
            self.trace_slot(row, name, TraceCat::Operation, astart, end - astart);
        }
        Ok((out, end))
    }

    /// The trace row of processor `p`'s events under `pid`.
    pub(crate) fn trace_row(&mut self, p: usize, pid: Pid) -> u32 {
        let comp = self.procs[p].comp;
        let machine = &self.machine;
        self.trace.comp_row(comp, pid, || machine.name(comp))
    }

    /// Records one trace slot on `row` (from [`Engine::trace_row`]): the
    /// one place the interpreter and fused traces record an event.
    pub(crate) fn trace_slot(
        &mut self,
        row: u32,
        name: trace::NameId,
        cat: TraceCat,
        ts: u64,
        dur: u64,
    ) {
        self.trace.push(name, cat, ts, dur, row);
    }

    fn exec_conv2d(
        &mut self,
        p: usize,
        frame: &mut Frame,
        dims: ConvDims,
        ifmap: Slot,
        weights: Slot,
        ofmap: Slot,
    ) -> Result<Step, SimError> {
        let ifmap = self.lookup_buffer(frame, ifmap)?;
        let weights = self.lookup_buffer(frame, weights)?;
        let ofmap = self.lookup_buffer(frame, ofmap)?;
        // Structural validation before the functional kernel: the filter
        // must fit inside the input, and every operand buffer must hold
        // exactly the elements the dims describe — `conv2d_int` indexes
        // against these products.
        if dims.fh > dims.h || dims.fw > dims.w {
            return Err(SimError::Runtime(format!(
                "conv2d filter {}x{} larger than input {}x{}",
                dims.fh, dims.fw, dims.h, dims.w
            )));
        }
        let (eh, ew) = (dims.h - dims.fh + 1, dims.w - dims.fw + 1);
        let product = |parts: &[usize]| parts.iter().try_fold(1usize, |a, &d| a.checked_mul(d));
        let sizes = (
            product(&[dims.c, dims.h, dims.w]),
            product(&[dims.n, dims.c, dims.fh, dims.fw]),
            product(&[dims.n, eh, ew]),
            product(&[eh, ew, dims.n, dims.fh, dims.fw, dims.c]),
        );
        let (Some(ifmap_elems), Some(weight_elems), Some(ofmap_elems), Some(macs)) = sizes else {
            return Err(SimError::Runtime("conv2d dimensions overflow".into()));
        };
        // Functional result.
        let iv = int_data(&self.machine.buffer(ifmap).data)?;
        let wv = int_data(&self.machine.buffer(weights).data)?;
        let out_elems = self.machine.buffer(ofmap).elems();
        if iv.len() != ifmap_elems || wv.len() != weight_elems || out_elems != ofmap_elems {
            return Err(SimError::Runtime(format!(
                "conv2d operand sizes ({}, {}, {out_elems}) do not match dims \
                 ({ifmap_elems}, {weight_elems}, {ofmap_elems})",
                iv.len(),
                wv.len()
            )));
        }
        let mut ov = vec![0i64; ofmap_elems];
        conv2d_int(
            &iv, &wv, &mut ov, dims.c, dims.h, dims.w, dims.n, dims.fh, dims.fw,
        );
        set_int_data(&mut self.machine.buffer_mut(ofmap).data, ov);
        // Analytic timing: a naive scalar schedule costs
        // `LINALG_CYCLES_PER_MAC` per MAC, streaming operands once.
        let clock = self.procs[p].clock;
        let cycles = (macs as u64).saturating_mul(LINALG_CYCLES_PER_MAC);
        self.charge_operands([
            (ifmap, AccessKind::Read),
            (weights, AccessKind::Read),
            (ofmap, AccessKind::Write),
        ]);
        if self.trace.is_enabled() {
            let row = self.trace_row(p, Pid::Processor);
            self.trace_slot(row, trace::CONV2D, TraceCat::Operation, clock, cycles);
        }
        self.advance(p, clock.saturating_add(cycles))
    }

    fn exec_matmul(
        &mut self,
        p: usize,
        frame: &mut Frame,
        a: Slot,
        b: Slot,
        c: Slot,
    ) -> Result<Step, SimError> {
        let a = self.lookup_buffer(frame, a)?;
        let b = self.lookup_buffer(frame, b)?;
        let c = self.lookup_buffer(frame, c)?;
        // Structural validation before the functional kernel: rank-2
        // operands with agreeing inner dimensions — `matmul_int` indexes
        // against these products.
        let rank2 = |buf: BufId| -> Result<(usize, usize), SimError> {
            let s = &self.machine.buffer(buf).data.shape;
            match s[..] {
                [rows, cols] => Ok((rows, cols)),
                _ => Err(SimError::Runtime(format!(
                    "matmul operand must be rank-2, got shape {s:?}"
                ))),
            }
        };
        let (m, k) = rank2(a)?;
        let (bk, n) = rank2(b)?;
        let (cm, cn) = rank2(c)?;
        if bk != k || cm != m || cn != n {
            return Err(SimError::Runtime(format!(
                "matmul shape mismatch: {m}x{k} * {bk}x{n} -> {cm}x{cn}"
            )));
        }
        let product = |parts: &[usize]| parts.iter().try_fold(1usize, |x, &d| x.checked_mul(d));
        let sizes = (
            product(&[m, k]),
            product(&[k, n]),
            product(&[m, n]),
            product(&[m, n, k]),
        );
        let (Some(a_elems), Some(b_elems), Some(out_elems), Some(mac_count)) = sizes else {
            return Err(SimError::Runtime("matmul dimensions overflow".into()));
        };
        let av = int_data(&self.machine.buffer(a).data)?;
        let bv = int_data(&self.machine.buffer(b).data)?;
        if av.len() != a_elems || bv.len() != b_elems {
            return Err(SimError::Runtime(format!(
                "matmul operand sizes ({}, {}) do not match shapes {m}x{k}, {k}x{n}",
                av.len(),
                bv.len()
            )));
        }
        let mut cv = vec![0i64; out_elems];
        matmul_int(&av, &bv, &mut cv, m, k, n);
        set_int_data(&mut self.machine.buffer_mut(c).data, cv);
        let clock = self.procs[p].clock;
        let cycles = (mac_count as u64).saturating_mul(LINALG_CYCLES_PER_MAC);
        self.charge_operands([
            (a, AccessKind::Read),
            (b, AccessKind::Read),
            (c, AccessKind::Write),
        ]);
        if self.trace.is_enabled() {
            let row = self.trace_row(p, Pid::Processor);
            self.trace_slot(row, trace::MATMUL, TraceCat::Operation, clock, cycles);
        }
        self.advance(p, clock.saturating_add(cycles))
    }

    fn exec_fill(
        &mut self,
        p: usize,
        frame: &mut Frame,
        scalar: Slot,
        buffer: Slot,
    ) -> Result<Step, SimError> {
        let scalar = self.lookup(frame, scalar)?;
        let buf = self.lookup_buffer(frame, buffer)?;
        let elems = self.machine.buffer(buf).elems();
        let b = self.machine.buffer_mut(buf);
        match (&mut b.data.data, &scalar) {
            (TensorData::Int(ints), s) => {
                let x = s
                    .as_int()
                    .ok_or_else(|| SimError::Runtime("fill type mismatch".into()))?;
                b.data.data = TensorData::from_ints(vec![x; ints.len()]);
            }
            (TensorData::Float(floats), s) => {
                let x = s
                    .as_float()
                    .ok_or_else(|| SimError::Runtime("fill type mismatch".into()))?;
                b.data.data = TensorData::from_floats(vec![x; floats.len()]);
            }
        }
        self.charge_operands([(buf, AccessKind::Write)]);
        let clock = self.procs[p].clock;
        let cycles = elems as u64;
        self.advance(p, clock.saturating_add(cycles))
    }

    /// Charges each operand buffer's whole size once to its memory's
    /// traffic counters: the analytic linalg kernels stream every operand
    /// once.
    fn charge_operands<const N: usize>(&mut self, operands: [(BufId, AccessKind); N]) {
        for (buf, kind) in operands {
            let b = self.machine.buffer(buf);
            let (mem, bytes) = (b.mem, b.bytes() as u64);
            if let Some(m) = self.machine.memory_mut(mem) {
                m.count(kind, bytes);
            }
        }
    }

    /// Advances the processor's clock to `end`; yields when time passed.
    fn advance(&mut self, p: usize, end: u64) -> Result<Step, SimError> {
        let clock = self.procs[p].clock;
        if end > clock {
            self.procs[p].clock = end;
            self.bump_horizon(end);
            Ok(Step::Yield)
        } else {
            Ok(Step::Continue)
        }
    }

    /// Accounts a pending tensor allocation against `max_live_tensor_bytes`
    /// — checked *before* the backing store is allocated, so an oversized
    /// request errors out instead of exhausting host memory.
    fn charge_tensor_bytes(
        &mut self,
        shape: &[usize],
        elem_bytes: usize,
        t: u64,
    ) -> Result<(), SimError> {
        let bytes = shape
            .iter()
            .try_fold(elem_bytes, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| SimError::Port(format!("allocation of shape {shape:?} overflows")))?
            as u64;
        self.live_tensor_bytes = self.live_tensor_bytes.saturating_add(bytes);
        self.peak_live_tensor_bytes = self.peak_live_tensor_bytes.max(self.live_tensor_bytes);
        let lim = self.options.limits.max_live_tensor_bytes;
        if self.live_tensor_bytes > lim {
            return Err(self.limit_err(LimitKind::LiveTensorBytes, lim, &self.count, t));
        }
        Ok(())
    }

    /// The host scratch memory, added on first use.
    fn host_memory(&mut self) -> CompId {
        if let Some(m) = self.host_mem {
            return m;
        }
        let m = ComponentKind::Memory(host_scratch());
        let m = self.machine.add_component(m, None);
        self.host_mem = Some(m);
        m
    }
}

/// The implicit host memory backing `memref.alloc` (unbounded,
/// register-speed).
pub(crate) fn host_scratch() -> Memory {
    let model = Box::new(RegisterBehavior);
    Memory::new("HostMem".into(), usize::MAX / 2, 32, 1, 1, model, 0.0)
}

/// The processor an `equeue.create_proc` op creates, or for `None` the
/// implicit host processor, component 0, which interprets the top block.
pub(crate) fn processor(module: &Module, op: Option<OpId>) -> ComponentKind {
    let kind = op.map_or("Host", |op| {
        module.op(op).attrs.str("kind").unwrap_or_default()
    });
    ComponentKind::Processor(Processor {
        kind: kind.to_string(),
    })
}

/// The memory an `equeue.create_mem` op creates: its library timing
/// model, capacity, banks, ports and energy per access.
///
/// # Errors
///
/// [`SimError::Port`] when the capacity overflows, and
/// [`SimError::Layout`] when the library's factory rejects the op's
/// attributes.
pub(crate) fn build_memory(
    module: &Module,
    lib: &SimLibrary,
    op: OpId,
) -> Result<Memory, SimError> {
    let spec = mem_spec(module, op).ok_or_else(|| {
        let shape = module.op(op).attrs.shape("shape").unwrap_or_default();
        SimError::Port(format!("memory shape {shape:?} capacity overflows"))
    })?;
    let model = lib.make_memory(&spec).map_err(|msg| SimError::Layout {
        op: module.op(op).name.to_string(),
        msg,
    })?;
    let energy = spec
        .attrs
        .float("energy_pj")
        .unwrap_or_else(|| lib.energy_per_access(&spec.kind));
    let ports = create_mem_view(module, op).ok().and_then(|v| v.ports);
    let ports = ports.unwrap_or(DEFAULT_MEM_PORTS);
    let (capacity, bits, banks) = (spec.capacity_elems, spec.data_bits, spec.banks);
    Ok(Memory::new(
        spec.kind, capacity, bits, banks, ports, model, energy,
    ))
}

/// The op costs of a processor runtime on `c`: free on the host, one cycle
/// per op on a DMA engine, and its kind's costs in `lib` on any other
/// processor. `None` when `c` does not execute.
pub(crate) fn runtime_costs(lib: &SimLibrary, c: &Component) -> Option<HotCycles> {
    match (&c.kind, c.origin) {
        (ComponentKind::Processor(_), None) => Some(HotCycles::uniform(0)),
        (ComponentKind::Processor(p), Some(_)) => Some(lib.proc_costs(&p.kind)),
        (ComponentKind::Dma, _) => Some(HotCycles::uniform(1)),
        _ => None,
    }
}

/// Steps a loop's induction slots to its next iteration, innermost
/// dimension fastest, and resets the dimensions inside the one that moved
/// to their lower bounds. `false`, with no slot written, when the loop is
/// exhausted. Saturating: bounds near `i64::MAX` terminate instead of
/// overflowing.
fn next_iteration(dims: LoopDims, env: &mut [Option<SimValue>]) -> Result<bool, SimError> {
    for d in (0..dims.ivs.len()).rev() {
        let Some(Some(SimValue::Int(current))) = env.get(dims.ivs[d] as usize) else {
            return Err(SimError::Runtime(
                "loop induction variable is not an integer".into(),
            ));
        };
        let next = current.saturating_add(dims.steps[d]);
        if next < dims.uppers[d] {
            env[dims.ivs[d] as usize] = Some(SimValue::Int(next));
            for (&iv, &lower) in dims.ivs[d + 1..].iter().zip(&dims.lowers[d + 1..]) {
                env[iv as usize] = Some(SimValue::Int(lower));
            }
            return Ok(true);
        }
    }
    Ok(false)
}

/// The `names` attribute of a `create_comp`/`add_comp` (checked at decode).
fn comp_names(data: &Operation) -> &[String] {
    data.attrs
        .get("names")
        .and_then(|a| a.as_str_array())
        .unwrap_or_default()
}

/// The shape of an allocation op's result type (checked at decode).
fn result_shape<'m>(module: &'m Module, data: &Operation) -> &'m [usize] {
    data.results
        .first()
        .and_then(|&r| module.value_type(r).shape())
        .unwrap_or_default()
}

fn element_value(t: &Tensor, flat: usize) -> SimValue {
    match &t.data {
        TensorData::Int(v) => SimValue::Int(v[flat]),
        TensorData::Float(v) => SimValue::Float(v[flat]),
    }
}

/// Borrowed view of an integer payload (an Arc clone, not a data copy).
fn int_data(t: &Tensor) -> Result<std::sync::Arc<Vec<i64>>, SimError> {
    match &t.data {
        TensorData::Int(v) => Ok(v.clone()),
        TensorData::Float(_) => Err(SimError::Unsupported(
            "linalg ops require integer buffers in this model".into(),
        )),
    }
}

fn set_int_data(t: &mut Tensor, v: Vec<i64>) {
    t.data = TensorData::from_ints(v);
}

/// Writes `value` into `buffer`: whole-buffer when `flat` is `None`,
/// element-wise at the pre-flattened index otherwise.
fn write_value(
    buffer: &mut crate::machine::Buffer,
    flat: Option<usize>,
    value: SimValue,
) -> Result<(), String> {
    use std::sync::Arc;
    let Some(flat) = flat else {
        match (&mut buffer.data.data, value) {
            (TensorData::Int(dst), SimValue::Tensor(t)) => match t.data {
                TensorData::Int(src) => {
                    if src.len() != dst.len() {
                        return Err(format!(
                            "write size mismatch: value {} elems, buffer {} elems",
                            src.len(),
                            dst.len()
                        ));
                    }
                    // Whole-tensor write: share the payload (copy-on-write).
                    buffer.data.data = TensorData::Int(src);
                }
                TensorData::Float(_) => {
                    return Err("write mixes float tensor into int buffer".into())
                }
            },
            (TensorData::Float(dst), SimValue::Tensor(t)) => match t.data {
                TensorData::Float(src) => {
                    if src.len() != dst.len() {
                        return Err("write size mismatch".into());
                    }
                    buffer.data.data = TensorData::Float(src);
                }
                TensorData::Int(_) => return Err("write mixes int tensor into float buffer".into()),
            },
            (TensorData::Int(dst), SimValue::Int(v)) => {
                Arc::make_mut(dst).iter_mut().for_each(|e| *e = v);
            }
            (TensorData::Float(dst), SimValue::Float(v)) => {
                Arc::make_mut(dst).iter_mut().for_each(|e| *e = v);
            }
            (TensorData::Float(dst), SimValue::Int(v)) => {
                Arc::make_mut(dst).iter_mut().for_each(|e| *e = v as f64);
            }
            (_, SimValue::Unit) => {} // opaque ext-op results: timing-only
            (_, other) => return Err(format!("cannot write {other} into buffer")),
        }
        return Ok(());
    };
    match (&mut buffer.data.data, value) {
        (TensorData::Int(dst), SimValue::Int(v)) => {
            let dst = Arc::make_mut(dst);
            let slot = dst
                .get_mut(flat)
                .ok_or_else(|| format!("write index {flat} out of range"))?;
            *slot = v;
        }
        (TensorData::Float(dst), SimValue::Float(v)) => {
            let dst = Arc::make_mut(dst);
            let slot = dst
                .get_mut(flat)
                .ok_or_else(|| format!("write index {flat} out of range"))?;
            *slot = v;
        }
        (TensorData::Float(dst), SimValue::Int(v)) => {
            let dst = Arc::make_mut(dst);
            let slot = dst
                .get_mut(flat)
                .ok_or_else(|| format!("write index {flat} out of range"))?;
            *slot = v as f64;
        }
        (_, SimValue::Unit) => {}
        (_, other) => return Err(format!("cannot write {other} at index")),
    }
    Ok(())
}
#[cfg(test)]
mod tests {
    use super::*;
    use equeue_dialect::{kinds, ArithBuilder, ConnKind, EqueueBuilder, LinalgBuilder};
    use equeue_ir::{OpBuilder, Type};

    /// Simulates `m` with the standard library and tracing on.
    fn traced(m: &Module) -> SimReport {
        let opts = SimOptions {
            trace: true,
            ..Default::default()
        };
        simulate_with(m, &SimLibrary::standard(), &opts).unwrap()
    }

    /// Fig. 2a-style toy program: kernel launches work on two PEs after a
    /// DMA copy; both PEs start simultaneously.
    #[test]
    fn toy_accelerator_runs() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let kernel = b.create_proc(kinds::ARM_R6);
        let sram = b.create_mem(kinds::SRAM, &[64], 32, 4);
        let dma = b.create_dma();
        let _accel = b.create_comp(&["Kernel", "SRAM", "DMA"], vec![kernel, sram, dma]);
        let pe0 = b.create_proc(kinds::MAC);
        let reg0 = b.create_mem(kinds::REGISTER, &[4], 32, 1);
        let pe1 = b.create_proc(kinds::MAC);
        let reg1 = b.create_mem(kinds::REGISTER, &[4], 32, 1);

        let src = b.alloc(sram, &[4], equeue_ir::Type::I32);
        let b0 = b.alloc(reg0, &[4], equeue_ir::Type::I32);
        let b1 = b.alloc(reg1, &[4], equeue_ir::Type::I32);

        let start = b.control_start();
        let outer = b.launch(start, kernel, &[], vec![]);
        {
            let mut ob = OpBuilder::at_end(b.module_mut(), outer.body);
            let copy_dep = ob.control_start();
            let launch_dep = ob.memcpy(copy_dep, src, b0, dma, None);
            let l0 = ob.launch(launch_dep, pe0, &[b0], vec![]);
            {
                let mut ib = OpBuilder::at_end(ob.module_mut(), l0.body);
                let ifmap = ib.read(l0.body_args[0], None);
                let four = ib.const_int(4, equeue_ir::Type::I32);
                let _sum = ib.addi(ifmap, four);
                ib.ret(vec![]);
            }
            let mut ob = OpBuilder::at_end(&mut m, outer.body);
            let l1 = ob.launch(launch_dep, pe1, &[b1], vec![]);
            {
                let mut ib = OpBuilder::at_end(ob.module_mut(), l1.body);
                ib.ext_op("mac", vec![], vec![]);
                ib.ret(vec![]);
            }
            let mut ob = OpBuilder::at_end(&mut m, outer.body);
            ob.await_all(vec![l0.done, l1.done]);
            ob.ret(vec![]);
        }
        let outer_done = outer.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![outer_done]);

        let report = traced(&m);
        // memcpy of 4x4B from 4-bank SRAM: 1 cycle; then PE work: addi
        // (tensor add) 1 cycle on pe0, mac 1 cycle on pe1 in parallel.
        assert_eq!(report.cycles, 2);
        assert!(report.memory_named("SRAM").unwrap().bytes_read >= 16);
        assert!(!report.trace.is_empty());
    }

    #[test]
    fn launch_results_pass_values() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let l = b.launch(start, pe, &[], vec![Type::I32]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let x = ib.const_int(20, Type::I32);
            let y = ib.const_int(22, Type::I32);
            let s = ib.addi(x, y);
            ib.ret(vec![s]);
        }
        let (done, result) = (l.done, l.results[0]);
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        // Use the result in a second launch.
        let pe2 = b.create_proc(kinds::MAC);
        let l2 = b.launch(done, pe2, &[result], vec![Type::I32]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l2.body);
            let one = ib.const_int(1, Type::I32);
            let s = ib.addi(l2.body_args[0], one);
            ib.ret(vec![s]);
        }
        let done2 = l2.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done2]);
        let report = simulate(&m).expect("simulation");
        // addi on pe (1 cycle), then addi on pe2 (1 cycle), serialised by dep.
        assert_eq!(report.cycles, 2);
    }

    #[test]
    fn queue_is_fifo_per_processor() {
        // Two launches on one PE issue in order even with resolved deps.
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let mut dones = vec![];
        for _ in 0..3 {
            let l = b.launch(start, pe, &[], vec![]);
            {
                let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
                ib.ext_op("mac", vec![], vec![]);
                ib.ret(vec![]);
            }
            dones.push(l.done);
            b = OpBuilder::at_end(&mut m, blk);
        }
        let all = b.control_and(dones);
        b.await_all(vec![all]);
        let report = simulate(&m).unwrap();
        assert_eq!(report.cycles, 3); // serialised: one proc
    }

    #[test]
    fn parallel_procs_overlap() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let start = b.control_start();
        let mut dones = vec![];
        for _ in 0..3 {
            let pe = b.create_proc(kinds::MAC);
            let l = b.launch(start, pe, &[], vec![]);
            {
                let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
                ib.ext_op("mac", vec![], vec![]);
                ib.ret(vec![]);
            }
            dones.push(l.done);
            b = OpBuilder::at_end(&mut m, blk);
        }
        let all = b.control_and(dones);
        b.await_all(vec![all]);
        let report = simulate(&m).unwrap();
        assert_eq!(report.cycles, 1); // all three in parallel
    }

    #[test]
    fn deadlock_detected() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let l1 = b.launch(start, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l1.body);
            ib.ret(vec![]);
        }
        // A launch depending on a signal that never fires (l2 depends on
        // l3's done, which depends on l2's done — no way to build that in
        // SSA; instead: await on a control_and that includes a signal from
        // a launch queued *behind* the awaiting frame on the same proc).
        let mut b = OpBuilder::at_end(&mut m, blk);
        let l2 = b.launch(l1.done, pe, &[], vec![]);
        {
            // This frame awaits a signal produced by an event that can only
            // run on the same processor *after* this frame finishes: deadlock.
            let mut ib = OpBuilder::at_end(b.module_mut(), l2.body);
            let inner_start = ib.control_start();
            let l3 = ib.launch(inner_start, pe, &[], vec![]);
            {
                let mut ib2 = OpBuilder::at_end(ib.module_mut(), l3.body);
                ib2.ret(vec![]);
            }
            let mut ib = OpBuilder::at_end(&mut m, l2.body);
            ib.await_all(vec![l3.done]);
            ib.ret(vec![]);
        }
        let err = simulate(&m).unwrap_err();
        assert!(matches!(err, SimError::Deadlock(_)), "{err}");
    }

    #[test]
    fn affine_loop_executes() {
        use equeue_dialect::AffineBuilder;
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[64], 32, 4);
        let buf = b.alloc(mem, &[8], Type::I32);
        let start = b.control_start();
        let l = b.launch(start, pe, &[buf], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let (_, body, iv) = ib.affine_for(0, 8, 1);
            {
                let mut lb = OpBuilder::at_end(ib.module_mut(), body);
                let c = lb.const_int(7, Type::I32);
                lb.write_indexed(c, l.body_args[0], vec![iv], None);
                lb.affine_yield();
            }
            let mut ib = OpBuilder::at_end(&mut m, l.body);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        let report = simulate(&m).unwrap();
        // 8 single-element SRAM writes at 1 cycle each.
        assert_eq!(report.cycles, 8);
        assert_eq!(report.memory_named("SRAM").unwrap().writes, 8);
    }

    #[test]
    fn ext_op_unknown_signature_errors() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let l = b.launch(start, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.ext_op("warp_drive", vec![], vec![]);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        let err = simulate(&m).unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)), "{err}");
    }

    #[test]
    fn malformed_dead_op_does_not_poison_simulation() {
        // A wrong-arity op the program never executes (dead code after
        // `equeue.return`) must not break the prepass: it decodes to
        // `OpCode::Invalid` and errors only if actually run — the lazy
        // semantics of the original interpreter.
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let l = b.launch(start, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.ext_op("mac", vec![], vec![]);
            ib.ret(vec![]);
            // Dead and malformed: get_comp with zero operands.
            ib.op("equeue.get_comp").attr("name", "kid").finish();
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        let report = simulate(&m).expect("malformed dead op must be ignored");
        assert_eq!(report.cycles, 1);
    }

    #[test]
    fn malformed_op_errors_only_when_executed() {
        // The same wrong-arity op on the live path raises a layout error
        // (not a panic).
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let l = b.launch(start, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.op("equeue.get_comp").attr("name", "kid").finish();
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        let err = simulate(&m).unwrap_err();
        assert!(matches!(err, SimError::Layout { .. }), "{err}");
        assert!(err.to_string().contains("equeue.get_comp"), "{err}");
    }

    #[test]
    fn disabled_trace_stays_empty() {
        // With `trace: false` the engine must produce an empty Trace —
        // and (by construction) skip all trace formatting on the hot path.
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let mem = b.create_mem(kinds::SRAM, &[16], 32, 4);
        let buf = b.alloc(mem, &[8], Type::I32);
        let dma = b.create_dma();
        let dst_mem = b.create_mem(kinds::REGISTER, &[8], 32, 1);
        let dst = b.alloc(dst_mem, &[8], Type::I32);
        let start = b.control_start();
        let copied = b.memcpy(start, buf, dst, dma, None);
        let l = b.launch(copied, pe, &[buf], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.read(l.body_args[0], None);
            ib.ext_op("mac", vec![], vec![]);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);

        let lib = SimLibrary::standard();
        let quiet = SimOptions {
            trace: false,
            ..Default::default()
        };
        let report = simulate_with(&m, &lib, &quiet).unwrap();
        assert!(report.trace.is_empty());
        assert!(!report.trace.is_enabled());
        // Same program with tracing on records events — and the same cycles.
        let loud = traced(&m);
        assert!(!loud.trace.is_empty());
        assert_eq!(loud.cycles, report.cycles);
    }

    #[test]
    fn trace_rows_follow_component_renames() {
        // A processor runs one `mac` under its default name, is then named
        // `PE` by `create_comp`, and runs another: each event sits on the
        // row of the name the processor had when it ran.
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let first = b.launch(start, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), first.body);
            ib.ext_op("mac", vec![], vec![]);
            ib.ret(vec![]);
        }
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![first.done]);
        b.create_comp(&["PE"], vec![pe]);
        let again = b.control_start();
        let second = b.launch(again, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), second.body);
            ib.ext_op("mac", vec![], vec![]);
            ib.ret(vec![]);
        }
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![second.done]);
        let report = traced(&m);
        let tids: Vec<&str> = report.trace.events().map(|e| e.tid()).collect();
        // Component 0 is the host processor.
        assert_eq!(tids, ["MAC#1", "PE"]);
    }

    #[test]
    fn connection_limits_read_bandwidth() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::AI_ENGINE);
        let mem = b.create_mem(kinds::SRAM, &[64], 32, 64);
        let buf = b.alloc(mem, &[16], Type::I32); // 64 bytes
        let conn = b.create_connection(ConnKind::Streaming, 4); // 4 B/cyc
        let start = b.control_start();
        let l = b.launch(start, pe, &[buf, conn], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.read(l.body_args[0], Some(l.body_args[1]));
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        let report = simulate(&m).unwrap();
        // 64 bytes over 4 B/cyc = 16 cycles (memory side is 1 cycle).
        assert_eq!(report.cycles, 16);
        let conn_report = &report.connections[0];
        assert_eq!(conn_report.read.bytes, 64);
        assert!((conn_report.read.max_bw - 4.0).abs() < 1e-9);
    }

    /// `linalg.matmul` reads `a` and `b` and writes `c` once, each in
    /// whole, as `linalg.conv2d` charges its operands.
    #[test]
    fn linalg_matmul_charges_its_operands() {
        let n = 16;
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[3 * n * n], 32, n as u32);
        let bufs = [0; 3].map(|_| b.alloc(mem, &[n, n], Type::I32));
        let start = b.control_start();
        let l = b.launch(start, pe, &bufs, vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.linalg_matmul(l.body_args[0], l.body_args[1], l.body_args[2]);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        let report = simulate(&m).unwrap();
        let sram = report
            .memories
            .iter()
            .find(|r| r.kind == kinds::SRAM)
            .unwrap();
        assert_eq!((sram.reads, sram.bytes_read), (2, 2048));
        assert_eq!((sram.writes, sram.bytes_written), (1, 1024));
    }

    /// `linalg.fill` writes its buffer once, in whole.
    #[test]
    fn linalg_fill_charges_its_buffer() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[64], 32, 4);
        let buf = b.alloc(mem, &[8, 8], Type::I32);
        let start = b.control_start();
        let l = b.launch(start, pe, &[buf], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let zero = ib.const_int(0, Type::I32);
            ib.linalg_fill(zero, l.body_args[0]);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        let report = simulate(&m).unwrap();
        let sram = report
            .memories
            .iter()
            .find(|r| r.kind == kinds::SRAM)
            .unwrap();
        assert_eq!((sram.reads, sram.bytes_read), (0, 0));
        assert_eq!((sram.writes, sram.bytes_written), (1, 256));
    }
}
