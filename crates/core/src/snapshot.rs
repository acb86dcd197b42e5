//! Simulation snapshots: complete engine state at a cycle boundary.
//!
//! A [`Snapshot`] captures everything a paused run needs to continue
//! bit-identically: the scheduler's wake queue, per-processor runtime state
//! (clocks, event queues, executing frames), the signal table, memory
//! contents and in-flight port reservations, connection traffic, and every
//! run counter.
//! Snapshots are produced by [`crate::CompiledModule::snapshot`] (which runs
//! the module up to a given cycle) and consumed by
//! [`crate::CompiledModule::resume`].
//!
//! # Wire format
//!
//! The encoded stream is the only representation of a snapshot: capture
//! writes the live engine's state (its `Machine`, processor runtimes,
//! signal table and wake queue) straight into a dependency-free, versioned,
//! little-endian binary stream, and resume reads the stream straight back
//! into those types. The stream is the magic `EQSS`, a `u32` format
//! version, the header (requested and actual cut, completion flag), the
//! state sections, and a trailing FNV-1a 64-bit checksum over
//! everything before it. Encoding is canonical (deterministic field order,
//! wake queue sorted by `(time, seq)`).
//!
//! The stream holds run state, not hardware configuration. Each component
//! and connection records the op that created it (its `origin`), and resume
//! builds it again from that op with the functions execution uses
//! (`build_memory`, `runtime_costs` in the engine, and the resuming
//! library's factories and processor costs), then reads back only its
//! state: a memory's allocation, port free times and traffic counters
//! (plus a stock cache's tags and hit and miss counts), a composite's
//! children, a connection's free times and statistics. So a resumed run
//! takes all of its timing from the library of the handle that resumes it.
//!
//! [`Snapshot::decode`] checks the envelope: length, checksum, magic,
//! version and completion flag, so any truncation or byte mutation is rejected
//! with a typed [`SimError::Snapshot`] — never a panic. Resume checks the
//! rest, once: every tag, length and shape in the state sections, the
//! module fingerprint, every origin against the op kinds that create
//! components and connections, every id the state cross-references, and
//! the size of every number the resumed run adds to: times and counters
//! must stay below 2^62, so a stream edited and re-sealed with a fresh
//! checksum cannot make the run overflow them.
//!
//! Since version 4 a frame's stack scope is only its block and op index:
//! a loop body's bounds come from the resuming plan and its current
//! iteration from the frame's induction slots, which resume checks hold
//! integers. The header no longer names the capture backend.
//!
//! Since version 6 the stream carries no configuration: no processor
//! costs, no memory kind, capacity, bits, banks, energy or model
//! parameters, and no connection name, kind or bandwidth.
//!
//! The snapshot is RNG-free and wall-clock-free: resuming restarts the
//! wall-clock budget ([`crate::RunLimits::wall_deadline`]) but continues the
//! cycle/event budgets from the captured counters.

use std::any::Any;
use std::time::Instant;

use equeue_ir::{BlockId, IdVec, Module, OpId};

use crate::engine::{
    build_memory, build_report, host_scratch, processor, runtime_costs, set_proc_of_comp, Engine,
    EventKind, Frame, PendingEvent, ProcRuntime, Scope, SimOptions,
};
use crate::library::SimLibrary;
use crate::machine::{
    Buffer, CacheBehavior, ChannelStats, Component, ComponentKind, Composite, Connection,
    HotCycles, Machine, MemCounters, Memory,
};
use crate::plan::{OpCode, Plan};
use crate::profile::SimReport;
use crate::signal::{SignalState, SignalTable};
use crate::value::{BufId, CompId, ConnId, SignalId, SimValue, Tensor, TensorData};
use crate::SimError;

/// Magic bytes opening every snapshot stream.
const MAGIC: [u8; 4] = *b"EQSS";

/// Current snapshot format version. Bumped on any wire-format change;
/// decoding rejects unknown versions.
pub const FORMAT_VERSION: u32 = 6;

/// Bytes before the state sections: magic, version, both cuts and the
/// completion flag.
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 1;

/// Complete engine state at a cycle boundary, resumable via
/// [`crate::CompiledModule::resume`].
///
/// Produced by [`crate::CompiledModule::snapshot`]. Serialise with
/// [`encode`](Snapshot::encode), reload with [`decode`](Snapshot::decode).
/// A resumed run produces counters bit-identical to an uninterrupted run of
/// the same module and options, under either execution backend.
///
/// # Examples
///
/// ```
/// use equeue_core::{CompiledModule, SimOptions, Snapshot};
/// use equeue_dialect::{kinds, EqueueBuilder};
/// use equeue_ir::{Module, OpBuilder};
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
///
/// let compiled = CompiledModule::compile_standard(m)?;
/// let full = compiled.simulate(&SimOptions::default())?;
/// let snap = compiled.snapshot(1, &SimOptions::default())?;
/// let bytes = snap.encode();
/// let reloaded = Snapshot::decode(&bytes)?;
/// let resumed = compiled.resume(&reloaded, &SimOptions::default())?;
/// assert_eq!(resumed.cycles, full.cycles);
/// assert_eq!(resumed.events_processed, full.events_processed);
/// # Ok::<(), equeue_core::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The encoded stream, checksum included.
    bytes: Vec<u8>,
    requested_cut: u64,
    actual_cut: u64,
    completed: bool,
}

impl Snapshot {
    /// The cycle boundary that was requested from
    /// [`crate::CompiledModule::snapshot`].
    pub fn requested_cut(&self) -> u64 {
        self.requested_cut
    }

    /// The cycle the capture actually landed on: the time of the next
    /// unprocessed event (every event strictly before it has run). Under
    /// the fused backend a cut requested mid-trace lands at the next trace
    /// exit, so this can exceed [`requested_cut`](Snapshot::requested_cut);
    /// if the program finished before the cut it equals the final cycle
    /// count.
    pub fn actual_cut(&self) -> u64 {
        self.actual_cut
    }

    /// Whether the program ran to completion before reaching the requested
    /// cut (resuming such a snapshot reports the finished run).
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// Serialises to the versioned binary wire format (see module docs).
    pub fn encode(&self) -> Vec<u8> {
        self.bytes.clone()
    }

    /// Deserialises a snapshot from `bytes`, checking its envelope: length,
    /// checksum, magic, version and completion flag. The state sections are
    /// checked when the snapshot is resumed.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on a short stream, checksum mismatch (any
    /// truncation or mutation), bad magic, unknown version or bad
    /// completion flag. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SimError> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(err("stream shorter than the fixed header"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        if fnv1a(body).to_le_bytes() != tail {
            return Err(err("checksum mismatch (truncated or corrupted stream)"));
        }
        let mut r = Reader::new(body);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(err("bad magic (not a snapshot stream)"));
        }
        let version = r.u32()?;
        if version != FORMAT_VERSION {
            return Err(err(&format!(
                "unknown format version {version} (supported: {FORMAT_VERSION})"
            )));
        }
        let requested_cut = r.u64()?;
        let actual_cut = r.u64()?;
        let completed = r.boolean()?;
        Ok(Snapshot {
            bytes: bytes.to_vec(),
            requested_cut,
            actual_cut,
            completed,
        })
    }
}

/// Runs `module` up to cycle `at` and captures a [`Snapshot`]: the entry
/// point behind [`crate::CompiledModule::snapshot`].
///
/// The engine pauses before processing the first event at or after the cut
/// (under the fused backend, at the first trace exit at or after it). If the
/// program completes earlier, the snapshot records the terminal state and is
/// marked [`completed`](Snapshot::completed).
pub(crate) fn snapshot_with_plan(
    module: &Module,
    plan: &Plan,
    library: &SimLibrary,
    at: u64,
    options: &SimOptions,
    start: Instant,
) -> Result<Snapshot, SimError> {
    let mut engine = Engine::fresh(module, plan, library, options, start);
    engine.snapshot_at = Some(at);
    engine.run()?;
    Ok(capture(&mut engine, at))
}

/// Restores a [`Snapshot`] and runs it to completion: the entry point behind
/// [`crate::CompiledModule::resume`]. `start` should be the resume time —
/// the wall-clock budget restarts from it, while cycle/event budgets
/// continue from the snapshot's counters.
pub(crate) fn resume_with_plan(
    module: &Module,
    plan: &Plan,
    library: &SimLibrary,
    options: &SimOptions,
    start: Instant,
    snap: &Snapshot,
) -> Result<SimReport, SimError> {
    let mut engine = Engine::new(module, plan, library, options, start);
    restore(&mut engine, &snap.bytes[HEADER_LEN..snap.bytes.len() - 8])?;
    engine.run()?;
    Ok(build_report(&mut engine, start))
}

/// Builds a [`SimError::Snapshot`].
fn err(msg: &str) -> SimError {
    SimError::Snapshot(msg.to_string())
}

/// FNV-1a 64-bit hash (dependency-free integrity check).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Shape fingerprint of a module (ops, blocks, values), so resuming against
/// a different module fails with a typed error instead of undefined replay.
fn fingerprint(module: &Module) -> [u64; 3] {
    [module.num_ops(), module.num_blocks(), module.num_values()].map(|n| n as u64)
}

/// The run counters a snapshot carries, in wire order.
fn counters<'a>(e: &'a mut Engine<'_>) -> [&'a mut u64; 10] {
    [
        &mut e.now,
        &mut e.horizon,
        &mut e.count.wakes,
        &mut e.count.ops,
        &mut e.events_spawned,
        &mut e.live_tensor_bytes,
        &mut e.peak_live_tensor_bytes,
        &mut e.fused_trace_entries,
        &mut e.count.idle,
        &mut e.seq,
    ]
}

/// Serialises the engine's complete state. Called after [`Engine::run`]
/// returned with `snapshot_at` armed — either paused at the cut, or
/// finished early (then the snapshot records the terminal state). The
/// engine is only read; `&mut` lets [`counters`] serve both directions.
fn capture(e: &mut Engine, requested: u64) -> Snapshot {
    let mut wakes: Vec<(u64, u64, usize)> = e.wake_queue.iter().collect();
    wakes.sort_unstable();
    let actual_cut = wakes.first().map_or(e.horizon, |w| w.0);
    let completed = !e.snapshot_due;
    let mut w = Writer::default();
    w.buf.extend_from_slice(&MAGIC);
    w.u32(FORMAT_VERSION);
    w.u64(requested);
    w.u64(actual_cut);
    w.boolean(completed);
    for c in fingerprint(e.module) {
        w.u64(c);
    }
    for c in counters(e) {
        w.u64(*c);
    }
    w.opt(e.host_mem.map(|c| c.0), Writer::u32);
    w.seq(wakes.into_iter(), |w, (t, s, p)| {
        w.u64(t);
        w.u64(s);
        w.u32(p as u32);
    });
    w.seq(e.procs.iter(), Writer::proc);
    w.seq(e.signals.signals.iter(), Writer::signal_state);
    w.seq(e.machine.components.iter(), Writer::component);
    w.seq(e.machine.buffers.iter(), Writer::buffer);
    w.seq(e.machine.connections.iter(), Writer::connection);
    let checksum = fnv1a(&w.buf);
    w.u64(checksum);
    Snapshot {
        bytes: w.buf,
        requested_cut: requested,
        actual_cut,
        completed,
    }
}

/// Reads a snapshot's state sections (the stream between the header and
/// the checksum) into `e`, an engine with no state yet, then checks every
/// cross-reference so adversarial or mismatched snapshots fail with
/// [`SimError::Snapshot`] instead of panicking later.
fn restore(e: &mut Engine, bytes: &[u8]) -> Result<(), SimError> {
    let mut r = Reader::new(bytes);
    if [r.u64()?, r.u64()?, r.u64()?] != fingerprint(e.module) {
        return Err(err(
            "snapshot was captured from a different module (fingerprint mismatch)",
        ));
    }
    for c in counters(e) {
        *c = r.time()?;
    }
    e.host_mem = r.opt(Reader::u32)?.map(CompId);
    let mut wakes = r.seq(8 + 8 + 4, |r| Ok((r.time()?, r.u64()?, r.u32()?)))?;
    e.procs = r.seq(1, Reader::proc)?;
    e.signals = SignalTable::from_states(r.seq(1, Reader::signal_state)?);
    let (module, plan, lib) = (e.module, e.plan, e.lib);
    let ncomp = r.seq_len(1)?;
    for index in 0..ncomp {
        let c = r.component(index, ncomp, e.host_mem, module, plan, lib)?;
        e.machine.components.push(c);
    }
    let comps = &e.machine.components;
    e.machine.buffers = r.seq(1, |r| r.buffer(comps))?;
    for _ in 0..r.seq_len(1)? {
        r.connection(&mut e.machine, plan)?;
    }
    if !r.at_end() {
        return Err(err("trailing bytes after the machine section"));
    }
    check_state(e, &wakes)?;
    for (i, p) in e.procs.iter_mut().enumerate() {
        let comp = &e.machine.components[p.comp.0 as usize];
        p.hot = runtime_costs(lib, comp)
            .ok_or_else(|| err("processor runtime on a component that does not execute"))?;
        set_proc_of_comp(&mut e.proc_of_comp, p.comp, i);
    }
    wakes.sort_unstable();
    e.wake_queue = wakes
        .into_iter()
        .map(|(t, s, p)| (t, s, p as usize))
        .collect();
    e.rebuild_waiters();
    Ok(())
}

// ---------------------------------------------------------------------------
// Cross-reference checks
// ---------------------------------------------------------------------------

/// Restored times and counters stay below this (see [`Reader::time`]).
const MAX_TIME: u64 = 1 << 62;

/// Arena sizes a restored id must stay below.
struct Bounds {
    sig: usize,
    comp: usize,
    buf: usize,
    conn: usize,
}

/// Checks every id the restored state references, so a resumed engine
/// never indexes out of range on snapshot-supplied data.
fn check_state(e: &Engine, wakes: &[(u64, u64, u32)]) -> Result<(), SimError> {
    let b = Bounds {
        sig: e.signals.signals.len(),
        comp: e.machine.components.len(),
        buf: e.machine.buffers.len(),
        conn: e.machine.connections.len(),
    };
    for s in &e.signals.signals {
        match s {
            SignalState::Pending { dependents, .. } => {
                if dependents.iter().any(|d| (d.0 as usize) >= b.sig) {
                    return Err(err("signal dependent out of range"));
                }
            }
            SignalState::Resolved { payload, .. } => {
                for v in payload {
                    check_value(v, &b)?;
                }
            }
        }
    }
    if e.procs.is_empty() {
        return Err(err("snapshot has no host processor"));
    }
    for p in &e.procs {
        if (p.comp.0 as usize) >= b.comp {
            return Err(err("processor component out of range"));
        }
        for ev in &p.queue {
            check_event(ev, e.plan, &b)?;
        }
        if let Some(frame) = &p.frame {
            check_frame(frame, e.module, e.plan, &b)?;
        }
    }
    check_wake_queue(wakes, e.now, e.seq, e.procs.len())?;
    if let Some(hm) = e.host_mem {
        if !is_memory(&e.machine.components, hm) {
            return Err(err("host scratch memory is not a memory"));
        }
    }
    Ok(())
}

/// Whether `comp` names a memory component.
fn is_memory(components: &[Component], comp: CompId) -> bool {
    matches!(
        components.get(comp.0 as usize),
        Some(Component {
            kind: ComponentKind::Memory(_),
            ..
        })
    )
}

/// Validates every id a restored [`SimValue`] references.
fn check_value(v: &SimValue, b: &Bounds) -> Result<(), SimError> {
    let ok = match v {
        SimValue::Signal(s) => (s.0 as usize) < b.sig,
        SimValue::Deferred { signal, .. } => (signal.0 as usize) < b.sig,
        SimValue::Component(c) => (c.0 as usize) < b.comp,
        SimValue::Buffer(x) => (x.0 as usize) < b.buf,
        SimValue::Connection(c) => (c.0 as usize) < b.conn,
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(err("id out of range in a captured value"))
    }
}

/// Validates a restored queue event against the plan and arena sizes.
fn check_event(ev: &PendingEvent, plan: &Plan, b: &Bounds) -> Result<(), SimError> {
    if (ev.dep.0 as usize) >= b.sig || (ev.done.0 as usize) >= b.sig {
        return Err(err("queued event references an unknown signal"));
    }
    match &ev.kind {
        EventKind::Launch { op, env } => {
            let Some(&OpCode::Launch(launch)) = plan.ops.get(op.index()).map(|o| &o.code) else {
                return Err(err("queued launch does not name a launch op"));
            };
            if env.len() != plan.scope_values(plan.launch(launch).scope).len() {
                return Err(err("queued launch environment has the wrong size"));
            }
            for v in env.iter().flatten() {
                check_value(v, b)?;
            }
        }
        EventKind::Memcpy { src, dst, conn } => {
            if (src.0 as usize) >= b.buf || (dst.0 as usize) >= b.buf {
                return Err(err("queued memcpy references an unknown buffer"));
            }
            if conn.is_some_and(|c| (c.0 as usize) >= b.conn) {
                return Err(err("queued memcpy references an unknown connection"));
            }
        }
    }
    Ok(())
}

/// Validates a restored frame: scope layout, block stack, loop induction
/// slots, and every captured value.
fn check_frame(frame: &Frame, module: &Module, plan: &Plan, b: &Bounds) -> Result<(), SimError> {
    if frame.scope as usize >= plan.num_scopes() {
        return Err(err("frame references an unknown scope"));
    }
    if frame.env.len() != plan.scope_values(frame.scope).len() {
        return Err(err("frame environment does not match its scope layout"));
    }
    if (frame.done.0 as usize) >= b.sig {
        return Err(err("frame done-signal out of range"));
    }
    for v in frame.env.iter().flatten() {
        check_value(v, b)?;
    }
    for scope in &frame.stack {
        if scope.block.index() >= module.num_blocks() {
            return Err(err("frame block out of range"));
        }
        if scope_of_block(module, plan, scope.block) != Some(frame.scope) {
            return Err(err("frame block lies outside the frame's scope"));
        }
        // The interpreter steps a loop body's scope from its induction
        // slots.
        let ivs = plan.body_loop(scope.block).map_or(&[][..], |dims| dims.ivs);
        for &iv in ivs {
            if !matches!(frame.env.get(iv as usize), Some(Some(SimValue::Int(_)))) {
                return Err(err("loop induction slot does not hold an integer"));
            }
        }
    }
    Ok(())
}

/// The frame scope that runs `block`: that of the innermost launch whose
/// body encloses it, or the top scope 0.
fn scope_of_block(module: &Module, plan: &Plan, mut block: BlockId) -> Option<u32> {
    loop {
        let region = module.block(block).parent_region;
        let Some(op) = module.region(region).parent_op else {
            return (region == module.top_region()).then_some(0);
        };
        if let OpCode::Launch(launch) = plan.ops[op.index()].code {
            return Some(plan.launch(launch).scope);
        }
        block = module.op(op).parent_block?;
    }
}

/// Validates a restored wake queue. Every wake must target a known
/// processor, be due no earlier than the captured `now`, and carry a unique
/// `seq` below the captured counter: the scheduler's same-time FIFO pops in
/// push order, which is `(time, seq)` order only when seqs are unique and
/// every later push carries a larger one.
fn check_wake_queue(
    wakes: &[(u64, u64, u32)],
    now: u64,
    seq: u64,
    nproc: usize,
) -> Result<(), SimError> {
    let mut seqs = Vec::with_capacity(wakes.len());
    for &(t, s, p) in wakes {
        if (p as usize) >= nproc {
            return Err(err("scheduled event targets an unknown processor"));
        }
        if t < now {
            return Err(err("scheduled wake is due before the captured time"));
        }
        if s >= seq {
            return Err(err("scheduled wake has a sequence number not yet issued"));
        }
        seqs.push(s);
    }
    seqs.sort_unstable();
    if seqs.windows(2).any(|w| w[0] == w[1]) {
        return Err(err("two scheduled wakes share a sequence number"));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn boolean(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn string(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// A length prefix, then each item.
    fn seq<I: ExactSizeIterator>(&mut self, items: I, mut f: impl FnMut(&mut Self, I::Item)) {
        self.usize(items.len());
        for x in items {
            f(self, x);
        }
    }

    /// A presence tag (0 or 1), then the value if present.
    fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Self, T)) {
        self.boolean(v.is_some());
        if let Some(x) = v {
            f(self, x);
        }
    }

    fn value(&mut self, v: &SimValue) {
        match v {
            SimValue::Unit => self.u8(0),
            SimValue::Int(i) => {
                self.u8(1);
                self.i64(*i);
            }
            SimValue::Float(x) => {
                self.u8(2);
                self.f64(*x);
            }
            SimValue::Tensor(t) => {
                self.u8(3);
                self.tensor(t);
            }
            SimValue::Signal(s) => {
                self.u8(4);
                self.u32(s.0);
            }
            SimValue::Component(c) => {
                self.u8(5);
                self.u32(c.0);
            }
            SimValue::Buffer(b) => {
                self.u8(6);
                self.u32(b.0);
            }
            SimValue::Connection(c) => {
                self.u8(7);
                self.u32(c.0);
            }
            SimValue::Deferred { signal, index } => {
                self.u8(8);
                self.u32(signal.0);
                self.usize(*index);
            }
        }
    }

    fn env(&mut self, env: &[Option<SimValue>]) {
        self.seq(env.iter(), |w, v| w.opt(v.as_ref(), Writer::value));
    }

    fn tensor(&mut self, t: &Tensor) {
        self.seq(t.shape.iter(), |w, &d| w.usize(d));
        match &t.data {
            TensorData::Int(v) => {
                self.u8(0);
                self.seq(v.iter(), |w, &x| w.i64(x));
            }
            TensorData::Float(v) => {
                self.u8(1);
                self.seq(v.iter(), |w, &x| w.f64(x));
            }
        }
    }

    fn signal_state(&mut self, s: &SignalState) {
        match s {
            SignalState::Pending {
                remaining,
                time_acc,
                any_mode,
                dependents,
            } => {
                self.u8(0);
                self.usize(*remaining);
                self.u64(*time_acc);
                self.boolean(*any_mode);
                self.seq(dependents.iter(), |w, d| w.u32(d.0));
            }
            SignalState::Resolved { time, payload } => {
                self.u8(1);
                self.u64(*time);
                self.seq(payload.iter(), Writer::value);
            }
        }
    }

    fn event(&mut self, e: &PendingEvent) {
        match &e.kind {
            EventKind::Launch { op, env } => {
                self.u8(0);
                self.usize(op.index());
                self.env(env);
            }
            EventKind::Memcpy { src, dst, conn } => {
                self.u8(1);
                self.u32(src.0);
                self.u32(dst.0);
                self.opt(conn.map(|c| c.0), Writer::u32);
            }
        }
        self.u32(e.dep.0);
        self.u32(e.done.0);
    }

    fn frame(&mut self, f: &Frame) {
        self.env(&f.env);
        self.seq(f.stack.iter(), |w, s| {
            w.usize(s.block.index());
            w.usize(s.idx);
        });
        self.u32(f.done.0);
        self.u32(f.scope);
    }

    fn proc(&mut self, p: &ProcRuntime) {
        self.u32(p.comp.0);
        self.u64(p.clock);
        self.seq(p.queue.iter(), Writer::event);
        self.opt(p.frame.as_ref(), Writer::frame);
    }

    /// A component: its name (`create_comp` and `add_comp` rename
    /// components) and origin, then the run state of what it is.
    fn component(&mut self, c: &Component) {
        self.string(&c.name);
        self.opt(c.origin.map(|op| op.index()), Writer::usize);
        match &c.kind {
            ComponentKind::Processor(_) | ComponentKind::Dma => {}
            ComponentKind::Memory(m) => self.memory(m),
            ComponentKind::Composite(comp) => {
                self.seq(comp.children.iter(), |w, (name, id)| {
                    w.string(name);
                    w.u32(id.0);
                });
            }
        }
    }

    /// A memory's run state: allocation, port free times, traffic
    /// counters and, for a stock cache, its tags and hit and miss counts.
    fn memory(&mut self, m: &Memory) {
        self.usize(m.used_elems);
        self.seq(m.ports.iter(), |w, &p| w.u64(p));
        let c = m.counters;
        for v in [c.bytes_read, c.bytes_written, c.reads, c.writes] {
            self.u64(v);
        }
        let model: &dyn Any = &*m.behavior;
        if let Some(cache) = model.downcast_ref::<CacheBehavior>() {
            self.seq(cache.tags.iter(), |w, set| {
                w.seq(set.iter(), |w, &t| w.usize(t))
            });
            self.u64(cache.hits);
            self.u64(cache.misses);
        }
    }

    fn buffer(&mut self, b: &Buffer) {
        self.u32(b.mem.0);
        self.usize(b.elem_bytes);
        self.usize(b.base_addr);
        self.boolean(b.live);
        self.tensor(&b.data);
    }

    /// A connection: its origin, then its free times and statistics.
    fn connection(&mut self, c: &Connection) {
        self.opt(c.origin.map(|op| op.index()), Writer::usize);
        self.u64(c.read_free);
        self.u64(c.write_free);
        for s in [&c.read_stats, &c.write_stats] {
            for v in [s.bytes, s.peak_bytes, s.peak_dur, s.at_peak] {
                self.u64(v);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| err("length overflow"))?;
        if end > self.buf.len() {
            return Err(err("truncated stream"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SimError> {
        let mut b = [0u8; N];
        b.copy_from_slice(self.take(N)?);
        Ok(b)
    }

    fn u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    fn boolean(&mut self) -> Result<bool, SimError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(err(&format!("bad bool byte {t}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A time or counter the run goes on adding to. Below 2^62 it cannot
    /// overflow before the run has added as much again, which no run does.
    fn time(&mut self) -> Result<u64, SimError> {
        let v = self.u64()?;
        if v >= MAX_TIME {
            return Err(err("time or counter too large to resume"));
        }
        Ok(v)
    }

    fn i64(&mut self) -> Result<i64, SimError> {
        Ok(i64::from_le_bytes(self.array()?))
    }

    fn f64(&mut self) -> Result<f64, SimError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, SimError> {
        usize::try_from(self.u64()?).map_err(|_| err("count exceeds the address space"))
    }

    /// Reads a sequence length, rejecting counts that could not possibly
    /// fit in the remaining bytes (`min_elem` bytes per element) so
    /// adversarial streams cannot trigger huge allocations.
    fn seq_len(&mut self, min_elem: usize) -> Result<usize, SimError> {
        let n = self.usize()?;
        if n > (self.buf.len() - self.pos) / min_elem.max(1) {
            return Err(err("sequence length exceeds the remaining stream"));
        }
        Ok(n)
    }

    /// A length-prefixed sequence of at least `min_elem` bytes per item.
    fn seq<T>(
        &mut self,
        min_elem: usize,
        mut f: impl FnMut(&mut Self) -> Result<T, SimError>,
    ) -> Result<Vec<T>, SimError> {
        let n = self.seq_len(min_elem)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// A presence tag (0 or 1), then the value if present.
    fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SimError>,
    ) -> Result<Option<T>, SimError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            t => Err(err(&format!("bad option tag {t}"))),
        }
    }

    fn string(&mut self) -> Result<String, SimError> {
        let n = self.seq_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid utf-8 in string"))
    }

    fn value(&mut self) -> Result<SimValue, SimError> {
        Ok(match self.u8()? {
            0 => SimValue::Unit,
            1 => SimValue::Int(self.i64()?),
            2 => SimValue::Float(self.f64()?),
            3 => SimValue::Tensor(self.tensor()?),
            4 => SimValue::Signal(SignalId(self.u32()?)),
            5 => SimValue::Component(CompId(self.u32()?)),
            6 => SimValue::Buffer(BufId(self.u32()?)),
            7 => SimValue::Connection(ConnId(self.u32()?)),
            8 => SimValue::Deferred {
                signal: SignalId(self.u32()?),
                index: self.usize()?,
            },
            t => return Err(err(&format!("unknown value tag {t}"))),
        })
    }

    fn env(&mut self) -> Result<Vec<Option<SimValue>>, SimError> {
        self.seq(1, |r| r.opt(Reader::value))
    }

    fn tensor(&mut self) -> Result<Tensor, SimError> {
        let shape = self.seq(8, Reader::usize)?;
        let data = match self.u8()? {
            0 => TensorData::from_ints(self.seq(8, Reader::i64)?),
            1 => TensorData::from_floats(self.seq(8, Reader::f64)?),
            t => return Err(err(&format!("unknown tensor-data tag {t}"))),
        };
        // Element count must match the shape: engine indexing trusts it.
        let elems: usize = shape.iter().try_fold(1usize, |acc, &d| {
            acc.checked_mul(d)
                .ok_or_else(|| err("tensor shape overflows the address space"))
        })?;
        let len = match &data {
            TensorData::Int(v) => v.len(),
            TensorData::Float(v) => v.len(),
        };
        if elems != len {
            return Err(err("tensor data length does not match its shape"));
        }
        Ok(Tensor { shape, data })
    }

    fn signal_state(&mut self) -> Result<SignalState, SimError> {
        Ok(match self.u8()? {
            0 => {
                let remaining = self.usize()?;
                let time_acc = self.u64()?;
                let any_mode = self.boolean()?;
                // An `and` resolves at its `time_acc`, so that is a time the
                // run goes on from. An `or` holds `u64::MAX` there and never
                // reads it.
                if !any_mode && time_acc >= MAX_TIME {
                    return Err(err("time or counter too large to resume"));
                }
                SignalState::Pending {
                    remaining,
                    time_acc,
                    any_mode,
                    dependents: self
                        .seq(4, |r| Ok(SignalId(r.u32()?)))?
                        .into_iter()
                        .collect::<IdVec<_>>(),
                }
            }
            1 => SignalState::Resolved {
                time: self.time()?,
                payload: self.seq(1, Reader::value)?,
            },
            t => return Err(err(&format!("unknown signal-state tag {t}"))),
        })
    }

    fn event(&mut self) -> Result<PendingEvent, SimError> {
        let kind = match self.u8()? {
            0 => EventKind::Launch {
                op: OpId::from_index(self.usize()?),
                env: self.env()?,
            },
            1 => EventKind::Memcpy {
                src: BufId(self.u32()?),
                dst: BufId(self.u32()?),
                conn: self.opt(Reader::u32)?.map(ConnId),
            },
            t => return Err(err(&format!("unknown event tag {t}"))),
        };
        Ok(PendingEvent {
            kind,
            dep: SignalId(self.u32()?),
            done: SignalId(self.u32()?),
        })
    }

    fn frame(&mut self) -> Result<Frame, SimError> {
        Ok(Frame {
            env: self.env()?,
            stack: self.seq(16, |r| {
                Ok(Scope {
                    block: BlockId::from_index(r.usize()?),
                    idx: r.usize()?,
                })
            })?,
            done: SignalId(self.u32()?),
            scope: self.u32()?,
        })
    }

    fn proc(&mut self) -> Result<ProcRuntime, SimError> {
        Ok(ProcRuntime {
            comp: CompId(self.u32()?),
            clock: self.time()?,
            // Set by `restore` from the runtime's component.
            hot: HotCycles::uniform(0),
            queue: self.seq(1, Reader::event)?.into(),
            frame: self.opt(Reader::frame)?,
        })
    }

    /// Component `index` of `ncomp`, rebuilt from the op that created it.
    /// A component without one is the host processor (component 0) or the
    /// host scratch memory (`host_mem`).
    fn component(
        &mut self,
        index: usize,
        ncomp: usize,
        host_mem: Option<CompId>,
        module: &Module,
        plan: &Plan,
        lib: &SimLibrary,
    ) -> Result<Component, SimError> {
        let name = self.string()?;
        let origin = self.opt(|r| r.usize().map(OpId::from_index))?;
        let kind = match origin {
            None if index == 0 => processor(module, None),
            None if host_mem.is_some_and(|m| m.0 as usize == index) => {
                ComponentKind::Memory(self.memory(host_scratch())?)
            }
            None => return Err(err("component without the op that created it")),
            Some(op) => match plan.ops.get(op.index()).map(|o| &o.code) {
                Some(OpCode::CreateProc) => processor(module, origin),
                Some(OpCode::CreateMem) => {
                    let m = build_memory(module, lib, op)
                        .map_err(|e| err(&format!("memory origin does not build: {e}")))?;
                    ComponentKind::Memory(self.memory(m)?)
                }
                Some(OpCode::CreateDma) => ComponentKind::Dma,
                Some(OpCode::CreateComp { .. }) => {
                    let children = self.seq(1, |r| Ok((r.string()?, CompId(r.u32()?))))?;
                    if children.iter().any(|(_, id)| (id.0 as usize) >= ncomp) {
                        return Err(err("composite child out of range"));
                    }
                    ComponentKind::Composite(Composite { children })
                }
                _ => return Err(err("component origin is not an op that creates one")),
            },
        };
        Ok(Component { name, kind, origin })
    }

    /// The run state of `m`, a memory just built from its op.
    fn memory(&mut self, mut m: Memory) -> Result<Memory, SimError> {
        m.used_elems = self.usize()?;
        let ports = self.seq(8, Reader::time)?;
        if ports.len() != m.ports.len() {
            return Err(err("memory port count differs from its op's"));
        }
        m.ports = ports;
        let [bytes_read, bytes_written, reads, writes] =
            [self.time()?, self.time()?, self.time()?, self.time()?];
        m.counters = MemCounters {
            bytes_read,
            bytes_written,
            reads,
            writes,
        };
        let model: &mut dyn Any = &mut *m.behavior;
        if let Some(cache) = model.downcast_mut::<CacheBehavior>() {
            let tags = self.seq(8, |r| r.seq(8, Reader::usize))?;
            if tags.len() != cache.sets {
                return Err(err("cache tag table does not hold one stack per set"));
            }
            if tags.iter().any(|set| set.len() > cache.ways) {
                return Err(err("cache set holds more tags than it has ways"));
            }
            cache.tags = tags;
            cache.hits = self.time()?;
            cache.misses = self.time()?;
        }
        Ok(m)
    }

    /// A buffer, which must lie inside one of the memories in `components`.
    fn buffer(&mut self, components: &[Component]) -> Result<Buffer, SimError> {
        let mem = CompId(self.u32()?);
        let Some(ComponentKind::Memory(m)) = components.get(mem.0 as usize).map(|c| &c.kind) else {
            return Err(err("buffer owned by a non-memory component"));
        };
        let (elem_bytes, base_addr, live) = (self.usize()?, self.usize()?, self.boolean()?);
        let data = self.tensor()?;
        let b = Buffer {
            mem,
            elem_bytes,
            base_addr,
            live,
            data,
        };
        // Allocation keeps every buffer inside its memory; the engine's
        // address and byte arithmetic relies on it.
        if base_addr
            .checked_add(b.elems())
            .is_none_or(|end| end > m.capacity_elems)
        {
            return Err(err("buffer lies outside its memory"));
        }
        if b.elems().checked_mul(elem_bytes).is_none() {
            return Err(err("buffer size overflows the address space"));
        }
        Ok(b)
    }

    fn channel_stats(&mut self) -> Result<ChannelStats, SimError> {
        let stats = ChannelStats {
            bytes: self.time()?,
            peak_bytes: self.u64()?,
            peak_dur: self.u64()?,
            at_peak: self.time()?,
        };
        if stats.peak_dur == 0 {
            return Err(err("connection peak duration is zero"));
        }
        Ok(stats)
    }

    /// A connection, rebuilt in `machine` from the op that created it.
    fn connection(&mut self, machine: &mut Machine, plan: &Plan) -> Result<(), SimError> {
        let origin = self.opt(|r| r.usize().map(OpId::from_index))?;
        let code = origin
            .and_then(|op| plan.ops.get(op.index()))
            .map(|o| &o.code);
        let Some(&OpCode::CreateConnection { kind, bandwidth }) = code else {
            return Err(err("connection origin is not a create_connection op"));
        };
        let id = machine.add_connection(kind, bandwidth);
        let c = machine.connection_mut(id);
        c.origin = origin;
        c.read_free = self.time()?;
        c.write_free = self.time()?;
        c.read_stats = self.channel_stats()?;
        c.write_stats = self.channel_stats()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use crate::CompiledModule;
    use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};

    fn options() -> SimOptions {
        SimOptions {
            trace: false,
            ..Default::default()
        }
    }

    /// An affine loop doubling a 4-element buffer in a `mem_kind` memory
    /// in place.
    fn program(mem_kind: &str) -> Module {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(mem_kind, &[4], 32, 1);
        let buf = b.alloc(mem, &[4], Type::I32);
        let start = b.control_start();
        let l = b.launch(start, pe, &[buf], vec![]);
        let v = l.body_args[0];
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let (_, bi, i) = ib.affine_for(0, 4, 1);
        let mut lb = OpBuilder::at_end(ib.module_mut(), bi);
        let x = lb.affine_load(v, vec![i]);
        let y = lb.addi(x, x);
        lb.affine_store(y, v, vec![i]);
        lb.affine_yield();
        OpBuilder::at_end(&mut m, l.body).ret(vec![]);
        OpBuilder::at_end(&mut m, blk).await_all(vec![l.done]);
        m
    }

    /// A real capture, mid-loop, so frames, a loop scope, a memory and a
    /// buffer are all in it.
    fn tiny() -> (CompiledModule, Snapshot) {
        let compiled = CompiledModule::compile_standard(program(kinds::SRAM)).expect("compiles");
        let snap = compiled.snapshot(3, &options()).expect("captures");
        (compiled, snap)
    }

    /// Re-stamps the trailing checksum after an edit, so only the checks
    /// past the envelope can reject the stream.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    }

    /// The message of a resume's snapshot rejection.
    fn rejected(got: Result<SimReport, SimError>) -> String {
        match got {
            Err(SimError::Snapshot(msg)) => msg,
            other => panic!("expected a snapshot rejection, got {other:?}"),
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let (compiled, snap) = tiny();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("decode");
        assert_eq!(decoded.encode(), bytes);
        assert!(compiled.resume(&decoded, &options()).is_ok());
        assert_eq!(decoded.requested_cut(), 3);
        assert_eq!(decoded.actual_cut(), snap.actual_cut());
        assert!(!decoded.completed());
    }

    #[test]
    fn every_truncation_fails_typed() {
        let bytes = tiny().1.encode();
        for n in 0..bytes.len() {
            match Snapshot::decode(&bytes[..n]) {
                Err(SimError::Snapshot(_)) => {}
                other => panic!("truncation at {n} gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_fails_typed() {
        let bytes = tiny().1.encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x41;
            match Snapshot::decode(&bad) {
                Err(SimError::Snapshot(_)) => {}
                other => panic!("flip at {i} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = tiny().1.encode();
        assert!(matches!(Snapshot::decode(&[]), Err(SimError::Snapshot(_))));
        // Corrupt the version but re-stamp the checksum: the version check
        // itself must fire.
        bytes[4] = 0xEE;
        reseal(&mut bytes);
        match Snapshot::decode(&bytes) {
            Err(SimError::Snapshot(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("{other:?}"),
        }
        // Version-1 streams (they carried a transfer log) and version-2
        // streams (they lacked each memory's create_mem op) are rejected too.
        for old in [1u32, 2] {
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            reseal(&mut bytes);
            match Snapshot::decode(&bytes) {
                Err(SimError::Snapshot(msg)) => {
                    assert!(msg.contains(&format!("version {old}")), "{msg}")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// Runs `program(mem_kind)` to cycle 3, lets `edit` change the paused
    /// engine, captures it and resumes the capture.
    fn resume_edited(
        mem_kind: &str,
        edit: impl FnOnce(&mut Engine),
    ) -> Result<SimReport, SimError> {
        let module = program(mem_kind);
        let lib = SimLibrary::standard();
        let plan = Plan::build(&module, &lib);
        let start = Instant::now();
        let mut engine = Engine::fresh(&module, &plan, &lib, &options(), start);
        engine.snapshot_at = Some(3);
        engine.run().expect("runs to the cut");
        edit(&mut engine);
        let snap = capture(&mut engine, 3);
        resume_with_plan(&module, &plan, &lib, &options(), start, &snap)
    }

    /// Resumes the cache program after `edit` changed its cache's state.
    fn resume_with_cache(edit: fn(&mut CacheBehavior)) -> Result<SimReport, SimError> {
        resume_edited(kinds::CACHE, |e| {
            let mem = e
                .machine
                .components
                .iter_mut()
                .find_map(|c| match &mut c.kind {
                    ComponentKind::Memory(m) => Some(m),
                    _ => None,
                });
            let model: &mut dyn Any = &mut *mem.expect("the program has a memory").behavior;
            edit(model.downcast_mut().expect("the memory is a stock cache"));
        })
    }

    #[test]
    fn sound_cache_state_resumes() {
        assert!(resume_with_cache(|_| {}).is_ok());
    }

    #[test]
    fn cache_tag_table_must_match_its_sets() {
        let msg = rejected(resume_with_cache(|c| {
            c.tags.pop();
        }));
        assert!(msg.contains("one stack per set"), "{msg}");
    }

    #[test]
    fn cache_set_cannot_exceed_its_ways() {
        let msg = rejected(resume_with_cache(|c| c.tags[0] = vec![0; c.ways + 1]));
        assert!(msg.contains("more tags than it has ways"), "{msg}");
    }

    /// A component is rebuilt from the op its origin names, which must be
    /// an op that creates one.
    #[test]
    fn component_origin_must_create_a_component() {
        let msg = rejected(resume_edited(kinds::SRAM, |e| {
            let alloc = (0..e.module.num_ops())
                .map(OpId::from_index)
                .find(|op| matches!(e.plan.ops[op.index()].code, OpCode::Alloc { .. }));
            // Component 2 is the memory; 0 and 1 are the host and the PE.
            e.machine.components[2].origin = Some(alloc.expect("the program allocates"));
        }));
        assert!(msg.contains("not an op that creates one"), "{msg}");
    }

    /// The engine's stuck-work check reads the host processor, so a
    /// stream without one must be rejected before the run starts.
    #[test]
    fn snapshot_without_processors_is_rejected() {
        let msg = rejected(resume_edited(kinds::SRAM, |e| {
            e.procs.clear();
            e.wake_queue = EventQueue::new();
        }));
        assert!(msg.contains("host processor"), "{msg}");
    }

    #[test]
    fn buffer_outside_its_memory_is_rejected() {
        let msg = rejected(resume_edited(kinds::CACHE, |e| {
            e.machine.buffers[0].base_addr = usize::MAX - 1;
        }));
        assert!(msg.contains("outside its memory"), "{msg}");
    }

    #[test]
    fn buffer_size_overflow_is_rejected() {
        let msg = rejected(resume_edited(kinds::SRAM, |e| {
            e.machine.buffers[0].elem_bytes = usize::MAX;
        }));
        assert!(msg.contains("size overflows"), "{msg}");
    }

    /// A frame runs the ops of its own scope only: its slots index that
    /// scope's layout.
    #[test]
    fn frame_block_outside_its_scope_is_rejected() {
        let msg = rejected(resume_edited(kinds::SRAM, |e| {
            let top = e.module.top_block();
            let frame = e
                .procs
                .iter_mut()
                .find_map(|p| p.frame.as_mut().filter(|f| f.scope != 0));
            frame.expect("the launch is running at the cut").stack[0].block = top;
        }));
        assert!(msg.contains("outside the frame's scope"), "{msg}");
    }
}
