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
//! [`Snapshot::encode`] emits a dependency-free, versioned, little-endian
//! binary stream: the magic `EQSS`, a `u32` format version, the header and
//! state sections, and a trailing FNV-1a 64-bit checksum over everything
//! before it. [`Snapshot::decode`] verifies the checksum first, so any
//! truncation or byte mutation is rejected with a typed
//! [`SimError::Snapshot`] — never a panic. Encoding is canonical
//! (deterministic field order, profile maps sorted by key, wake queue sorted
//! by `(time, seq)`), so `encode(decode(bytes)) == bytes` for any stream that
//! decodes successfully.
//!
//! The snapshot is RNG-free and wall-clock-free: resuming restarts the
//! wall-clock budget ([`crate::RunLimits::wall_deadline`]) but continues the
//! cycle/event budgets from the captured counters.

use std::collections::HashMap;

use equeue_dialect::ConnKind;
use equeue_ir::IdVec;

use crate::engine::{Backend, EventKind, Frame, LoopDim, LoopState, PendingEvent, Scope};
use crate::machine::{BehaviorSnapshot, Buffer, ChannelStats, MemCounters, ProcProfile};
use crate::signal::SignalState;
use crate::value::{BufId, CompId, ConnId, SignalId, SimValue, Tensor, TensorData};
use crate::SimError;

/// Magic bytes opening every snapshot stream.
const MAGIC: [u8; 4] = *b"EQSS";

/// Current snapshot format version. Bumped on any wire-format change;
/// decoding rejects unknown versions.
pub const FORMAT_VERSION: u32 = 2;

/// Shape fingerprint of the module a snapshot was captured from, so resuming
/// against a different module fails with a typed error instead of undefined
/// replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ModuleFingerprint {
    /// Total ops in the module.
    pub(crate) num_ops: u64,
    /// Total blocks in the module.
    pub(crate) num_blocks: u64,
    /// Total SSA values in the module.
    pub(crate) num_values: u64,
}

/// Captured timing profile of a processor (sorted for canonical encoding).
#[derive(Debug, Clone)]
pub(crate) struct ProfileSnap {
    pub(crate) default_cycles: u64,
    pub(crate) per_op: Vec<(String, u64)>,
}

impl ProfileSnap {
    pub(crate) fn capture(p: &ProcProfile) -> Self {
        let mut per_op: Vec<(String, u64)> =
            p.per_op.iter().map(|(k, v)| (k.clone(), *v)).collect();
        per_op.sort();
        ProfileSnap {
            default_cycles: p.default_cycles,
            per_op,
        }
    }

    pub(crate) fn restore(&self) -> ProcProfile {
        ProcProfile {
            default_cycles: self.default_cycles,
            per_op: self.per_op.iter().cloned().collect::<HashMap<_, _>>(),
        }
    }
}

/// Captured state of one processor runtime.
#[derive(Debug, Clone)]
pub(crate) struct ProcSnap {
    pub(crate) comp: u32,
    pub(crate) clock: u64,
    pub(crate) profile: ProfileSnap,
    pub(crate) queue: Vec<PendingEvent>,
    pub(crate) frame: Option<Frame>,
}

/// Captured state of one memory component.
#[derive(Debug, Clone)]
pub(crate) struct MemSnap {
    pub(crate) kind: String,
    pub(crate) capacity_elems: u64,
    pub(crate) data_bits: u32,
    pub(crate) banks: u32,
    pub(crate) used_elems: u64,
    pub(crate) behavior: BehaviorSnapshot,
    pub(crate) ports: Vec<u64>,
    pub(crate) counters: MemCounters,
    pub(crate) energy_per_access_pj: f64,
}

/// Captured component (name + kind-specific state).
#[derive(Debug, Clone)]
pub(crate) enum CompKindSnap {
    Processor { kind: String, profile: ProfileSnap },
    Memory(MemSnap),
    Dma,
    Composite(Vec<(String, u32)>),
}

/// One captured component instance.
#[derive(Debug, Clone)]
pub(crate) struct CompSnap {
    pub(crate) name: String,
    pub(crate) kind: CompKindSnap,
}

/// Captured connection: configuration, channel reservations, and the
/// per-direction bandwidth accumulators (bandwidth statistics are computed
/// from them, so they must round-trip for resumed reports to match).
#[derive(Debug, Clone)]
pub(crate) struct ConnSnap {
    pub(crate) name: String,
    pub(crate) kind: ConnKind,
    pub(crate) bytes_per_cycle: u64,
    pub(crate) read_free: u64,
    pub(crate) write_free: u64,
    pub(crate) read_stats: ChannelStats,
    pub(crate) write_stats: ChannelStats,
}

/// The captured hardware model: components, buffers, connections.
#[derive(Debug, Clone)]
pub(crate) struct MachineSnap {
    pub(crate) components: Vec<CompSnap>,
    pub(crate) buffers: Vec<Buffer>,
    pub(crate) connections: Vec<ConnSnap>,
}

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
    pub(crate) requested_cut: u64,
    pub(crate) actual_cut: u64,
    pub(crate) completed: bool,
    pub(crate) capture_backend: Backend,
    pub(crate) fingerprint: ModuleFingerprint,
    pub(crate) now: u64,
    pub(crate) horizon: u64,
    pub(crate) wakes: u64,
    pub(crate) ops_interpreted: u64,
    pub(crate) events_spawned: u64,
    pub(crate) live_tensor_bytes: u64,
    pub(crate) peak_live_tensor_bytes: u64,
    pub(crate) fused_trace_entries: u64,
    pub(crate) idle_steps: u64,
    pub(crate) seq: u64,
    pub(crate) host_mem: Option<u32>,
    /// Pending scheduler wakes `(time, seq, proc)`, sorted ascending.
    pub(crate) wake_queue: Vec<(u64, u64, u32)>,
    pub(crate) signals: Vec<SignalState>,
    pub(crate) procs: Vec<ProcSnap>,
    pub(crate) machine: MachineSnap,
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

    /// The backend that executed the run up to the capture point.
    pub fn capture_backend(&self) -> Backend {
        self.capture_backend
    }

    /// Serialises to the versioned binary wire format (see module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(self.requested_cut);
        w.u64(self.actual_cut);
        w.boolean(self.completed);
        w.u8(match self.capture_backend {
            Backend::Interp => 0,
            Backend::Fused => 1,
        });
        w.u64(self.fingerprint.num_ops);
        w.u64(self.fingerprint.num_blocks);
        w.u64(self.fingerprint.num_values);
        for c in [
            self.now,
            self.horizon,
            self.wakes,
            self.ops_interpreted,
            self.events_spawned,
            self.live_tensor_bytes,
            self.peak_live_tensor_bytes,
            self.fused_trace_entries,
            self.idle_steps,
            self.seq,
        ] {
            w.u64(c);
        }
        w.opt_u32(self.host_mem);
        w.seq_len(self.wake_queue.len());
        for &(t, s, p) in &self.wake_queue {
            w.u64(t);
            w.u64(s);
            w.u32(p);
        }
        w.seq_len(self.signals.len());
        for s in &self.signals {
            w_signal_state(&mut w, s);
        }
        w.seq_len(self.procs.len());
        for p in &self.procs {
            w_proc(&mut w, p);
        }
        w_machine(&mut w, &self.machine);
        let checksum = fnv1a(&w.buf);
        w.u64(checksum);
        w.buf
    }

    /// Deserialises a snapshot from `bytes`.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] on bad magic, unknown version, checksum
    /// mismatch (any truncation or mutation), or a structurally invalid
    /// stream. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SimError> {
        // Checksum first: everything after this point may assume the stream
        // is the untampered output of `encode` (structural validation is
        // still performed — defence in depth for hand-crafted streams).
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(err("stream shorter than the fixed header"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut stored = [0u8; 8];
        stored.copy_from_slice(tail);
        if fnv1a(body) != u64::from_le_bytes(stored) {
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
        let capture_backend = match r.u8()? {
            0 => Backend::Interp,
            1 => Backend::Fused,
            t => return Err(err(&format!("unknown backend tag {t}"))),
        };
        let fingerprint = ModuleFingerprint {
            num_ops: r.u64()?,
            num_blocks: r.u64()?,
            num_values: r.u64()?,
        };
        let now = r.u64()?;
        let horizon = r.u64()?;
        let wakes = r.u64()?;
        let ops_interpreted = r.u64()?;
        let events_spawned = r.u64()?;
        let live_tensor_bytes = r.u64()?;
        let peak_live_tensor_bytes = r.u64()?;
        let fused_trace_entries = r.u64()?;
        let idle_steps = r.u64()?;
        let seq = r.u64()?;
        let host_mem = r.opt_u32()?;
        let n = r.seq_len(8 + 8 + 4)?;
        let mut wake_queue = Vec::with_capacity(n);
        for _ in 0..n {
            wake_queue.push((r.u64()?, r.u64()?, r.u32()?));
        }
        let n = r.seq_len(1)?;
        let mut signals = Vec::with_capacity(n);
        for _ in 0..n {
            signals.push(r_signal_state(&mut r)?);
        }
        let n = r.seq_len(1)?;
        let mut procs = Vec::with_capacity(n);
        for _ in 0..n {
            procs.push(r_proc(&mut r)?);
        }
        let machine = r_machine(&mut r)?;
        if !r.at_end() {
            return Err(err("trailing bytes after the machine section"));
        }
        Ok(Snapshot {
            requested_cut,
            actual_cut,
            completed,
            capture_backend,
            fingerprint,
            now,
            horizon,
            wakes,
            ops_interpreted,
            events_spawned,
            live_tensor_bytes,
            peak_live_tensor_bytes,
            fused_trace_entries,
            idle_steps,
            seq,
            host_mem,
            wake_queue,
            signals,
            procs,
            machine,
        })
    }
}

/// Builds a [`SimError::Snapshot`].
pub(crate) fn err(msg: &str) -> SimError {
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

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

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

    fn seq_len(&mut self, len: usize) {
        self.u64(len as u64);
    }

    fn string(&mut self, s: &str) {
        self.seq_len(s.len());
        self.bytes(s.as_bytes());
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
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

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
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
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, SimError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64, SimError> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take(8)?);
        Ok(i64::from_le_bytes(b))
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
        if n > self.remaining() / min_elem.max(1) {
            return Err(err("sequence length exceeds the remaining stream"));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, SimError> {
        let n = self.seq_len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| err("invalid utf-8 in string"))
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, SimError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            t => Err(err(&format!("bad option tag {t}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

fn w_value(w: &mut Writer, v: &SimValue) {
    match v {
        SimValue::Unit => w.u8(0),
        SimValue::Int(i) => {
            w.u8(1);
            w.i64(*i);
        }
        SimValue::Float(x) => {
            w.u8(2);
            w.f64(*x);
        }
        SimValue::Tensor(t) => {
            w.u8(3);
            w_tensor(w, t);
        }
        SimValue::Signal(s) => {
            w.u8(4);
            w.u32(s.0);
        }
        SimValue::Component(c) => {
            w.u8(5);
            w.u32(c.0);
        }
        SimValue::Buffer(b) => {
            w.u8(6);
            w.u32(b.0);
        }
        SimValue::Connection(c) => {
            w.u8(7);
            w.u32(c.0);
        }
        SimValue::Deferred { signal, index } => {
            w.u8(8);
            w.u32(signal.0);
            w.usize(*index);
        }
    }
}

fn r_value(r: &mut Reader) -> Result<SimValue, SimError> {
    Ok(match r.u8()? {
        0 => SimValue::Unit,
        1 => SimValue::Int(r.i64()?),
        2 => SimValue::Float(r.f64()?),
        3 => SimValue::Tensor(r_tensor(r)?),
        4 => SimValue::Signal(SignalId(r.u32()?)),
        5 => SimValue::Component(CompId(r.u32()?)),
        6 => SimValue::Buffer(BufId(r.u32()?)),
        7 => SimValue::Connection(ConnId(r.u32()?)),
        8 => SimValue::Deferred {
            signal: SignalId(r.u32()?),
            index: r.usize()?,
        },
        t => return Err(err(&format!("unknown value tag {t}"))),
    })
}

fn w_opt_value(w: &mut Writer, v: &Option<SimValue>) {
    match v {
        None => w.u8(0),
        Some(x) => {
            w.u8(1);
            w_value(w, x);
        }
    }
}

fn r_opt_value(r: &mut Reader) -> Result<Option<SimValue>, SimError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r_value(r)?)),
        t => Err(err(&format!("bad option tag {t}"))),
    }
}

fn w_tensor(w: &mut Writer, t: &Tensor) {
    w.seq_len(t.shape.len());
    for &d in &t.shape {
        w.usize(d);
    }
    match &t.data {
        TensorData::Int(v) => {
            w.u8(0);
            w.seq_len(v.len());
            for &x in v.iter() {
                w.i64(x);
            }
        }
        TensorData::Float(v) => {
            w.u8(1);
            w.seq_len(v.len());
            for &x in v.iter() {
                w.f64(x);
            }
        }
    }
}

fn r_tensor(r: &mut Reader) -> Result<Tensor, SimError> {
    let rank = r.seq_len(8)?;
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.usize()?);
    }
    let data = match r.u8()? {
        0 => {
            let n = r.seq_len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            TensorData::from_ints(v)
        }
        1 => {
            let n = r.seq_len(8)?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.f64()?);
            }
            TensorData::from_floats(v)
        }
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

fn w_signal_state(w: &mut Writer, s: &SignalState) {
    match s {
        SignalState::Pending {
            remaining,
            time_acc,
            any_mode,
            dependents,
        } => {
            w.u8(0);
            w.usize(*remaining);
            w.u64(*time_acc);
            w.boolean(*any_mode);
            w.seq_len(dependents.len());
            for d in dependents {
                w.u32(d.0);
            }
        }
        SignalState::Resolved { time, payload } => {
            w.u8(1);
            w.u64(*time);
            w.seq_len(payload.len());
            for v in payload {
                w_value(w, v);
            }
        }
    }
}

fn r_signal_state(r: &mut Reader) -> Result<SignalState, SimError> {
    Ok(match r.u8()? {
        0 => {
            let remaining = r.usize()?;
            let time_acc = r.u64()?;
            let any_mode = r.boolean()?;
            let n = r.seq_len(4)?;
            let mut dependents = IdVec::new();
            for _ in 0..n {
                dependents.push(SignalId(r.u32()?));
            }
            SignalState::Pending {
                remaining,
                time_acc,
                any_mode,
                dependents,
            }
        }
        1 => {
            let time = r.u64()?;
            let n = r.seq_len(1)?;
            let mut payload = Vec::with_capacity(n);
            for _ in 0..n {
                payload.push(r_value(r)?);
            }
            SignalState::Resolved { time, payload }
        }
        t => return Err(err(&format!("unknown signal-state tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// Engine-state codecs
// ---------------------------------------------------------------------------

fn w_event(w: &mut Writer, e: &PendingEvent) {
    match &e.kind {
        EventKind::Launch { op, env } => {
            w.u8(0);
            w.usize(op.index());
            w.seq_len(env.len());
            for v in env {
                w_opt_value(w, v);
            }
        }
        EventKind::Memcpy { src, dst, conn } => {
            w.u8(1);
            w.u32(src.0);
            w.u32(dst.0);
            w.opt_u32(conn.map(|c| c.0));
        }
    }
    w.u32(e.dep.0);
    w.u32(e.done.0);
}

fn r_event(r: &mut Reader) -> Result<PendingEvent, SimError> {
    let kind = match r.u8()? {
        0 => {
            let op = equeue_ir::OpId::from_index(r.usize()?);
            let n = r.seq_len(1)?;
            let mut env = Vec::with_capacity(n);
            for _ in 0..n {
                env.push(r_opt_value(r)?);
            }
            EventKind::Launch { op, env }
        }
        1 => EventKind::Memcpy {
            src: BufId(r.u32()?),
            dst: BufId(r.u32()?),
            conn: r.opt_u32()?.map(ConnId),
        },
        t => return Err(err(&format!("unknown event tag {t}"))),
    };
    Ok(PendingEvent {
        kind,
        dep: SignalId(r.u32()?),
        done: SignalId(r.u32()?),
    })
}

/// The loop-state wire format is columnar: the iv slots, then one sequence
/// per field in this order.
const LOOP_FIELDS: [fn(&mut LoopDim) -> &mut i64; 4] = [
    |d| &mut d.lower,
    |d| &mut d.upper,
    |d| &mut d.step,
    |d| &mut d.current,
];

fn w_loop_state(w: &mut Writer, s: &LoopState) {
    w.seq_len(s.dims.len());
    for d in &s.dims {
        w.u32(d.iv);
    }
    for field in LOOP_FIELDS {
        w.seq_len(s.dims.len());
        for mut d in s.dims.iter().copied() {
            w.i64(*field(&mut d));
        }
    }
}

fn r_loop_state(r: &mut Reader) -> Result<LoopState, SimError> {
    let n = r.seq_len(4)?;
    let mut dims = Vec::with_capacity(n);
    for _ in 0..n {
        dims.push(LoopDim {
            iv: r.u32()?,
            lower: 0,
            upper: 0,
            step: 0,
            current: 0,
        });
    }
    for field in LOOP_FIELDS {
        if r.seq_len(8)? != n {
            return Err(err("loop-state dimension mismatch"));
        }
        for d in &mut dims {
            *field(d) = r.i64()?;
        }
    }
    Ok(LoopState { dims })
}

fn w_frame(w: &mut Writer, f: &Frame) {
    w.seq_len(f.env.len());
    for v in &f.env {
        w_opt_value(w, v);
    }
    w.seq_len(f.stack.len());
    for s in &f.stack {
        w.usize(s.block.index());
        w.usize(s.idx);
        match &s.looping {
            None => w.u8(0),
            Some(ls) => {
                w.u8(1);
                w_loop_state(w, ls);
            }
        }
    }
    w.u32(f.done.0);
    w.u32(f.scope);
}

fn r_frame(r: &mut Reader) -> Result<Frame, SimError> {
    let n = r.seq_len(1)?;
    let mut env = Vec::with_capacity(n);
    for _ in 0..n {
        env.push(r_opt_value(r)?);
    }
    let n = r.seq_len(1)?;
    let mut stack = Vec::with_capacity(n);
    for _ in 0..n {
        let block = equeue_ir::BlockId::from_index(r.usize()?);
        let idx = r.usize()?;
        let looping = match r.u8()? {
            0 => None,
            1 => Some(r_loop_state(r)?),
            t => return Err(err(&format!("bad option tag {t}"))),
        };
        stack.push(Scope {
            block,
            idx,
            looping,
        });
    }
    Ok(Frame {
        env,
        stack,
        done: SignalId(r.u32()?),
        scope: r.u32()?,
    })
}

fn w_profile(w: &mut Writer, p: &ProfileSnap) {
    w.u64(p.default_cycles);
    w.seq_len(p.per_op.len());
    for (name, cycles) in &p.per_op {
        w.string(name);
        w.u64(*cycles);
    }
}

fn r_profile(r: &mut Reader) -> Result<ProfileSnap, SimError> {
    let default_cycles = r.u64()?;
    let n = r.seq_len(1)?;
    let mut per_op = Vec::with_capacity(n);
    for _ in 0..n {
        per_op.push((r.string()?, r.u64()?));
    }
    Ok(ProfileSnap {
        default_cycles,
        per_op,
    })
}

fn w_proc(w: &mut Writer, p: &ProcSnap) {
    w.u32(p.comp);
    w.u64(p.clock);
    w_profile(w, &p.profile);
    w.seq_len(p.queue.len());
    for e in &p.queue {
        w_event(w, e);
    }
    match &p.frame {
        None => w.u8(0),
        Some(f) => {
            w.u8(1);
            w_frame(w, f);
        }
    }
}

fn r_proc(r: &mut Reader) -> Result<ProcSnap, SimError> {
    let comp = r.u32()?;
    let clock = r.u64()?;
    let profile = r_profile(r)?;
    let n = r.seq_len(1)?;
    let mut queue = Vec::with_capacity(n);
    for _ in 0..n {
        queue.push(r_event(r)?);
    }
    let frame = match r.u8()? {
        0 => None,
        1 => Some(r_frame(r)?),
        t => return Err(err(&format!("bad option tag {t}"))),
    };
    Ok(ProcSnap {
        comp,
        clock,
        profile,
        queue,
        frame,
    })
}

// ---------------------------------------------------------------------------
// Machine codecs
// ---------------------------------------------------------------------------

fn w_behavior(w: &mut Writer, b: &BehaviorSnapshot) {
    match b {
        BehaviorSnapshot::Sram { cycles_per_access } => {
            w.u8(0);
            w.u64(*cycles_per_access);
        }
        BehaviorSnapshot::Register => w.u8(1),
        BehaviorSnapshot::Dram {
            latency,
            cycles_per_access,
        } => {
            w.u8(2);
            w.u64(*latency);
            w.u64(*cycles_per_access);
        }
        BehaviorSnapshot::Cache {
            sets,
            ways,
            line_elems,
            hit_cycles,
            miss_cycles,
            tags,
            hits,
            misses,
        } => {
            w.u8(3);
            w.usize(*sets);
            w.usize(*ways);
            w.usize(*line_elems);
            w.u64(*hit_cycles);
            w.u64(*miss_cycles);
            w.seq_len(tags.len());
            for set in tags {
                w.seq_len(set.len());
                for &t in set {
                    w.usize(t);
                }
            }
            w.u64(*hits);
            w.u64(*misses);
        }
        _ => w.u8(4),
    }
}

fn r_behavior(r: &mut Reader) -> Result<BehaviorSnapshot, SimError> {
    Ok(match r.u8()? {
        0 => BehaviorSnapshot::Sram {
            cycles_per_access: r.u64()?,
        },
        1 => BehaviorSnapshot::Register,
        2 => BehaviorSnapshot::Dram {
            latency: r.u64()?,
            cycles_per_access: r.u64()?,
        },
        3 => {
            let sets = r.usize()?;
            let ways = r.usize()?;
            let line_elems = r.usize()?;
            let hit_cycles = r.u64()?;
            let miss_cycles = r.u64()?;
            let n = r.seq_len(8)?;
            let mut tags = Vec::with_capacity(n);
            for _ in 0..n {
                let m = r.seq_len(8)?;
                let mut set = Vec::with_capacity(m);
                for _ in 0..m {
                    set.push(r.usize()?);
                }
                tags.push(set);
            }
            BehaviorSnapshot::Cache {
                sets,
                ways,
                line_elems,
                hit_cycles,
                miss_cycles,
                tags,
                hits: r.u64()?,
                misses: r.u64()?,
            }
        }
        4 => BehaviorSnapshot::Opaque,
        t => return Err(err(&format!("unknown behavior tag {t}"))),
    })
}

fn w_machine(w: &mut Writer, m: &MachineSnap) {
    w.seq_len(m.components.len());
    for c in &m.components {
        w.string(&c.name);
        match &c.kind {
            CompKindSnap::Processor { kind, profile } => {
                w.u8(0);
                w.string(kind);
                w_profile(w, profile);
            }
            CompKindSnap::Memory(mem) => {
                w.u8(1);
                w.string(&mem.kind);
                w.u64(mem.capacity_elems);
                w.u32(mem.data_bits);
                w.u32(mem.banks);
                w.u64(mem.used_elems);
                w_behavior(w, &mem.behavior);
                w.seq_len(mem.ports.len());
                for &p in &mem.ports {
                    w.u64(p);
                }
                w.u64(mem.counters.bytes_read);
                w.u64(mem.counters.bytes_written);
                w.u64(mem.counters.reads);
                w.u64(mem.counters.writes);
                w.f64(mem.energy_per_access_pj);
            }
            CompKindSnap::Dma => w.u8(2),
            CompKindSnap::Composite(children) => {
                w.u8(3);
                w.seq_len(children.len());
                for (name, id) in children {
                    w.string(name);
                    w.u32(*id);
                }
            }
        }
    }
    w.seq_len(m.buffers.len());
    for b in &m.buffers {
        w.u32(b.mem.0);
        w.seq_len(b.shape.len());
        for &d in &b.shape {
            w.usize(d);
        }
        w.usize(b.elem_bytes);
        w.usize(b.base_addr);
        w.boolean(b.live);
        w_tensor(w, &b.data);
    }
    w.seq_len(m.connections.len());
    for c in &m.connections {
        w.string(&c.name);
        w.u8(match c.kind {
            ConnKind::Streaming => 0,
            ConnKind::Window => 1,
        });
        w.u64(c.bytes_per_cycle);
        w.u64(c.read_free);
        w.u64(c.write_free);
        for s in [&c.read_stats, &c.write_stats] {
            w.u64(s.bytes);
            w.u64(s.peak_bytes);
            w.u64(s.peak_dur);
            w.u64(s.at_peak);
        }
    }
}

fn r_channel_stats(r: &mut Reader) -> Result<ChannelStats, SimError> {
    let stats = ChannelStats {
        bytes: r.u64()?,
        peak_bytes: r.u64()?,
        peak_dur: r.u64()?,
        at_peak: r.u64()?,
    };
    if stats.peak_dur == 0 {
        return Err(err("connection peak duration is zero"));
    }
    Ok(stats)
}

fn r_machine(r: &mut Reader) -> Result<MachineSnap, SimError> {
    let n = r.seq_len(1)?;
    let mut components = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string()?;
        let kind = match r.u8()? {
            0 => CompKindSnap::Processor {
                kind: r.string()?,
                profile: r_profile(r)?,
            },
            1 => {
                let kind = r.string()?;
                let capacity_elems = r.u64()?;
                let data_bits = r.u32()?;
                let banks = r.u32()?;
                let used_elems = r.u64()?;
                let behavior = r_behavior(r)?;
                let m = r.seq_len(8)?;
                let mut ports = Vec::with_capacity(m);
                for _ in 0..m {
                    ports.push(r.u64()?);
                }
                let counters = MemCounters {
                    bytes_read: r.u64()?,
                    bytes_written: r.u64()?,
                    reads: r.u64()?,
                    writes: r.u64()?,
                };
                CompKindSnap::Memory(MemSnap {
                    kind,
                    capacity_elems,
                    data_bits,
                    banks,
                    used_elems,
                    behavior,
                    ports,
                    counters,
                    energy_per_access_pj: r.f64()?,
                })
            }
            2 => CompKindSnap::Dma,
            3 => {
                let m = r.seq_len(1)?;
                let mut children = Vec::with_capacity(m);
                for _ in 0..m {
                    children.push((r.string()?, r.u32()?));
                }
                CompKindSnap::Composite(children)
            }
            t => return Err(err(&format!("unknown component tag {t}"))),
        };
        components.push(CompSnap { name, kind });
    }
    let n = r.seq_len(1)?;
    let mut buffers = Vec::with_capacity(n);
    for _ in 0..n {
        let mem = CompId(r.u32()?);
        let rank = r.seq_len(8)?;
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(r.usize()?);
        }
        let elem_bytes = r.usize()?;
        let base_addr = r.usize()?;
        let live = r.boolean()?;
        let data = r_tensor(r)?;
        buffers.push(Buffer {
            mem,
            shape,
            elem_bytes,
            base_addr,
            live,
            data,
        });
    }
    let n = r.seq_len(1)?;
    let mut connections = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.string()?;
        let kind = match r.u8()? {
            0 => ConnKind::Streaming,
            1 => ConnKind::Window,
            t => return Err(err(&format!("unknown connection tag {t}"))),
        };
        let bytes_per_cycle = r.u64()?;
        let read_free = r.u64()?;
        let write_free = r.u64()?;
        let read_stats = r_channel_stats(r)?;
        let write_stats = r_channel_stats(r)?;
        connections.push(ConnSnap {
            name,
            kind,
            bytes_per_cycle,
            read_free,
            write_free,
            read_stats,
            write_stats,
        });
    }
    Ok(MachineSnap {
        components,
        buffers,
        connections,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Snapshot {
        Snapshot {
            requested_cut: 10,
            actual_cut: 12,
            completed: false,
            capture_backend: Backend::Fused,
            fingerprint: ModuleFingerprint {
                num_ops: 3,
                num_blocks: 2,
                num_values: 5,
            },
            now: 9,
            horizon: 12,
            wakes: 4,
            ops_interpreted: 7,
            events_spawned: 2,
            live_tensor_bytes: 64,
            peak_live_tensor_bytes: 128,
            fused_trace_entries: 1,
            idle_steps: 0,
            seq: 6,
            host_mem: Some(1),
            wake_queue: vec![(12, 5, 0)],
            signals: vec![
                SignalState::Resolved {
                    time: 3,
                    payload: vec![SimValue::Int(-4), SimValue::Float(1.5)],
                },
                SignalState::Pending {
                    remaining: 2,
                    time_acc: 7,
                    any_mode: false,
                    dependents: [SignalId(0)].into_iter().collect(),
                },
            ],
            procs: vec![ProcSnap {
                comp: 0,
                clock: 9,
                profile: ProfileSnap {
                    default_cycles: 1,
                    per_op: vec![("mac".into(), 2)],
                },
                queue: vec![PendingEvent {
                    kind: EventKind::Memcpy {
                        src: BufId(0),
                        dst: BufId(0),
                        conn: None,
                    },
                    dep: SignalId(0),
                    done: SignalId(1),
                }],
                frame: None,
            }],
            machine: MachineSnap {
                components: vec![CompSnap {
                    name: "HostMem".into(),
                    kind: CompKindSnap::Memory(MemSnap {
                        kind: "Register".into(),
                        capacity_elems: 1024,
                        data_bits: 32,
                        banks: 1,
                        used_elems: 4,
                        behavior: BehaviorSnapshot::Register,
                        ports: vec![0],
                        counters: MemCounters {
                            bytes_read: 16,
                            bytes_written: 16,
                            reads: 1,
                            writes: 1,
                        },
                        energy_per_access_pj: 0.5,
                    }),
                }],
                buffers: vec![Buffer {
                    mem: CompId(0),
                    shape: vec![2, 2],
                    elem_bytes: 4,
                    base_addr: 0,
                    live: true,
                    data: Tensor {
                        shape: vec![2, 2],
                        data: TensorData::from_ints(vec![1, 2, 3, 4]),
                    },
                }],
                connections: vec![ConnSnap {
                    name: "c0".into(),
                    kind: ConnKind::Streaming,
                    bytes_per_cycle: 4,
                    read_free: 8,
                    write_free: 9,
                    read_stats: ChannelStats::default(),
                    write_stats: ChannelStats {
                        bytes: 16,
                        peak_bytes: 16,
                        peak_dur: 4,
                        at_peak: 4,
                    },
                }],
            },
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let snap = tiny();
        let bytes = snap.encode();
        let decoded = Snapshot::decode(&bytes).expect("decode");
        assert_eq!(decoded.encode(), bytes);
        assert_eq!(decoded.requested_cut(), 10);
        assert_eq!(decoded.actual_cut(), 12);
        assert!(!decoded.completed());
        assert_eq!(decoded.capture_backend(), Backend::Fused);
    }

    #[test]
    fn every_truncation_fails_typed() {
        let bytes = tiny().encode();
        for n in 0..bytes.len() {
            match Snapshot::decode(&bytes[..n]) {
                Err(SimError::Snapshot(_)) => {}
                other => panic!("truncation at {n} gave {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_fails_typed() {
        let bytes = tiny().encode();
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
        let mut bytes = tiny().encode();
        assert!(matches!(Snapshot::decode(&[]), Err(SimError::Snapshot(_))));
        // Corrupt the version but re-stamp the checksum: the version check
        // itself must fire.
        bytes[4] = 0xEE;
        let body_len = bytes.len() - 8;
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        match Snapshot::decode(&bytes) {
            Err(SimError::Snapshot(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("{other:?}"),
        }
        // A version-1 stream (it carried a transfer log) is rejected too.
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        let sum = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
        match Snapshot::decode(&bytes) {
            Err(SimError::Snapshot(msg)) => assert!(msg.contains("version 1"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }
}
