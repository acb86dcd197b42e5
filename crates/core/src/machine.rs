//! The elaborated hardware model: component instances, buffers, and
//! connections, with per-device schedule queues for contention (§IV-C/D).
//!
//! A [`Machine`] is built incrementally while the engine interprets the
//! structure-specification ops of an EQueue program (`create_proc`,
//! `create_mem`, …). Timing behaviour lives in small model objects:
//! processors charge the op costs of their kind, memories implement
//! [`MemoryBehavior`] (the paper's `getReadOrWriteCycles` extension point),
//! and connections ration bytes per cycle.

use crate::interp::BinOp;
use crate::profile::BandwidthStats;
use crate::value::{BufId, CompId, ConnId, Tensor};
use equeue_dialect::ConnKind;
use equeue_ir::OpId;
use std::any::Any;
use std::collections::HashMap;

/// Read or write, for memory/connection accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

/// Timing model of a memory component: given an access, report its latency
/// in cycles. Implementations may keep state (e.g. cache tags) — this is
/// the extension point of §IV-D: a custom component overrides
/// `access_cycles` exactly like the paper's `getReadOrWriteCycles`.
///
/// Simulation snapshots carry no model configuration: on resume every
/// model is rebuilt by its library factory from the
/// [`MemSpec`](crate::MemSpec) of the `equeue.create_mem` op that created
/// its memory. The only model state a snapshot carries is a
/// [`CacheBehavior`]'s tags and hit and miss counts, found by
/// downcasting; any other stateful model restarts from its initial state.
pub trait MemoryBehavior: Any + Send {
    /// Latency in cycles of accessing `elems` elements starting at flat
    /// element address `addr`, on a memory with `banks` banks.
    fn access_cycles(&mut self, kind: AccessKind, addr: usize, elems: usize, banks: u32) -> u64;

    /// Model name for diagnostics.
    fn model_name(&self) -> &str;

    /// If every single-element access costs the same, stateless latency
    /// regardless of kind/address/history, that latency. `None` (the
    /// default) means the latency is address- or history-dependent — such
    /// memories are excluded from the engine's fused loop traces, which
    /// pre-resolve cycle costs at trace-entry time. Stateful models (e.g.
    /// [`CacheBehavior`]) must keep the default: returning `Some` here would
    /// let traces bypass their `access_cycles` state updates.
    fn uniform_scalar_cycles(&self) -> Option<u64> {
        None
    }
}

/// SRAM: one access per bank per `cycles_per_access`; a burst of `elems`
/// spreads across banks.
#[derive(Debug, Clone)]
pub struct SramBehavior {
    /// Cycles per (banked) access beat; 1 for on-chip SRAM.
    pub cycles_per_access: u64,
}

impl Default for SramBehavior {
    fn default() -> Self {
        SramBehavior {
            cycles_per_access: 1,
        }
    }
}

impl MemoryBehavior for SramBehavior {
    fn access_cycles(&mut self, _kind: AccessKind, _addr: usize, elems: usize, banks: u32) -> u64 {
        (elems as u64).div_ceil(banks.max(1) as u64) * self.cycles_per_access
    }

    fn model_name(&self) -> &str {
        "SRAM"
    }

    fn uniform_scalar_cycles(&self) -> Option<u64> {
        // One element always occupies a single beat: div_ceil(1, banks) == 1.
        Some(self.cycles_per_access)
    }
}

/// Register file: zero-latency access (the fabric the paper's systolic PEs
/// read/write every cycle).
#[derive(Debug, Clone, Default)]
pub struct RegisterBehavior;

impl MemoryBehavior for RegisterBehavior {
    fn access_cycles(
        &mut self,
        _kind: AccessKind,
        _addr: usize,
        _elems: usize,
        _banks: u32,
    ) -> u64 {
        0
    }

    fn model_name(&self) -> &str {
        "Register"
    }

    fn uniform_scalar_cycles(&self) -> Option<u64> {
        Some(0)
    }
}

/// DRAM: a fixed row-activation latency plus per-beat transfer cycles.
#[derive(Debug, Clone)]
pub struct DramBehavior {
    /// Activation latency added to every access.
    pub latency: u64,
    /// Cycles per banked beat.
    pub cycles_per_access: u64,
}

impl Default for DramBehavior {
    fn default() -> Self {
        DramBehavior {
            latency: 10,
            cycles_per_access: 2,
        }
    }
}

impl MemoryBehavior for DramBehavior {
    fn access_cycles(&mut self, _kind: AccessKind, _addr: usize, elems: usize, banks: u32) -> u64 {
        self.latency + (elems as u64).div_ceil(banks.max(1) as u64) * self.cycles_per_access
    }

    fn model_name(&self) -> &str {
        "DRAM"
    }

    fn uniform_scalar_cycles(&self) -> Option<u64> {
        Some(self.latency + self.cycles_per_access)
    }
}

/// A set-associative LRU cache in front of a slow backing store — the
/// worked example of §IV-D ("a user would add a new Cache class … and
/// override getReadOrWriteCycles to determine whether the access is a hit
/// or a miss").
#[derive(Debug, Clone)]
pub struct CacheBehavior {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Elements per cache line.
    pub line_elems: usize,
    /// Hit latency.
    pub hit_cycles: u64,
    /// Miss latency (fill from backing store).
    pub miss_cycles: u64,
    /// Per-set LRU stacks of line tags (most recent last).
    pub(crate) tags: Vec<Vec<usize>>,
    /// Hit/miss counters for tests and reports.
    pub hits: u64,
    /// Miss counter.
    pub misses: u64,
}

impl CacheBehavior {
    /// Creates a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(
        sets: usize,
        ways: usize,
        line_elems: usize,
        hit_cycles: u64,
        miss_cycles: u64,
    ) -> Self {
        assert!(
            sets > 0 && ways > 0 && line_elems > 0,
            "cache geometry must be non-zero"
        );
        CacheBehavior {
            sets,
            ways,
            line_elems,
            hit_cycles,
            miss_cycles,
            tags: vec![vec![]; sets],
            hits: 0,
            misses: 0,
        }
    }

    fn touch(&mut self, line: usize) -> bool {
        let set = line % self.sets;
        let stack = &mut self.tags[set];
        if let Some(pos) = stack.iter().position(|&t| t == line) {
            stack.remove(pos);
            stack.push(line);
            true
        } else {
            if stack.len() == self.ways {
                stack.remove(0);
            }
            stack.push(line);
            false
        }
    }
}

impl MemoryBehavior for CacheBehavior {
    fn access_cycles(&mut self, _kind: AccessKind, addr: usize, elems: usize, _banks: u32) -> u64 {
        let first_line = addr / self.line_elems;
        let last_line = (addr + elems.max(1) - 1) / self.line_elems;
        let mut total = 0;
        for line in first_line..=last_line {
            if self.touch(line) {
                self.hits += 1;
                total += self.hit_cycles;
            } else {
                self.misses += 1;
                total += self.miss_cycles;
            }
        }
        total
    }

    fn model_name(&self) -> &str {
        "Cache"
    }
}

/// Byte/access counters per memory (reported in the profiling summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounters {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
}

/// A memory component instance.
pub struct Memory {
    /// Component kind string (`"SRAM"`, `"Register"`, …).
    pub kind: String,
    /// Capacity in data elements.
    pub capacity_elems: usize,
    /// Bits per data element.
    pub data_bits: u32,
    /// Bank count.
    pub banks: u32,
    /// Elements currently allocated to live buffers.
    pub used_elems: usize,
    /// Timing model.
    pub behavior: Box<dyn MemoryBehavior>,
    /// Schedule queue: next-free times of the concurrent access ports.
    pub ports: Vec<u64>,
    /// Traffic counters.
    pub counters: MemCounters,
    /// Energy per access in picojoules (the paper's Fig. 2 discussion:
    /// SRAM costs more energy per access than a register file).
    pub energy_per_access_pj: f64,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("kind", &self.kind)
            .field("capacity_elems", &self.capacity_elems)
            .field("banks", &self.banks)
            .field("used_elems", &self.used_elems)
            .field("model", &self.behavior.model_name())
            .finish()
    }
}

impl Memory {
    /// A memory with nothing allocated and every port free.
    pub(crate) fn new(
        kind: String,
        capacity_elems: usize,
        data_bits: u32,
        banks: u32,
        ports: usize,
        behavior: Box<dyn MemoryBehavior>,
        energy_per_access_pj: f64,
    ) -> Self {
        Memory {
            kind,
            capacity_elems,
            data_bits,
            banks,
            used_elems: 0,
            behavior,
            ports: vec![0; ports.max(1)],
            counters: MemCounters::default(),
            energy_per_access_pj,
        }
    }

    /// Element size in bytes (bits rounded up).
    pub fn elem_bytes(&self) -> usize {
        (self.data_bits as usize).div_ceil(8)
    }

    /// Reserves a port for an access of `cycles` duration no earlier than
    /// `start`; returns `(actual_start, finish)`. A zero-cycle access never
    /// waits.
    pub fn reserve(&mut self, start: u64, cycles: u64) -> (u64, u64) {
        if cycles == 0 {
            return (start, start);
        }
        let port = self
            .ports
            .iter()
            .enumerate()
            .min_by_key(|(_, &free)| free)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let actual = start.max(self.ports[port]);
        let finish = actual + cycles;
        self.ports[port] = finish;
        (actual, finish)
    }

    /// The fused per-access fast path: computes the model latency, reserves
    /// a port, and counts traffic under a single borrow. Semantically
    /// identical to `behavior.access_cycles` + [`Memory::reserve`] +
    /// [`Memory::count`] called separately, but the engine's inner loop pays
    /// one component lookup instead of three (zero-cycle accesses — e.g.
    /// registers — never touch the port queue, via [`Memory::reserve`]'s
    /// short-circuit). Returns `(actual_start, finish, model_cycles)`.
    pub fn access(
        &mut self,
        kind: AccessKind,
        addr: usize,
        elems: usize,
        bytes: u64,
        start: u64,
    ) -> (u64, u64, u64) {
        let banks = self.banks;
        let cycles = self.behavior.access_cycles(kind, addr, elems, banks);
        let (actual, finish) = self.reserve(start, cycles);
        self.count(kind, bytes);
        (actual, finish, cycles)
    }

    /// Accounts traffic of `bytes` in the given direction.
    pub fn count(&mut self, kind: AccessKind, bytes: u64) {
        match kind {
            AccessKind::Read => {
                self.counters.bytes_read += bytes;
                self.counters.reads += 1;
            }
            AccessKind::Write => {
                self.counters.bytes_written += bytes;
                self.counters.writes += 1;
            }
        }
    }
}

/// A processor timing profile: cycles per op name, with a default. The
/// library resolves it into a kind's op costs once, when it is registered
/// with [`SimLibrary::register_proc_profile`](crate::SimLibrary::register_proc_profile).
#[derive(Debug, Clone)]
pub struct ProcProfile {
    /// Cycles for ops not listed in `per_op`.
    pub default_cycles: u64,
    /// Per-op overrides, keyed by op name. The engine reads eleven names:
    /// `affine.load`, `affine.store`, `arith.cmpi`, `arith.select`,
    /// `arith.addi`, `arith.addf`, `arith.subi`, `arith.muli`,
    /// `arith.mulf`, `arith.divi` and `arith.remi`. Every other op a
    /// processor runs is free, timed by a memory or connection, or (the
    /// `linalg` ops) timed analytically. An
    /// `equeue.op` takes its cycles from
    /// [`SimLibrary::register_ext_op`](crate::SimLibrary::register_ext_op)
    /// or its own `cycles` attribute, never from a profile.
    pub per_op: HashMap<String, u64>,
}

impl Default for ProcProfile {
    fn default() -> Self {
        ProcProfile {
            default_cycles: 1,
            per_op: HashMap::new(),
        }
    }
}

impl ProcProfile {
    /// A profile where every op costs `default_cycles`.
    pub fn uniform(default_cycles: u64) -> Self {
        ProcProfile {
            default_cycles,
            per_op: HashMap::new(),
        }
    }

    /// Cycle count for `op_name`.
    pub fn cycles(&self, op_name: &str) -> u64 {
        self.per_op
            .get(op_name)
            .copied()
            .unwrap_or(self.default_cycles)
    }
}

/// A processor kind's op costs: the entries of its [`ProcProfile`] the
/// engine charges, resolved once so running an op never looks up a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HotCycles {
    pub(crate) load: u64,
    pub(crate) store: u64,
    pub(crate) cmpi: u64,
    pub(crate) select: u64,
    pub(crate) arith: [u64; BinOp::COUNT],
}

impl HotCycles {
    /// Every op costs `cycles`.
    pub(crate) const fn uniform(cycles: u64) -> Self {
        HotCycles {
            load: cycles,
            store: cycles,
            cmpi: cycles,
            select: cycles,
            arith: [cycles; BinOp::COUNT],
        }
    }

    /// Every cost, in field order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u64> {
        [self.load, self.store, self.cmpi, self.select]
            .into_iter()
            .chain(self.arith)
    }

    pub(crate) fn from_profile(p: &ProcProfile) -> Self {
        HotCycles {
            load: p.cycles("affine.load"),
            store: p.cycles("affine.store"),
            cmpi: p.cycles("arith.cmpi"),
            select: p.cycles("arith.select"),
            arith: BinOp::ALL.map(|op| p.cycles(op.name())),
        }
    }
}

/// A processor component instance; its timing lives with its runtime.
#[derive(Debug, Clone)]
pub struct Processor {
    /// Kind string (`"ARMr5"`, `"MAC"`, `"AIEngine"`, …).
    pub kind: String,
}

/// A composite component grouping named children.
#[derive(Debug, Clone, Default)]
pub struct Composite {
    /// Named children in insertion order.
    pub children: Vec<(String, CompId)>,
}

/// What a component is.
pub enum ComponentKind {
    /// Executes launch blocks.
    Processor(Processor),
    /// Stores buffers.
    Memory(Memory),
    /// A processor specialised for `memcpy`.
    Dma,
    /// A named grouping.
    Composite(Composite),
}

impl std::fmt::Debug for ComponentKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComponentKind::Processor(p) => write!(f, "Processor({})", p.kind),
            ComponentKind::Memory(m) => write!(f, "Memory({})", m.kind),
            ComponentKind::Dma => write!(f, "Dma"),
            ComponentKind::Composite(c) => write!(f, "Composite({} children)", c.children.len()),
        }
    }
}

impl ComponentKind {
    /// The prefix of a new component's default name.
    fn label(&self) -> &str {
        match self {
            ComponentKind::Processor(p) => &p.kind,
            ComponentKind::Memory(m) => &m.kind,
            ComponentKind::Dma => "DMA",
            ComponentKind::Composite(_) => "Comp",
        }
    }
}

/// One component instance.
///
/// Its configuration comes from the op that created it, so a simulation
/// snapshot stores only `origin` and the run state; resume rebuilds the
/// rest from that op.
#[derive(Debug)]
pub struct Component {
    /// Display name (assigned by `create_comp`; defaults to `kind#id`).
    pub name: String,
    /// The component body.
    pub kind: ComponentKind,
    /// The `equeue.create_proc`, `create_mem`, `create_dma` or
    /// `create_comp` op that created this component: `None` for the
    /// engine's host processor and host scratch memory, and for
    /// components built through the [`Machine`] API.
    pub origin: Option<OpId>,
}

/// A buffer allocated inside a memory.
#[derive(Debug, Clone)]
pub struct Buffer {
    /// The owning memory component.
    pub mem: CompId,
    /// Bytes per element.
    pub elem_bytes: usize,
    /// Flat element offset within the memory (for cache indexing).
    pub base_addr: usize,
    /// Live (not deallocated).
    pub live: bool,
    /// Current contents; `data.shape` is the buffer's element shape.
    pub data: Tensor,
}

impl Buffer {
    /// Number of elements.
    pub fn elems(&self) -> usize {
        self.data.shape.iter().product()
    }

    /// Size in bytes.
    pub fn bytes(&self) -> usize {
        self.elems() * self.elem_bytes
    }
}

/// Running bandwidth statistics of one connection direction: the bytes
/// moved, the peak rate as the exact rational `peak_bytes / peak_dur`, and
/// the cycles spent at that rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChannelStats {
    pub(crate) bytes: u64,
    pub(crate) peak_bytes: u64,
    /// At least 1.
    pub(crate) peak_dur: u64,
    pub(crate) at_peak: u64,
}

impl Default for ChannelStats {
    fn default() -> Self {
        ChannelStats {
            bytes: 0,
            peak_bytes: 0,
            peak_dur: 1,
            at_peak: 0,
        }
    }
}

impl ChannelStats {
    /// Accounts a transfer of `bytes` over `dur` cycles. An instant
    /// transfer (`dur = 0`) runs at `bytes/1` and counts one cycle.
    fn record(&mut self, bytes: u64, dur: u64) {
        let dur = dur.max(1);
        self.bytes += bytes;
        let rate = u128::from(bytes) * u128::from(self.peak_dur);
        let peak = u128::from(self.peak_bytes) * u128::from(dur);
        match rate.cmp(&peak) {
            std::cmp::Ordering::Greater => {
                (self.peak_bytes, self.peak_dur, self.at_peak) = (bytes, dur, dur);
            }
            std::cmp::Ordering::Equal => self.at_peak += dur,
            std::cmp::Ordering::Less => {}
        }
    }
}

/// A connection instance with its schedule queue and statistics.
#[derive(Debug)]
pub struct Connection {
    /// Display name.
    pub name: String,
    /// Streaming (independent read/write channels) or Window (exclusive).
    pub kind: ConnKind,
    /// Bytes per cycle; 0 means unlimited (§III-A: "the simulation engine
    /// can also model infinite-bandwidth connections and still collect
    /// statistics").
    pub bytes_per_cycle: u64,
    /// Next-free time of the read channel.
    pub(crate) read_free: u64,
    /// Next-free time of the write channel (same as read for Window).
    pub(crate) write_free: u64,
    /// Read-direction bandwidth statistics.
    pub(crate) read_stats: ChannelStats,
    /// Write-direction bandwidth statistics.
    pub(crate) write_stats: ChannelStats,
    /// The `equeue.create_connection` op that created this connection:
    /// `None` for connections built through the [`Machine`] API.
    pub origin: Option<OpId>,
}

impl Connection {
    /// Creates a connection.
    pub fn new(name: String, kind: ConnKind, bytes_per_cycle: u64) -> Self {
        Connection {
            name,
            kind,
            bytes_per_cycle,
            origin: None,
            read_free: 0,
            write_free: 0,
            read_stats: ChannelStats::default(),
            write_stats: ChannelStats::default(),
        }
    }

    /// The bandwidth summary of direction `kind` over a run of `cycles`
    /// (at least 1).
    pub fn bandwidth(&self, kind: AccessKind, cycles: u64) -> BandwidthStats {
        let s = match kind {
            AccessKind::Read => &self.read_stats,
            AccessKind::Write => &self.write_stats,
        };
        BandwidthStats {
            bytes: s.bytes,
            avg_bw: s.bytes as f64 / cycles as f64,
            max_bw: s.peak_bytes as f64 / s.peak_dur as f64,
            max_bw_portion: (s.at_peak as f64 / cycles as f64).min(1.0),
        }
    }

    fn record(&mut self, kind: AccessKind, bytes: u64, dur: u64) {
        match kind {
            AccessKind::Read => self.read_stats.record(bytes, dur),
            AccessKind::Write => self.write_stats.record(bytes, dur),
        }
    }

    /// Cycles needed to move `bytes` (0 when unlimited).
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if self.bytes_per_cycle == 0 || bytes == 0 {
            0
        } else {
            bytes.div_ceil(self.bytes_per_cycle)
        }
    }

    /// Like [`Connection::reserve`], but the transfer is known to span at
    /// least `min_duration` cycles (it is pipelined with a memory access of
    /// that length). Unlimited connections record the spanning transfer for
    /// statistics without claiming the channel — this is how the engine
    /// "models infinite-bandwidth connections and still collects
    /// statistics" (§III-A).
    pub fn reserve_spanning(
        &mut self,
        kind: AccessKind,
        start: u64,
        bytes: u64,
        min_duration: u64,
    ) -> (u64, u64) {
        if self.bytes_per_cycle == 0 {
            self.record(kind, bytes, min_duration);
            return (start, start + min_duration);
        }
        let dur = self.transfer_cycles(bytes).max(min_duration);
        self.reserve_for(kind, start, bytes, dur)
    }

    /// Reserves the channel for a transfer of `bytes` starting no earlier
    /// than `start`; returns `(actual_start, finish)` and records stats.
    pub fn reserve(&mut self, kind: AccessKind, start: u64, bytes: u64) -> (u64, u64) {
        let dur = self.transfer_cycles(bytes);
        self.reserve_for(kind, start, bytes, dur)
    }

    fn reserve_for(&mut self, kind: AccessKind, start: u64, bytes: u64, dur: u64) -> (u64, u64) {
        let chan = match (self.kind, kind) {
            (ConnKind::Window, _) => {
                // Exclusive: both directions share one lock.
                let m = self.read_free.max(self.write_free);
                self.read_free = m;
                self.write_free = m;
                &mut self.read_free
            }
            (ConnKind::Streaming, AccessKind::Read) => &mut self.read_free,
            (ConnKind::Streaming, AccessKind::Write) => &mut self.write_free,
        };
        let actual = start.max(*chan);
        let finish = actual + dur;
        if dur > 0 {
            *chan = finish;
        }
        if self.kind == ConnKind::Window {
            self.read_free = self.read_free.max(finish);
            self.write_free = self.write_free.max(finish);
        }
        self.record(kind, bytes, dur);
        (actual, finish)
    }
}

/// The elaborated machine: all component/buffer/connection instances.
#[derive(Debug, Default)]
pub struct Machine {
    /// Component arena.
    pub components: Vec<Component>,
    /// Buffer arena.
    pub buffers: Vec<Buffer>,
    /// Connection arena.
    pub connections: Vec<Connection>,
}

impl Machine {
    /// Creates an empty machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component created by `origin`, named `kind#id`; returns its
    /// id.
    pub fn add_component(&mut self, kind: ComponentKind, origin: Option<OpId>) -> CompId {
        let id = CompId(self.components.len() as u32);
        self.components.push(Component {
            name: format!("{}#{}", kind.label(), id.0),
            kind,
            origin,
        });
        id
    }

    /// Adds a memory that costs no energy per access; returns its id.
    pub fn add_memory(
        &mut self,
        kind: &str,
        capacity_elems: usize,
        data_bits: u32,
        banks: u32,
        ports: usize,
        behavior: Box<dyn MemoryBehavior>,
    ) -> CompId {
        let m = Memory::new(
            kind.to_string(),
            capacity_elems,
            data_bits,
            banks,
            ports,
            behavior,
            0.0,
        );
        self.add_component(ComponentKind::Memory(m), None)
    }

    /// Adds a composite with named children (children are renamed to their
    /// given names); returns its id. Extra names or children beyond the
    /// shorter of the two lists are ignored.
    pub fn add_composite(&mut self, names: &[String], children: &[CompId]) -> CompId {
        for (n, &c) in names.iter().zip(children) {
            self.components[c.0 as usize].name = n.clone();
        }
        let children = names.iter().cloned().zip(children.iter().copied());
        let kind = ComponentKind::Composite(Composite {
            children: children.collect(),
        });
        self.add_component(kind, None)
    }

    /// Adds named children to an existing composite.
    ///
    /// # Errors
    ///
    /// Fails if `comp` is not a composite.
    pub fn extend_composite(
        &mut self,
        comp: CompId,
        names: &[String],
        children: &[CompId],
    ) -> Result<(), String> {
        if !matches!(
            self.components[comp.0 as usize].kind,
            ComponentKind::Composite(_)
        ) {
            return Err(format!(
                "component '{}' is not a composite",
                self.components[comp.0 as usize].name
            ));
        }
        for (n, &c) in names.iter().zip(children) {
            self.components[c.0 as usize].name = n.clone();
        }
        match &mut self.components[comp.0 as usize].kind {
            ComponentKind::Composite(c) => {
                c.children
                    .extend(names.iter().cloned().zip(children.iter().copied()));
            }
            _ => unreachable!(),
        }
        Ok(())
    }

    /// Looks up a direct child of a composite by name.
    pub fn child(&self, comp: CompId, name: &str) -> Option<CompId> {
        match &self.components[comp.0 as usize].kind {
            ComponentKind::Composite(c) => c
                .children
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, id)| id),
            _ => None,
        }
    }

    /// The component's display name.
    pub fn name(&self, comp: CompId) -> &str {
        &self.components[comp.0 as usize].name
    }

    /// Immutable memory accessor; `None` if `comp` is not a memory.
    pub fn memory(&self, comp: CompId) -> Option<&Memory> {
        match &self.components[comp.0 as usize].kind {
            ComponentKind::Memory(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable memory accessor; `None` if `comp` is not a memory.
    pub fn memory_mut(&mut self, comp: CompId) -> Option<&mut Memory> {
        match &mut self.components[comp.0 as usize].kind {
            ComponentKind::Memory(m) => Some(m),
            _ => None,
        }
    }

    /// Processor accessor; `None` if `comp` is not a processor.
    pub fn processor(&self, comp: CompId) -> Option<&Processor> {
        match &self.components[comp.0 as usize].kind {
            ComponentKind::Processor(p) => Some(p),
            _ => None,
        }
    }

    /// Allocates a buffer of `shape`×`elem_bytes` inside memory `mem`.
    ///
    /// # Errors
    ///
    /// Fails when `mem` is not a memory, the requested element count
    /// overflows, or the memory lacks capacity.
    pub fn alloc_buffer(
        &mut self,
        mem: CompId,
        shape: Vec<usize>,
        elem_bytes: usize,
        int_data: bool,
    ) -> Result<BufId, String> {
        let name = self.name(mem).to_string();
        let elems = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| format!("allocation shape {shape:?} overflows in memory '{name}'"))?;
        let Some(m) = self.memory_mut(mem) else {
            return Err(format!("component '{name}' is not a memory"));
        };
        let base_addr = m.used_elems;
        let fits = m
            .used_elems
            .checked_add(elems)
            .is_some_and(|total| total <= m.capacity_elems);
        if !fits {
            return Err(format!(
                "memory '{name}' overflow: {} elems used of {}, requested {elems}",
                m.used_elems, m.capacity_elems
            ));
        }
        m.used_elems += elems;
        let id = BufId(self.buffers.len() as u32);
        let data = if int_data {
            Tensor::zeros_int(shape)
        } else {
            Tensor::zeros_float(shape)
        };
        self.buffers.push(Buffer {
            mem,
            elem_bytes,
            base_addr,
            live: true,
            data,
        });
        Ok(id)
    }

    /// Deallocates a buffer, returning its capacity to the memory. Returns
    /// the number of bytes freed (0 if the buffer was already dead).
    pub fn dealloc_buffer(&mut self, buf: BufId) -> usize {
        let (mem, elems, elem_bytes, live) = {
            let b = &self.buffers[buf.0 as usize];
            (b.mem, b.elems(), b.elem_bytes, b.live)
        };
        if !live {
            return 0;
        }
        self.buffers[buf.0 as usize].live = false;
        if let Some(m) = self.memory_mut(mem) {
            m.used_elems = m.used_elems.saturating_sub(elems);
        }
        elems.saturating_mul(elem_bytes)
    }

    /// Buffer accessor.
    pub fn buffer(&self, buf: BufId) -> &Buffer {
        &self.buffers[buf.0 as usize]
    }

    /// Mutable buffer accessor.
    pub fn buffer_mut(&mut self, buf: BufId) -> &mut Buffer {
        &mut self.buffers[buf.0 as usize]
    }

    /// Adds a connection; returns its id.
    pub fn add_connection(&mut self, kind: ConnKind, bytes_per_cycle: u64) -> ConnId {
        let id = ConnId(self.connections.len() as u32);
        self.connections.push(Connection::new(
            format!("conn#{}", id.0),
            kind,
            bytes_per_cycle,
        ));
        id
    }

    /// Connection accessor.
    pub fn connection(&self, conn: ConnId) -> &Connection {
        &self.connections[conn.0 as usize]
    }

    /// Mutable connection accessor.
    pub fn connection_mut(&mut self, conn: ConnId) -> &mut Connection {
        &mut self.connections[conn.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_access_banks() {
        let mut s = SramBehavior::default();
        assert_eq!(s.access_cycles(AccessKind::Read, 0, 4, 4), 1);
        assert_eq!(s.access_cycles(AccessKind::Read, 0, 5, 4), 2);
        assert_eq!(s.access_cycles(AccessKind::Read, 0, 1, 1), 1);
        assert_eq!(s.access_cycles(AccessKind::Read, 0, 0, 4), 0);
    }

    #[test]
    fn register_is_free() {
        let mut r = RegisterBehavior;
        assert_eq!(r.access_cycles(AccessKind::Write, 0, 100, 1), 0);
    }

    #[test]
    fn dram_adds_latency() {
        let mut d = DramBehavior::default();
        assert_eq!(d.access_cycles(AccessKind::Read, 0, 1, 1), 12);
        assert_eq!(d.access_cycles(AccessKind::Read, 0, 4, 4), 12);
    }

    #[test]
    fn cache_hits_and_misses() {
        let mut c = CacheBehavior::new(4, 2, 4, 1, 10);
        // First touch: miss.
        assert_eq!(c.access_cycles(AccessKind::Read, 0, 1, 1), 10);
        // Same line: hit.
        assert_eq!(c.access_cycles(AccessKind::Read, 3, 1, 1), 1);
        assert_eq!((c.hits, c.misses), (1, 1));
        // Thrash one set beyond associativity: set = line % 4. Lines 0, 4, 8
        // all map to set 0; ways = 2 evicts line 0.
        c.access_cycles(AccessKind::Read, 16, 1, 1); // line 4, miss
        c.access_cycles(AccessKind::Read, 32, 1, 1); // line 8, miss, evicts 0
        assert_eq!(c.access_cycles(AccessKind::Read, 0, 1, 1), 10); // miss again
        assert_eq!(c.misses, 4);
    }

    #[test]
    fn memory_port_contention() {
        let mut m = Machine::new();
        let mem = m.add_memory("SRAM", 4096, 32, 4, 1, Box::new(SramBehavior::default()));
        // Two 4-cycle accesses on 1 port: the second waits.
        let (s1, f1) = m.memory_mut(mem).unwrap().reserve(0, 4);
        let (s2, f2) = m.memory_mut(mem).unwrap().reserve(0, 4);
        assert_eq!((s1, f1), (0, 4));
        assert_eq!((s2, f2), (4, 8));
        // Zero-cycle access never waits.
        let (s3, f3) = m.memory_mut(mem).unwrap().reserve(0, 0);
        assert_eq!((s3, f3), (0, 0));
    }

    #[test]
    fn memory_two_ports_parallel() {
        let mut m = Machine::new();
        let mem = m.add_memory("SRAM", 4096, 32, 4, 2, Box::new(SramBehavior::default()));
        let (s1, _) = m.memory_mut(mem).unwrap().reserve(0, 4);
        let (s2, _) = m.memory_mut(mem).unwrap().reserve(0, 4);
        let (s3, _) = m.memory_mut(mem).unwrap().reserve(0, 4);
        assert_eq!((s1, s2), (0, 0));
        assert_eq!(s3, 4);
    }

    #[test]
    fn buffer_alloc_and_overflow() {
        let mut m = Machine::new();
        let mem = m.add_memory("SRAM", 100, 32, 4, 2, Box::new(SramBehavior::default()));
        let b1 = m.alloc_buffer(mem, vec![64], 4, true).unwrap();
        assert_eq!(m.buffer(b1).bytes(), 256);
        assert_eq!(m.buffer(b1).base_addr, 0);
        let b2 = m.alloc_buffer(mem, vec![36], 4, true).unwrap();
        assert_eq!(m.buffer(b2).base_addr, 64);
        assert!(m.alloc_buffer(mem, vec![1], 4, true).is_err());
        assert_eq!(m.dealloc_buffer(b1), 256);
        assert!(m.alloc_buffer(mem, vec![10], 4, true).is_ok());
        // Double-dealloc is a no-op.
        assert_eq!(m.dealloc_buffer(b1), 0);
    }

    #[test]
    fn composite_lookup() {
        let mut m = Machine::new();
        let mac = ComponentKind::Processor(Processor { kind: "MAC".into() });
        let p = m.add_component(mac, None);
        let mem = m.add_memory("SRAM", 64, 32, 1, 1, Box::new(SramBehavior::default()));
        let c = m.add_composite(&["PE".into(), "Mem".into()], &[p, mem]);
        assert_eq!(m.child(c, "PE"), Some(p));
        assert_eq!(m.child(c, "Mem"), Some(mem));
        assert_eq!(m.child(c, "Nope"), None);
        assert_eq!(m.name(p), "PE");
        let d = m.add_component(ComponentKind::Dma, None);
        assert_eq!(m.name(d), "DMA#3");
        m.extend_composite(c, &["DMA".into()], &[d]).unwrap();
        assert_eq!(m.child(c, "DMA"), Some(d));
    }

    #[test]
    fn streaming_connection_overlaps_directions() {
        let mut c = Connection::new("c".into(), ConnKind::Streaming, 4);
        assert_eq!(c.transfer_cycles(16), 4);
        let (rs, rf) = c.reserve(AccessKind::Read, 0, 16);
        let (ws, wf) = c.reserve(AccessKind::Write, 0, 16);
        assert_eq!((rs, rf), (0, 4));
        assert_eq!((ws, wf), (0, 4)); // writes do not wait for reads
        let (rs2, _) = c.reserve(AccessKind::Read, 0, 16);
        assert_eq!(rs2, 4); // second read serialises after the first
    }

    #[test]
    fn window_connection_is_exclusive() {
        let mut c = Connection::new("c".into(), ConnKind::Window, 4);
        let (_, f1) = c.reserve(AccessKind::Read, 0, 16);
        let (s2, _) = c.reserve(AccessKind::Write, 0, 16);
        assert_eq!(s2, f1);
    }

    #[test]
    fn unlimited_connection_is_instant() {
        let mut c = Connection::new("c".into(), ConnKind::Streaming, 0);
        let (s, f) = c.reserve(AccessKind::Read, 7, 1_000_000);
        assert_eq!((s, f), (7, 7));
        // Statistics still see the transfer: instant, so one cycle at its size.
        let bw = c.bandwidth(AccessKind::Read, 10);
        assert_eq!(
            (bw.bytes, bw.max_bw, bw.max_bw_portion),
            (1_000_000, 1e6, 0.1)
        );
    }

    #[test]
    fn proc_profile_lookup() {
        let mut p = ProcProfile::uniform(1);
        p.per_op.insert("mac4".into(), 1);
        p.per_op.insert("equeue.launch".into(), 0);
        assert_eq!(p.cycles("mac4"), 1);
        assert_eq!(p.cycles("arith.addi"), 1);
        assert_eq!(p.cycles("equeue.launch"), 0);
    }
}
