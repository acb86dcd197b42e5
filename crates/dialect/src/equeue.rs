//! The **EQueue dialect**: the paper's core contribution (§III).
//!
//! EQueue programs have two parts:
//!
//! 1. **Structure specification** — `create_proc`, `create_mem`,
//!    `create_dma`, `create_comp`/`add_comp`/`get_comp`, and
//!    `create_connection` declare the hardware resources of an accelerator
//!    (§III-A).
//! 2. **Control flow** — `launch` schedules blocks of code onto processors;
//!    `memcpy` moves data via DMA; `control_start`/`control_and`/
//!    `control_or` build event dependency graphs; `await` blocks on events;
//!    `return` passes values out of a launch block (§III-C, §III-D).
//!
//! Data movement is explicit: `alloc`/`dealloc` manage buffers inside
//! memories and `read`/`write` move values, optionally through a
//! bandwidth-constrained connection (§III-B). The escape hatch `equeue.op`
//! names an operation implemented directly by the simulator library
//! (§III-E), e.g. the AI Engine's `mul4`/`mac4` intrinsics.
//!
//! Ops with variadic operand groups carry a `segments` integer-array
//! attribute recording group sizes, mirroring MLIR's
//! `operand_segment_sizes`.

use equeue_ir::{Attr, AttrMap, BlockId, Module, OpBuilder, OpId, Type, ValueId};

/// Well-known component-kind strings understood by the simulator library.
pub mod kinds {
    /// ARM Cortex-R5 control processor model.
    pub const ARM_R5: &str = "ARMr5";
    /// ARM Cortex-R6 control processor model.
    pub const ARM_R6: &str = "ARMr6";
    /// Multiply-accumulate processing-element model.
    pub const MAC: &str = "MAC";
    /// Versal ACAP AI Engine (VLIW SIMD) model with `mul4`/`mac4`.
    pub const AI_ENGINE: &str = "AIEngine";
    /// Generic 1-op-per-cycle processor model.
    pub const GENERIC: &str = "Generic";
    /// On-chip SRAM memory model (banked, 1-cycle access by default).
    pub const SRAM: &str = "SRAM";
    /// Register-file memory model (zero-cycle access).
    pub const REGISTER: &str = "Register";
    /// Off-chip DRAM memory model (high latency).
    pub const DRAM: &str = "DRAM";
    /// Set-associative cache model (see `equeue-core::components::Cache`).
    pub const CACHE: &str = "Cache";
}

/// Connection flavours (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnKind {
    /// Simultaneous reads and writes; lower latency.
    Streaming,
    /// Buffered window requiring exclusive locking; higher bandwidth.
    Window,
}

impl ConnKind {
    /// The attribute spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ConnKind::Streaming => "Streaming",
            ConnKind::Window => "Window",
        }
    }

    /// Parses the attribute spelling.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Self> {
        match s {
            "Streaming" => Some(ConnKind::Streaming),
            "Window" => Some(ConnKind::Window),
            _ => None,
        }
    }
}

/// The pieces of a freshly-built `equeue.launch` op.
#[derive(Debug, Clone)]
pub struct LaunchParts {
    /// The launch op itself.
    pub op: OpId,
    /// The completion signal (`done`), result 0.
    pub done: ValueId,
    /// Extra results (from `equeue.return` inside the body).
    pub results: Vec<ValueId>,
    /// The body block to fill with ops (must end with `equeue.return`).
    pub body: BlockId,
    /// Body block arguments, bound to the captured operands at run time.
    pub body_args: Vec<ValueId>,
}

/// Fluent constructors for EQueue ops, as an extension of [`OpBuilder`].
///
/// # Examples
///
/// Building the toy accelerator of the paper's Fig. 2a:
///
/// ```
/// use equeue_ir::{Module, OpBuilder, Type};
/// use equeue_dialect::{EqueueBuilder, kinds};
///
/// let mut m = Module::new();
/// let blk = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// let kernel = b.create_proc(kinds::ARM_R6);
/// let sram = b.create_mem(kinds::SRAM, &[64], 32, 4);
/// let dma = b.create_dma();
/// let accel = b.create_comp(&["Kernel", "SRAM", "DMA"], vec![kernel, sram, dma]);
/// let start = b.control_start();
/// let launch = b.launch(start, kernel, &[], vec![]);
/// let mut body = OpBuilder::at_end(b.module_mut(), launch.body);
/// body.ret(vec![]);
/// assert_eq!(*m.value_type(launch.done), Type::Signal);
/// assert_eq!(*m.value_type(accel), Type::Comp);
/// ```
pub trait EqueueBuilder {
    /// `equeue.create_proc` of the given kind (see [`kinds`]).
    fn create_proc(&mut self, kind: &str) -> ValueId;
    /// `equeue.create_mem`: a memory with `shape` data elements of
    /// `data_bits` each, `banks` banks, of the given kind.
    fn create_mem(&mut self, kind: &str, shape: &[usize], data_bits: u32, banks: u32) -> ValueId;
    /// `equeue.create_dma`.
    fn create_dma(&mut self) -> ValueId;
    /// `equeue.create_comp` grouping `comps` under `names` (same length).
    fn create_comp(&mut self, names: &[&str], comps: Vec<ValueId>) -> ValueId;
    /// `equeue.add_comp` adding `comps` (named `names`) to `comp`.
    fn add_comp(&mut self, comp: ValueId, names: &[&str], comps: Vec<ValueId>);
    /// `equeue.get_comp` looking up sub-component `name`; the caller states
    /// the expected component type `ty`.
    fn get_comp(&mut self, comp: ValueId, name: &str, ty: Type) -> ValueId;
    /// `equeue.create_connection` with bandwidth in bytes/cycle
    /// (`0` = unlimited).
    fn create_connection(&mut self, kind: ConnKind, bandwidth: u32) -> ValueId;
    /// `equeue.alloc`: a buffer of `shape`×`elem` inside memory `mem`.
    fn alloc(&mut self, mem: ValueId, shape: &[usize], elem: Type) -> ValueId;
    /// `equeue.dealloc`.
    fn dealloc(&mut self, buffer: ValueId);
    /// `equeue.read` of a whole buffer, optionally through a connection.
    /// Result is the element type for single-element buffers, else a tensor.
    fn read(&mut self, buffer: ValueId, conn: Option<ValueId>) -> ValueId;
    /// `equeue.read` of one element at `indices`.
    fn read_indexed(
        &mut self,
        buffer: ValueId,
        indices: Vec<ValueId>,
        conn: Option<ValueId>,
    ) -> ValueId;
    /// `equeue.write` of a whole buffer, optionally through a connection.
    fn write(&mut self, value: ValueId, buffer: ValueId, conn: Option<ValueId>);
    /// `equeue.write` of one element at `indices`.
    fn write_indexed(
        &mut self,
        value: ValueId,
        buffer: ValueId,
        indices: Vec<ValueId>,
        conn: Option<ValueId>,
    );
    /// `equeue.memcpy` from `src` to `dst` on DMA engine `dma`, gated by
    /// `dep`; returns the completion signal.
    fn memcpy(
        &mut self,
        dep: ValueId,
        src: ValueId,
        dst: ValueId,
        dma: ValueId,
        conn: Option<ValueId>,
    ) -> ValueId;
    /// `equeue.control_start`: the root of an event chain.
    fn control_start(&mut self) -> ValueId;
    /// `equeue.control_and`: fires when **all** dependencies fire.
    fn control_and(&mut self, deps: Vec<ValueId>) -> ValueId;
    /// `equeue.control_or`: fires when **any** dependency fires.
    fn control_or(&mut self, deps: Vec<ValueId>) -> ValueId;
    /// `equeue.launch`: schedule a block on `proc` once `dep` fires.
    /// `captures` are bound to the body's block arguments; `extra_results`
    /// are returned by the body's `equeue.return`.
    fn launch(
        &mut self,
        dep: ValueId,
        proc: ValueId,
        captures: &[ValueId],
        extra_results: Vec<Type>,
    ) -> LaunchParts;
    /// `equeue.await` blocking on every signal in `deps`.
    fn await_all(&mut self, deps: Vec<ValueId>);
    /// `equeue.return` terminating a launch body.
    fn ret(&mut self, values: Vec<ValueId>);
    /// `equeue.op`: an externally-modelled operation named `signature`
    /// (§III-E), e.g. `"mac4"`.
    fn ext_op(&mut self, signature: &str, operands: Vec<ValueId>, results: Vec<Type>) -> OpId;
}

impl EqueueBuilder for OpBuilder<'_> {
    fn create_proc(&mut self, kind: &str) -> ValueId {
        self.op("equeue.create_proc")
            .attr("kind", kind)
            .result(Type::Proc)
            .finish_value()
    }

    fn create_mem(&mut self, kind: &str, shape: &[usize], data_bits: u32, banks: u32) -> ValueId {
        let shape_attr: Vec<i64> = shape.iter().map(|&d| d as i64).collect();
        self.op("equeue.create_mem")
            .attr("kind", kind)
            .attr("shape", shape_attr)
            .attr("data_bits", data_bits as i64)
            .attr("banks", banks as i64)
            .result(Type::Mem)
            .finish_value()
    }

    fn create_dma(&mut self) -> ValueId {
        self.op("equeue.create_dma")
            .result(Type::Dma)
            .finish_value()
    }

    fn create_comp(&mut self, names: &[&str], comps: Vec<ValueId>) -> ValueId {
        assert_eq!(names.len(), comps.len(), "one name per sub-component");
        let names_attr = Attr::StrArray(names.iter().map(|s| s.to_string()).collect());
        self.op("equeue.create_comp")
            .attr("names", names_attr)
            .operands(comps)
            .result(Type::Comp)
            .finish_value()
    }

    fn add_comp(&mut self, comp: ValueId, names: &[&str], comps: Vec<ValueId>) {
        assert_eq!(names.len(), comps.len(), "one name per sub-component");
        let names_attr = Attr::StrArray(names.iter().map(|s| s.to_string()).collect());
        self.op("equeue.add_comp")
            .attr("names", names_attr)
            .operand(comp)
            .operands(comps)
            .finish();
    }

    fn get_comp(&mut self, comp: ValueId, name: &str, ty: Type) -> ValueId {
        self.op("equeue.get_comp")
            .attr("name", name)
            .operand(comp)
            .result(ty)
            .finish_value()
    }

    fn create_connection(&mut self, kind: ConnKind, bandwidth: u32) -> ValueId {
        self.op("equeue.create_connection")
            .attr("kind", kind.as_str())
            .attr("bandwidth", bandwidth as i64)
            .result(Type::Conn)
            .finish_value()
    }

    fn alloc(&mut self, mem: ValueId, shape: &[usize], elem: Type) -> ValueId {
        self.op("equeue.alloc")
            .operand(mem)
            .result(Type::buffer(shape.to_vec(), elem))
            .finish_value()
    }

    fn dealloc(&mut self, buffer: ValueId) {
        self.op("equeue.dealloc").operand(buffer).finish();
    }

    fn read(&mut self, buffer: ValueId, conn: Option<ValueId>) -> ValueId {
        let bt = self.module().value_type(buffer);
        let shape = bt.shape().unwrap_or(&[]);
        let elem = bt.elem().cloned().unwrap_or(Type::Any);
        let result_ty = if shape.iter().product::<usize>() <= 1 {
            elem
        } else {
            Type::tensor(shape.to_vec(), elem)
        };
        let n_conn = conn.iter().len() as i64;
        self.op("equeue.read")
            .attr("segments", vec![1, 0, n_conn])
            .operand(buffer)
            .operands(conn)
            .result(result_ty)
            .finish_value()
    }

    fn read_indexed(
        &mut self,
        buffer: ValueId,
        indices: Vec<ValueId>,
        conn: Option<ValueId>,
    ) -> ValueId {
        let elem = self
            .module()
            .value_type(buffer)
            .elem()
            .cloned()
            .unwrap_or(Type::Any);
        let n_conn = conn.iter().len() as i64;
        self.op("equeue.read")
            .attr("segments", vec![1, indices.len() as i64, n_conn])
            .operand(buffer)
            .operands(indices)
            .operands(conn)
            .result(elem)
            .finish_value()
    }

    fn write(&mut self, value: ValueId, buffer: ValueId, conn: Option<ValueId>) {
        let n_conn = conn.iter().len() as i64;
        self.op("equeue.write")
            .attr("segments", vec![1, 1, 0, n_conn])
            .operand(value)
            .operand(buffer)
            .operands(conn)
            .finish();
    }

    fn write_indexed(
        &mut self,
        value: ValueId,
        buffer: ValueId,
        indices: Vec<ValueId>,
        conn: Option<ValueId>,
    ) {
        let n_conn = conn.iter().len() as i64;
        self.op("equeue.write")
            .attr("segments", vec![1, 1, indices.len() as i64, n_conn])
            .operand(value)
            .operand(buffer)
            .operands(indices)
            .operands(conn)
            .finish();
    }

    fn memcpy(
        &mut self,
        dep: ValueId,
        src: ValueId,
        dst: ValueId,
        dma: ValueId,
        conn: Option<ValueId>,
    ) -> ValueId {
        let n_conn = conn.iter().len() as i64;
        self.op("equeue.memcpy")
            .attr("segments", vec![1, 1, 1, 1, n_conn])
            .operands([dep, src, dst, dma])
            .operands(conn)
            .result(Type::Signal)
            .finish_value()
    }

    fn control_start(&mut self) -> ValueId {
        self.op("equeue.control_start")
            .result(Type::Signal)
            .finish_value()
    }

    fn control_and(&mut self, deps: Vec<ValueId>) -> ValueId {
        self.op("equeue.control_and")
            .operands(deps)
            .result(Type::Signal)
            .finish_value()
    }

    fn control_or(&mut self, deps: Vec<ValueId>) -> ValueId {
        self.op("equeue.control_or")
            .operands(deps)
            .result(Type::Signal)
            .finish_value()
    }

    fn launch(
        &mut self,
        dep: ValueId,
        proc: ValueId,
        captures: &[ValueId],
        extra_results: Vec<Type>,
    ) -> LaunchParts {
        let arg_types: Vec<Type> = captures
            .iter()
            .map(|&c| self.module().value_type(c).clone())
            .collect();
        let (region, body) = self.region_with_block(arg_types);
        let body_args = self.module().block(body).args.to_vec();
        let op = self
            .op("equeue.launch")
            .operand(dep)
            .operand(proc)
            .operands(captures.iter().copied())
            .result(Type::Signal)
            .results(extra_results)
            .region(region)
            .finish();
        let done = self.module().result(op, 0);
        let results = (1..self.module().op(op).results.len())
            .map(|i| self.module().result(op, i))
            .collect();
        LaunchParts {
            op,
            done,
            results,
            body,
            body_args,
        }
    }

    fn await_all(&mut self, deps: Vec<ValueId>) {
        self.op("equeue.await").operands(deps).finish();
    }

    fn ret(&mut self, values: Vec<ValueId>) {
        self.op("equeue.return").operands(values).finish();
    }

    fn ext_op(&mut self, signature: &str, operands: Vec<ValueId>, results: Vec<Type>) -> OpId {
        self.op("equeue.op")
            .attr("signature", signature)
            .operands(operands)
            .results(results)
            .finish()
    }
}

// ---- structured views ------------------------------------------------------

/// The most access ports one `equeue.create_mem` may declare. The Fig. 12
/// generators use at most 34 (`max_ru + max_cu`). The engine keeps a free
/// time per port and scans them all on every timed access, so the cap
/// bounds both the memory's allocation and the work of one access.
pub const MAX_MEM_PORTS: usize = 1024;

/// Decoded attributes of an `equeue.create_mem` op. Every integer is
/// range-checked here, so no reader narrows one with a cast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemView<'m> {
    /// The memory kind (`"SRAM"`, `"Register"`, …).
    pub kind: &'m str,
    /// The `shape` attribute's dimensions.
    pub shape: Vec<usize>,
    /// `data_bits`, if present, in `1..=u32::MAX`.
    pub data_bits: Option<u32>,
    /// `banks`, if present, in `1..=u32::MAX`.
    pub banks: Option<u32>,
    /// `ports`, if present, in `1..=`[`MAX_MEM_PORTS`].
    pub ports: Option<usize>,
}

impl MemView<'_> {
    /// Capacity in elements: the product of `shape`, or `None` when it
    /// overflows `usize`.
    pub fn capacity(&self) -> Option<usize> {
        self.shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
    }
}

/// Integer attribute `name` of a `create_mem`, if present, checked to lie
/// in `1..=max`.
fn positive_attr<T>(attrs: &AttrMap, name: &str, max: T) -> Result<Option<T>, String>
where
    T: TryFrom<i64> + PartialOrd + std::fmt::Display,
{
    let Some(v) = attrs.int(name) else {
        return Ok(None);
    };
    match T::try_from(v) {
        Ok(t) if v > 0 && t <= max => Ok(Some(t)),
        _ => Err(format!("create_mem {name} must be in 1..={max}, got {v}")),
    }
}

/// Decodes an `equeue.create_mem`.
///
/// # Errors
///
/// Fails when `shape` or `kind` is missing, or when `data_bits`, `banks`
/// or `ports` is present but out of range.
pub fn create_mem_view(m: &Module, op: OpId) -> Result<MemView<'_>, String> {
    let data = m.op(op);
    let shape = data
        .attrs
        .shape("shape")
        .ok_or("create_mem missing shape")?;
    let kind = data
        .attrs
        .str("kind")
        .ok_or("op 'equeue.create_mem' missing attribute 'kind'")?;
    Ok(MemView {
        kind,
        shape,
        data_bits: positive_attr(&data.attrs, "data_bits", u32::MAX)?,
        banks: positive_attr(&data.attrs, "banks", u32::MAX)?,
        ports: positive_attr(&data.attrs, "ports", MAX_MEM_PORTS)?,
    })
}

/// Decoded view of an `equeue.read` op's operand groups, borrowing the
/// op's operand list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadView<'m> {
    /// The buffer operand.
    pub buffer: ValueId,
    /// Optional element subscripts.
    pub indices: &'m [ValueId],
    /// Optional connection.
    pub conn: Option<ValueId>,
}

/// Converts a `segments` attribute to counts, rejecting negative entries
/// (an `i64 as usize` cast would wrap them to huge counts).
fn segment_counts<const N: usize>(seg: &[i64]) -> Option<[usize; N]> {
    let mut out = [0usize; N];
    for (slot, &v) in out.iter_mut().zip(seg) {
        *slot = usize::try_from(v).ok()?;
    }
    Some(out)
}

/// Sums operand-group counts without overflow (attacker-controlled counts
/// near `usize::MAX` must not panic in debug builds).
fn checked_sum(counts: &[usize]) -> Option<usize> {
    counts.iter().try_fold(0usize, |acc, &c| acc.checked_add(c))
}

/// Decodes an `equeue.read`.
///
/// # Errors
///
/// Fails when the `segments` attribute is missing or inconsistent.
pub fn read_view(m: &Module, op: OpId) -> Result<ReadView<'_>, String> {
    let data = m.op(op);
    let seg = data
        .attrs
        .int_array("segments")
        .ok_or("equeue.read needs 'segments'")?;
    if seg.len() != 3 {
        return Err("equeue.read 'segments' must have 3 entries".into());
    }
    let [nb, ni, nc] =
        segment_counts::<3>(seg).ok_or("equeue.read 'segments' entries must be non-negative")?;
    if nb != 1 || nc > 1 || Some(data.operands.len()) != checked_sum(&[nb, ni, nc]) {
        return Err("equeue.read segments do not match operands".into());
    }
    Ok(ReadView {
        buffer: data.operands[0],
        indices: &data.operands[1..1 + ni],
        conn: if nc == 1 {
            Some(data.operands[1 + ni])
        } else {
            None
        },
    })
}

/// Decoded view of an `equeue.write` op's operand groups, borrowing the
/// op's operand list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteView<'m> {
    /// The value being written.
    pub value: ValueId,
    /// The target buffer.
    pub buffer: ValueId,
    /// Optional element subscripts.
    pub indices: &'m [ValueId],
    /// Optional connection.
    pub conn: Option<ValueId>,
}

/// Decodes an `equeue.write`.
///
/// # Errors
///
/// Fails when the `segments` attribute is missing or inconsistent.
pub fn write_view(m: &Module, op: OpId) -> Result<WriteView<'_>, String> {
    let data = m.op(op);
    let seg = data
        .attrs
        .int_array("segments")
        .ok_or("equeue.write needs 'segments'")?;
    if seg.len() != 4 {
        return Err("equeue.write 'segments' must have 4 entries".into());
    }
    let [nv, nb, ni, nc] =
        segment_counts::<4>(seg).ok_or("equeue.write 'segments' entries must be non-negative")?;
    if nv != 1 || nb != 1 || nc > 1 || Some(data.operands.len()) != checked_sum(&[nv, nb, ni, nc]) {
        return Err("equeue.write segments do not match operands".into());
    }
    Ok(WriteView {
        value: data.operands[0],
        buffer: data.operands[1],
        indices: &data.operands[2..2 + ni],
        conn: if nc == 1 {
            Some(data.operands[2 + ni])
        } else {
            None
        },
    })
}

/// Decoded view of an `equeue.memcpy` op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemcpyView {
    /// Dependency signal.
    pub dep: ValueId,
    /// Source buffer.
    pub src: ValueId,
    /// Destination buffer.
    pub dst: ValueId,
    /// DMA engine executing the copy.
    pub dma: ValueId,
    /// Optional connection.
    pub conn: Option<ValueId>,
}

/// Decodes an `equeue.memcpy`.
///
/// # Errors
///
/// Fails when the `segments` attribute is missing or inconsistent.
pub fn memcpy_view(m: &Module, op: OpId) -> Result<MemcpyView, String> {
    let data = m.op(op);
    let seg = data
        .attrs
        .int_array("segments")
        .ok_or("equeue.memcpy needs 'segments'")?;
    if seg.len() != 5 {
        return Err("equeue.memcpy 'segments' must have 5 entries".into());
    }
    let nc = usize::try_from(seg[4])
        .map_err(|_| "equeue.memcpy 'segments' entries must be non-negative")?;
    if seg[..4] != [1, 1, 1, 1] || nc > 1 || data.operands.len() != 4 + nc {
        return Err("equeue.memcpy segments do not match operands".into());
    }
    Ok(MemcpyView {
        dep: data.operands[0],
        src: data.operands[1],
        dst: data.operands[2],
        dma: data.operands[3],
        conn: if nc == 1 {
            Some(data.operands[4])
        } else {
            None
        },
    })
}

/// Decoded view of an `equeue.launch` op, borrowing the op's operand and
/// result lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchView<'m> {
    /// Dependency signal.
    pub dep: ValueId,
    /// Target processor (or DMA).
    pub proc: ValueId,
    /// Captured operands bound to the body's block arguments.
    pub captures: &'m [ValueId],
    /// Completion signal (result 0).
    pub done: ValueId,
    /// Extra results.
    pub results: &'m [ValueId],
    /// The body block.
    pub body: BlockId,
}

/// Decodes an `equeue.launch`.
///
/// # Errors
///
/// Fails on malformed launches (wrong operand count or missing region).
pub fn launch_view(m: &Module, op: OpId) -> Result<LaunchView<'_>, String> {
    let data = m.op(op);
    if data.operands.len() < 2 {
        return Err("equeue.launch needs (dep, proc, captures...)".into());
    }
    if data.regions.len() != 1 {
        return Err("equeue.launch needs exactly one region".into());
    }
    if data.results.is_empty() {
        return Err("equeue.launch must produce a done signal".into());
    }
    let body = *m
        .region(data.regions[0])
        .blocks
        .first()
        .ok_or("equeue.launch region has no body block")?;
    Ok(LaunchView {
        dep: data.operands[0],
        proc: data.operands[1],
        captures: &data.operands[2..],
        done: data.results[0],
        results: &data.results[1..],
        body,
    })
}

// ---- buffer-origin resolution -----------------------------------------------

/// Where a buffer value ultimately lives, as far as static resolution can
/// tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferOrigin {
    /// Allocated (via `equeue.alloc`) in the memory created by this
    /// `equeue.create_mem` op.
    Mem(OpId),
    /// Host memory (`memref.alloc`).
    Host(OpId),
    /// Not statically resolvable (malformed IR, or a value shape the
    /// resolver does not model). Callers must treat this conservatively.
    Unknown,
}

/// Hop cap for [`resolve_def`]: fuzzer-mutated IR may contain capture
/// chains the arena invariants no longer bound.
const MAX_RESOLVE_DEPTH: usize = 128;

/// Bounds-checked lookup of a live (in-range, not erased) op.
fn live_op(m: &Module, op: OpId) -> Option<&equeue_ir::Operation> {
    if op.index() >= m.num_ops() {
        return None;
    }
    let data = m.op(op);
    (!data.erased).then_some(data)
}

/// Resolves a value to its ultimate defining op, looking through
/// `equeue.launch` body arguments to the captured value in the parent
/// scope. Returns `None` for block arguments that are not launch captures
/// (loop induction variables, top-level args) and for malformed chains.
/// Never panics, whatever the IR.
pub fn resolve_def(m: &Module, value: ValueId) -> Option<OpId> {
    let mut v = value;
    for _ in 0..MAX_RESOLVE_DEPTH {
        if v.index() >= m.num_values() {
            return None;
        }
        match m.value(v).def {
            equeue_ir::ValueDef::OpResult { op, .. } => return live_op(m, op).map(|_| op),
            equeue_ir::ValueDef::BlockArg { block, index } => {
                if block.index() >= m.num_blocks() {
                    return None;
                }
                let region = m.block(block).parent_region;
                if region.index() >= m.num_regions() {
                    return None;
                }
                let parent = m.region(region).parent_op?;
                if live_op(m, parent)?.name != "equeue.launch" {
                    return None;
                }
                v = *launch_view(m, parent).ok()?.captures.get(index)?;
            }
        }
    }
    None
}

/// Resolves a buffer-typed value to its allocation site's memory.
pub fn buffer_origin(m: &Module, value: ValueId) -> BufferOrigin {
    let Some(def) = resolve_def(m, value) else {
        return BufferOrigin::Unknown;
    };
    let Some(data) = live_op(m, def) else {
        return BufferOrigin::Unknown;
    };
    match data.name.as_str() {
        "equeue.alloc" => {
            let mem = data.operands.first().and_then(|&v| resolve_def(m, v));
            match mem {
                Some(op) if live_op(m, op).is_some_and(|d| d.name == "equeue.create_mem") => {
                    BufferOrigin::Mem(op)
                }
                _ => BufferOrigin::Unknown,
            }
        }
        "memref.alloc" => BufferOrigin::Host(def),
        _ => BufferOrigin::Unknown,
    }
}

// ---- verifiers -------------------------------------------------------------

/// Verifies `equeue.create_proc`: `kind` attribute and a `!equeue.proc`
/// result.
pub fn verify_create_proc(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.attrs.str("kind").is_none() {
        return Err("create_proc needs a 'kind' attribute".into());
    }
    if data.results.len() != 1 || *m.value_type(data.results[0]) != Type::Proc {
        return Err("create_proc must return !equeue.proc".into());
    }
    Ok(())
}

/// Verifies `equeue.create_mem` via [`create_mem_view`], plus a non-empty
/// shape whose capacity fits `usize`, the `data_bits` and `banks`
/// attributes, and a `!equeue.mem` result.
pub fn verify_create_mem(m: &Module, op: OpId) -> Result<(), String> {
    let view = create_mem_view(m, op)?;
    if view.shape.is_empty() || view.capacity() == Some(0) {
        return Err("create_mem shape must be non-empty".into());
    }
    if view.capacity().is_none() {
        return Err(format!(
            "create_mem shape {:?} capacity overflows",
            view.shape
        ));
    }
    if view.data_bits.is_none() {
        return Err("create_mem needs 'data_bits'".into());
    }
    if view.banks.is_none() {
        return Err("create_mem needs 'banks'".into());
    }
    let data = m.op(op);
    if data.results.len() != 1 || *m.value_type(data.results[0]) != Type::Mem {
        return Err("create_mem must return !equeue.mem".into());
    }
    Ok(())
}

/// Verifies `equeue.create_comp`/`add_comp`: names match component operands.
pub fn verify_comp(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    let names = data
        .attrs
        .get("names")
        .and_then(Attr::as_str_array)
        .ok_or("component op needs a 'names' string array")?;
    let offset = if data.name == "equeue.add_comp" { 1 } else { 0 };
    if data.operands.len() - offset != names.len() {
        return Err(format!(
            "'{}' has {} sub-components but {} names",
            data.name,
            data.operands.len() - offset,
            names.len()
        ));
    }
    for &c in &data.operands[offset..] {
        let t = m.value_type(c);
        if !t.is_component() && *t != Type::Conn {
            return Err(format!("sub-component has non-component type {t}"));
        }
    }
    if offset == 1 && *m.value_type(data.operands[0]) != Type::Comp {
        return Err("add_comp target must be !equeue.comp".into());
    }
    Ok(())
}

/// Verifies `equeue.get_comp`: a comp operand and a `name` attribute.
pub fn verify_get_comp(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.attrs.str("name").is_none() {
        return Err("get_comp needs a 'name' attribute".into());
    }
    if data.operands.len() != 1 || *m.value_type(data.operands[0]) != Type::Comp {
        return Err("get_comp takes exactly one !equeue.comp operand".into());
    }
    Ok(())
}

/// Verifies `equeue.create_connection`: a known kind and a bandwidth.
pub fn verify_create_connection(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    let kind = data
        .attrs
        .str("kind")
        .ok_or("create_connection needs 'kind'")?;
    if ConnKind::from_str(kind).is_none() {
        return Err(format!("unknown connection kind '{kind}'"));
    }
    let bw = data
        .attrs
        .int("bandwidth")
        .ok_or("create_connection needs 'bandwidth'")?;
    if bw < 0 {
        return Err("bandwidth must be non-negative (0 = unlimited)".into());
    }
    Ok(())
}

/// Verifies `equeue.alloc`: a memory operand and a buffer result that fits.
pub fn verify_alloc(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.operands.len() != 1 || *m.value_type(data.operands[0]) != Type::Mem {
        return Err("alloc takes exactly one !equeue.mem operand".into());
    }
    if data.results.len() != 1 {
        return Err("alloc must return one buffer".into());
    }
    let rt = m.value_type(data.results[0]);
    if !matches!(rt, Type::Buffer { .. }) {
        return Err(format!("alloc must return !equeue.buffer, got {rt}"));
    }
    Ok(())
}

/// Verifies `equeue.read` via [`read_view`], plus subscript typing.
pub fn verify_read(m: &Module, op: OpId) -> Result<(), String> {
    let v = read_view(m, op)?;
    if !matches!(m.value_type(v.buffer), Type::Buffer { .. }) {
        return Err("read target must be a buffer".into());
    }
    for &i in v.indices {
        if *m.value_type(i) != Type::Index {
            return Err("read subscripts must be index-typed".into());
        }
    }
    if let Some(c) = v.conn {
        if *m.value_type(c) != Type::Conn {
            return Err("read connection operand must be !equeue.conn".into());
        }
    }
    if m.op(op).results.len() != 1 {
        return Err("read must produce one value".into());
    }
    Ok(())
}

/// Verifies `equeue.write` via [`write_view`], plus subscript typing.
pub fn verify_write(m: &Module, op: OpId) -> Result<(), String> {
    let v = write_view(m, op)?;
    if !matches!(m.value_type(v.buffer), Type::Buffer { .. }) {
        return Err("write target must be a buffer".into());
    }
    for &i in v.indices {
        if *m.value_type(i) != Type::Index {
            return Err("write subscripts must be index-typed".into());
        }
    }
    if let Some(c) = v.conn {
        if *m.value_type(c) != Type::Conn {
            return Err("write connection operand must be !equeue.conn".into());
        }
    }
    Ok(())
}

/// Verifies `equeue.memcpy` via [`memcpy_view`], plus operand typing.
pub fn verify_memcpy(m: &Module, op: OpId) -> Result<(), String> {
    let v = memcpy_view(m, op)?;
    if *m.value_type(v.dep) != Type::Signal {
        return Err("memcpy dependency must be a signal".into());
    }
    for (what, val) in [("source", v.src), ("destination", v.dst)] {
        if !matches!(m.value_type(val), Type::Buffer { .. }) {
            return Err(format!("memcpy {what} must be a buffer"));
        }
    }
    if *m.value_type(v.dma) != Type::Dma {
        return Err("memcpy engine must be !equeue.dma".into());
    }
    if m.op(op).results.len() != 1 || *m.value_type(m.op(op).results[0]) != Type::Signal {
        return Err("memcpy must return a signal".into());
    }
    Ok(())
}

/// Verifies the `control_*` family: signal operands, one signal result;
/// `control_start` takes none, `control_and`/`or` at least one.
pub fn verify_control(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.name == "equeue.control_start" {
        if !data.operands.is_empty() {
            return Err("control_start takes no operands".into());
        }
    } else if data.operands.is_empty() {
        return Err(format!("'{}' needs at least one dependency", data.name));
    }
    for &d in &data.operands {
        if *m.value_type(d) != Type::Signal {
            return Err(format!("'{}' operands must be signals", data.name));
        }
    }
    if data.results.len() != 1 || *m.value_type(data.results[0]) != Type::Signal {
        return Err(format!("'{}' must return one signal", data.name));
    }
    Ok(())
}

/// Verifies `equeue.launch`: operand/result/region consistency, capture
/// types matching body arguments, and a terminating `equeue.return` whose
/// operand types match the extra results.
pub fn verify_launch(m: &Module, op: OpId) -> Result<(), String> {
    let v = launch_view(m, op)?;
    if *m.value_type(v.dep) != Type::Signal {
        return Err("launch dependency must be a signal".into());
    }
    let pt = m.value_type(v.proc);
    if *pt != Type::Proc && *pt != Type::Dma {
        return Err(format!(
            "launch target must be a processor or DMA, got {pt}"
        ));
    }
    if *m.value_type(v.done) != Type::Signal {
        return Err("launch result 0 must be the done signal".into());
    }
    let body = m.block(v.body);
    let args = &body.args;
    if args.len() != v.captures.len() {
        return Err(format!(
            "launch captures {} values but body takes {} arguments",
            v.captures.len(),
            args.len()
        ));
    }
    for (i, (&c, &a)) in v.captures.iter().zip(args.iter()).enumerate() {
        if !m.value_type(c).matches(m.value_type(a)) {
            return Err(format!(
                "launch capture {i} type {} does not match body argument type {}",
                m.value_type(c),
                m.value_type(a)
            ));
        }
    }
    let last = body
        .ops
        .iter()
        .rev()
        .map(|&o| m.op(o))
        .find(|o| !o.erased)
        .ok_or("launch body must end with equeue.return")?;
    if last.name != "equeue.return" {
        return Err("launch body must end with equeue.return".into());
    }
    let ret_operands = &last.operands;
    if ret_operands.len() != v.results.len() {
        return Err(format!(
            "launch returns {} extra results but body yields {}",
            v.results.len(),
            ret_operands.len()
        ));
    }
    for (i, (&r, &y)) in v.results.iter().zip(ret_operands.iter()).enumerate() {
        if !m.value_type(r).matches(m.value_type(y)) {
            return Err(format!("launch extra result {i} type mismatch"));
        }
    }
    Ok(())
}

/// Verifies `equeue.await`: at least one signal operand.
pub fn verify_await(m: &Module, op: OpId) -> Result<(), String> {
    let data = m.op(op);
    if data.operands.is_empty() {
        return Err("await needs at least one signal".into());
    }
    for &d in &data.operands {
        if *m.value_type(d) != Type::Signal {
            return Err("await operands must be signals".into());
        }
    }
    Ok(())
}

/// Verifies `equeue.op`: a `signature` attribute.
pub fn verify_ext_op(m: &Module, op: OpId) -> Result<(), String> {
    if m.op(op).attrs.str("signature").is_none() {
        return Err("equeue.op needs a 'signature' attribute".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owner(m: &Module, v: ValueId) -> OpId {
        match m.value(v).def {
            equeue_ir::ValueDef::OpResult { op, .. } => op,
            _ => panic!("not an op result"),
        }
    }

    #[test]
    fn structure_builders() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let p = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[4096], 32, 4);
        let dma = b.create_dma();
        let comp = b.create_comp(&["Kernel", "Memory", "DMA"], vec![p, mem, dma]);
        let looked = b.get_comp(comp, "DMA", Type::Dma);
        let conn = b.create_connection(ConnKind::Streaming, 32);

        assert!(verify_create_proc(&m, owner(&m, p)).is_ok());
        assert!(verify_create_mem(&m, owner(&m, mem)).is_ok());
        assert!(verify_comp(&m, owner(&m, comp)).is_ok());
        assert!(verify_get_comp(&m, owner(&m, looked)).is_ok());
        assert!(verify_create_connection(&m, owner(&m, conn)).is_ok());
        assert_eq!(*m.value_type(looked), Type::Dma);
    }

    #[test]
    fn data_movement_builders_and_views() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let mem = b.create_mem(kinds::SRAM, &[4096], 32, 4);
        let conn = b.create_connection(ConnKind::Streaming, 32);
        let buf0 = b.alloc(mem, &[64], Type::I32);
        let buf1 = b.alloc(mem, &[64], Type::I32);
        let data = b.read(buf0, Some(conn));
        b.write(data, buf1, Some(conn));
        b.dealloc(buf0);

        assert_eq!(*m.value_type(buf0), Type::buffer(vec![64], Type::I32));
        assert_eq!(*m.value_type(data), Type::tensor(vec![64], Type::I32));

        let read = m.find_first("equeue.read").unwrap();
        let rv = read_view(&m, read).unwrap();
        assert_eq!(rv.buffer, buf0);
        assert_eq!(rv.conn, Some(conn));
        assert!(rv.indices.is_empty());
        assert!(verify_read(&m, read).is_ok());

        let write = m.find_first("equeue.write").unwrap();
        let wv = write_view(&m, write).unwrap();
        assert_eq!(wv.value, data);
        assert_eq!(wv.buffer, buf1);
        assert!(verify_write(&m, write).is_ok());
    }

    #[test]
    fn indexed_reads_have_scalar_results() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let mem = b.create_mem(kinds::SRAM, &[64], 32, 1);
        let buf = b.alloc(mem, &[8, 8], Type::I32);
        let zero = b
            .op("arith.constant")
            .attr("value", 0i64)
            .result(Type::Index)
            .finish_value();
        let v = b.read_indexed(buf, vec![zero, zero], None);
        assert_eq!(*m.value_type(v), Type::I32);
        let read = m.find_first("equeue.read").unwrap();
        assert_eq!(read_view(&m, read).unwrap().indices.len(), 2);
        assert!(verify_read(&m, read).is_ok());
    }

    #[test]
    fn single_element_buffer_reads_scalar() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let mem = b.create_mem(kinds::REGISTER, &[4], 32, 1);
        let buf = b.alloc(mem, &[1], Type::I32);
        let v = b.read(buf, None);
        assert_eq!(*m.value_type(v), Type::I32);
    }

    #[test]
    fn memcpy_builder_and_view() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let mem = b.create_mem(kinds::SRAM, &[4096], 32, 4);
        let buf0 = b.alloc(mem, &[64], Type::I32);
        let buf1 = b.alloc(mem, &[64], Type::I32);
        let dma = b.create_dma();
        let start = b.control_start();
        let done = b.memcpy(start, buf0, buf1, dma, None);
        assert_eq!(*m.value_type(done), Type::Signal);
        let mc = m.find_first("equeue.memcpy").unwrap();
        let v = memcpy_view(&m, mc).unwrap();
        assert_eq!(
            (v.dep, v.src, v.dst, v.dma, v.conn),
            (start, buf0, buf1, dma, None)
        );
        assert!(verify_memcpy(&m, mc).is_ok());
    }

    #[test]
    fn launch_with_captures_and_results() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let proc = b.create_proc(kinds::MAC);
        let mem = b.create_mem(kinds::REGISTER, &[4], 32, 1);
        let buf = b.alloc(mem, &[1], Type::I32);
        let start = b.control_start();
        let parts = b.launch(start, proc, &[buf], vec![Type::I32]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), parts.body);
            let v = ib.read(parts.body_args[0], None);
            ib.ret(vec![v]);
        }
        let lv = launch_view(&m, parts.op).unwrap();
        assert_eq!(lv.captures, vec![buf]);
        assert_eq!(lv.results.len(), 1);
        assert!(
            verify_launch(&m, parts.op).is_ok(),
            "{:?}",
            verify_launch(&m, parts.op)
        );
    }

    #[test]
    fn launch_verifier_catches_missing_return() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let proc = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let parts = b.launch(start, proc, &[], vec![]);
        assert!(verify_launch(&m, parts.op)
            .unwrap_err()
            .contains("equeue.return"));
    }

    #[test]
    fn launch_verifier_catches_result_mismatch() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let proc = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let parts = b.launch(start, proc, &[], vec![Type::I32]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), parts.body);
            ib.ret(vec![]);
        }
        assert!(verify_launch(&m, parts.op).unwrap_err().contains("yields"));
    }

    #[test]
    fn control_ops() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let s1 = b.control_start();
        let s2 = b.control_start();
        let both = b.control_and(vec![s1, s2]);
        let either = b.control_or(vec![s1, s2]);
        b.await_all(vec![both, either]);
        for name in [
            "equeue.control_start",
            "equeue.control_and",
            "equeue.control_or",
        ] {
            let op = m.find_first(name).unwrap();
            assert!(verify_control(&m, op).is_ok(), "{name}");
        }
        let aw = m.find_first("equeue.await").unwrap();
        assert!(verify_await(&m, aw).is_ok());
    }

    #[test]
    fn ext_op_signature() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let op = b.ext_op("mac4", vec![], vec![]);
        assert!(verify_ext_op(&m, op).is_ok());
        assert_eq!(m.op(op).attrs.str("signature"), Some("mac4"));
        let bad = m.create_op("equeue.op", vec![], vec![], Default::default(), vec![]);
        m.append_op(m.top_block(), bad);
        assert!(verify_ext_op(&m, bad).is_err());
    }

    #[test]
    fn conn_kind_round_trip() {
        assert_eq!(ConnKind::from_str("Streaming"), Some(ConnKind::Streaming));
        assert_eq!(ConnKind::from_str("Window"), Some(ConnKind::Window));
        assert_eq!(ConnKind::from_str("Bus"), None);
        assert_eq!(ConnKind::Window.as_str(), "Window");
    }
}
