//! The layout prepass: compiles a module once into the interpreter-friendly
//! [`Plan`] the engine executes (see the `engine` module docs, "Hot-path
//! design").
//!
//! The plan is a handful of flat tables. Per-op data is ids, slots and
//! scalars; every variable-length list (operands, results, launch captures)
//! is a [`Span`] into one shared slot pool, and every scope layout a span
//! into one shared value pool. Anything the engine needs only on a rare
//! path (component names, memory attributes, op names for traces and
//! errors) stays in the [`Module`] and is read there by [`OpId`].

use crate::fused::LoopFusion;
use crate::interp::{BinOp, CmpPred};
use crate::library::{MemSpec, SimLibrary};
use equeue_dialect::{
    conv2d_dims, create_mem_view, launch_view, memcpy_view, read_view, write_view, ConnKind,
    ConvDims,
};
use equeue_ir::{BlockId, Module, OpId, Operation, RegionId, Type, ValueId};

/// A dense index into a frame's environment vector.
pub(crate) type Slot = u32;

/// A range of one of the plan's pools.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    /// The span covering `pool[start..]`.
    fn since<T>(pool: &[T], start: usize) -> Span {
        Span {
            start: start as u32,
            len: (pool.len() - start) as u32,
        }
    }

    /// Number of entries.
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    fn of<T>(self, pool: &[T]) -> &[T] {
        &pool[self.start as usize..][..self.len as usize]
    }
}

/// An optional slot in four bytes (`u32::MAX` is "none"), so ops with an
/// optional connection operand keep [`OpCode`] small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OptSlot(u32);

impl OptSlot {
    fn new(slot: Option<Slot>) -> OptSlot {
        OptSlot(slot.unwrap_or(u32::MAX))
    }

    pub(crate) fn get(self) -> Option<Slot> {
        (self.0 != u32::MAX).then_some(self.0)
    }
}

/// Pre-decoded spawn recipe for one `equeue.launch`.
#[derive(Debug)]
pub(crate) struct LaunchInfo {
    /// Dependency signal operand.
    pub(crate) dep: Slot,
    /// Target processor operand.
    pub(crate) proc: Slot,
    /// The body's entry block.
    pub(crate) body: BlockId,
    /// The child frame scope.
    pub(crate) scope: u32,
    /// Free variables the body (transitively) references, as flattened
    /// `(parent slot, child slot)` pairs. Values absent in the parent frame
    /// are skipped at spawn, like the original interpreter.
    pub(crate) captures: Span,
    /// Explicit capture operands bound to body block args, as flattened
    /// `(parent slot, child slot)` pairs.
    pub(crate) arg_binds: Span,
}

/// One op, pre-decoded: operand slots plus parsed attribute scalars.
/// Decoding happens once per module in [`Plan::build`]; execution dispatches
/// on this enum without touching attribute maps. Lists are [`Span`]s of the
/// plan's slot pool; names and attributes needed only on rare paths are
/// read from the module by op id.
#[derive(Debug)]
pub(crate) enum OpCode {
    /// Erased op, or an op unreachable by execution: skip.
    Erased,
    // ---- structure specification (kinds, names, attributes: module) ----
    CreateProc,
    CreateMem,
    CreateDma,
    CreateComp {
        children: Span,
    },
    AddComp {
        target: Slot,
        children: Span,
    },
    GetComp {
        target: Slot,
    },
    CreateConnection {
        kind: ConnKind,
        bandwidth: u64,
    },
    // ---- data movement (shapes: the result type in the module) ----
    Alloc {
        mem: Slot,
        elem_bytes: u32,
        is_int: bool,
    },
    MemrefAlloc {
        elem_bytes: u32,
        is_int: bool,
    },
    Dealloc {
        buf: Slot,
    },
    Read {
        buffer: Slot,
        indices: Span,
        conn: OptSlot,
    },
    Write {
        value: Slot,
        buffer: Slot,
        indices: Span,
        conn: OptSlot,
    },
    AffineLoad {
        buffer: Slot,
        indices: Span,
    },
    AffineStore {
        value: Slot,
        buffer: Slot,
        indices: Span,
    },
    // ---- events and control ----
    Memcpy {
        dep: Slot,
        src: Slot,
        dst: Slot,
        dma: Slot,
        conn: OptSlot,
    },
    /// Index into the plan's launch table.
    Launch(u32),
    ControlStart,
    Control {
        and: bool,
        deps: Span,
    },
    Await {
        deps: Span,
    },
    Return {
        values: Span,
    },
    /// `equeue.op`; `cycles` is `None` when the signature has no library
    /// implementation and no explicit override — an error *if executed*.
    ExtOp {
        cycles: Option<u64>,
    },
    // ---- loops ----
    /// `bounds` indexes `(lower, upper, step)` in the plan's integer pool.
    For {
        bounds: u32,
        body: BlockId,
        iv: Slot,
    },
    /// `bounds` indexes the lowers, then the uppers, then the steps (one
    /// per induction variable) in the plan's integer pool.
    Parallel {
        bounds: u32,
        body: BlockId,
        ivs: Span,
    },
    Yield,
    // ---- linalg ----
    /// `dims` indexes the plan's convolution table.
    Conv2d {
        dims: u32,
        ifmap: Slot,
        weights: Slot,
        ofmap: Slot,
    },
    Matmul {
        a: Slot,
        b: Slot,
        c: Slot,
    },
    Fill {
        scalar: Slot,
        buffer: Slot,
    },
    // ---- arith ----
    ConstInt(i64),
    ConstFloat(f64),
    /// `pred` is `None` for a predicate the engine does not know (an error
    /// if executed).
    Cmpi {
        pred: Option<CmpPred>,
        lhs: Slot,
        rhs: Slot,
    },
    Select {
        cond: Slot,
        on_true: Slot,
        on_false: Slot,
    },
    /// A binary `arith` op. `kind` is the pre-decoded operator; `None`
    /// means a name the engine does not know, rejected when executed
    /// (after its operands are looked up), like everything else.
    Binary {
        kind: Option<BinOp>,
        lhs: Slot,
        rhs: Slot,
        index_typed: bool,
    },
    // ---- failures, deferred to execution time ----
    /// The op failed to decode (malformed views/attrs, or an operand with
    /// no materialisable definition); carries the message. Raises
    /// [`SimError::Layout`](crate::SimError::Layout) if executed.
    Invalid(Box<str>),
    /// An op name the engine does not model. Raises `Unsupported` if
    /// executed.
    Unsupported,
}

/// Pre-decoded form of one op.
#[derive(Debug)]
pub(crate) struct OpInfo {
    pub(crate) code: OpCode,
    /// Result slots, in result order.
    pub(crate) results: Span,
}

/// The library spec of an `equeue.create_mem` op, decoded by
/// [`create_mem_view`]: `None` when the attributes do not decode or the
/// shape's capacity overflows `usize`. An absent `data_bits` reads as 32,
/// absent `banks` as 1.
pub(crate) fn mem_spec(module: &Module, op: OpId) -> Option<MemSpec> {
    let view = create_mem_view(module, op).ok()?;
    Some(MemSpec {
        kind: view.kind.to_string(),
        capacity_elems: view.capacity()?,
        data_bits: view.data_bits.unwrap_or(32),
        banks: view.banks.unwrap_or(1),
        attrs: module.op(op).attrs.clone(),
    })
}

/// A loop's induction slots and bounds, outermost dimension first (one
/// dimension for `affine.for`). Upper bounds are exclusive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LoopDims<'a> {
    pub(crate) ivs: &'a [Slot],
    pub(crate) lowers: &'a [i64],
    pub(crate) uppers: &'a [i64],
    pub(crate) steps: &'a [i64],
}

/// The prepass output: flat tables for scope layouts, decoded ops and their
/// pools, plus the fused loop traces. Immutable once built — a plan can
/// back any number of simulations, sequentially or from several threads at
/// once (see [`crate::CompiledModule`]).
#[derive(Debug)]
pub(crate) struct Plan {
    /// Per scope, its span of `values`: slot → value, sorted by value id.
    scopes: Vec<Span>,
    /// The value pool.
    values: Vec<ValueId>,
    /// Indexed by `OpId::index()`.
    pub(crate) ops: Vec<OpInfo>,
    /// The slot pool every [`Span`] in `ops` and `launches` points into.
    slots: Vec<Slot>,
    /// Spawn recipes, indexed by [`OpCode::Launch`].
    launches: Vec<LaunchInfo>,
    /// Loop bounds, indexed by [`OpCode::For`] and [`OpCode::Parallel`].
    ints: Vec<i64>,
    /// The `affine.for`/`affine.parallel` op whose body each block is,
    /// indexed by `BlockId::index()`; `None` for any other block.
    loop_of: Vec<Option<OpId>>,
    /// Convolution shapes, indexed by [`OpCode::Conv2d`].
    convs: Vec<ConvDims>,
    /// The fusion verdict of every entered `affine.for` body, indexed by
    /// the body's `BlockId::index()`: its trace, or why it declined.
    /// `None` for blocks that are not such a body. Built unconditionally
    /// (it is cheap and pure); whether a run consults it is decided per
    /// run by [`crate::SimOptions::backend`].
    pub(crate) fusion: Vec<Option<LoopFusion>>,
}

impl Plan {
    /// The slots of a span of the slot pool.
    pub(crate) fn slots(&self, span: Span) -> &[Slot] {
        span.of(&self.slots)
    }

    /// Number of frame scopes.
    pub(crate) fn num_scopes(&self) -> usize {
        self.scopes.len()
    }

    /// Slot → value map of a scope; its length is the frame size.
    pub(crate) fn scope_values(&self, scope: u32) -> &[ValueId] {
        self.scopes[scope as usize].of(&self.values)
    }

    /// The spawn recipe of [`OpCode::Launch`]`(index)`.
    pub(crate) fn launch(&self, index: u32) -> &LaunchInfo {
        &self.launches[index as usize]
    }

    /// `(lower, upper, step)` of [`OpCode::For`].
    pub(crate) fn for_bounds(&self, bounds: u32) -> (i64, i64, i64) {
        let b = &self.ints[bounds as usize..];
        (b[0], b[1], b[2])
    }

    /// The induction slots and bounds of an [`OpCode::For`] or
    /// [`OpCode::Parallel`]; `None` for any other op.
    pub(crate) fn loop_dims<'a>(&'a self, code: &'a OpCode) -> Option<LoopDims<'a>> {
        let (bounds, ivs) = match code {
            OpCode::For { bounds, iv, .. } => (*bounds, std::slice::from_ref(iv)),
            OpCode::Parallel { bounds, ivs, .. } => (*bounds, self.slots(*ivs)),
            _ => return None,
        };
        let n = ivs.len();
        let b = &self.ints[bounds as usize..][..3 * n];
        Some(LoopDims {
            ivs,
            lowers: &b[..n],
            uppers: &b[n..2 * n],
            steps: &b[2 * n..],
        })
    }

    /// The induction slots and bounds of the loop whose body is `block`;
    /// `None` when `block` is not a loop body.
    pub(crate) fn body_loop(&self, block: BlockId) -> Option<LoopDims<'_>> {
        let op = self.loop_of.get(block.index()).copied().flatten()?;
        self.loop_dims(&self.ops[op.index()].code)
    }

    /// The shape of [`OpCode::Conv2d`].
    pub(crate) fn conv(&self, dims: u32) -> ConvDims {
        self.convs[dims as usize]
    }

    /// The first structurally-invalid decoded op, if any: `(name, message)`.
    /// Used by [`crate::CompiledModule::compile`] to reject malformed
    /// modules eagerly; the lazy [`crate::simulate_with`] path never calls
    /// it.
    pub(crate) fn first_invalid<'a>(&'a self, module: &'a Module) -> Option<(&'a str, &'a str)> {
        self.ops
            .iter()
            .enumerate()
            .find_map(|(i, info)| match &info.code {
                OpCode::Invalid(msg) => {
                    Some((module.op(OpId::from_index(i)).name.as_str(), &**msg))
                }
                _ => None,
            })
    }

    /// The one-shot layout prepass. Infallible: malformed ops decode to
    /// [`OpCode::Invalid`] and only fail if executed. Linear in the module
    /// size apart from sorting each scope's values: dense arrays indexed by
    /// value id, and no per-scope or per-op allocation (save the message of
    /// an op that fails to decode).
    pub(crate) fn build(module: &Module, lib: &SimLibrary) -> Plan {
        const NO_SCOPE: u32 = u32::MAX;
        let nvalues = module.num_values();

        // -- 1. Scope discovery, in one walk: the top region plus every
        // launch body, breadth first. Each scope's ops, defined values
        // (block args + op results) and used values (operands, with
        // duplicates) land in CSR tables; its child scopes are the scopes
        // discovered while walking it, so they are contiguous too. Every
        // value is defined in at most one scope; `def_scope` is a dense
        // module-wide map of it.
        let mut walk = ScopeWalk {
            module,
            roots: vec![module.top_region()],
            scope_of_root: vec![None; module.num_regions()],
            ops: vec![],
            defined: vec![],
            used: vec![],
            def_scope: vec![NO_SCOPE; nvalues],
        };
        walk.scope_of_root[module.top_region().index()] = Some(0);
        let (mut op_off, mut def_off, mut use_off) = (vec![0], vec![0], vec![0]);
        let mut child_off = vec![1];
        let mut s = 0;
        while s < walk.roots.len() {
            walk.region(walk.roots[s], s as u32);
            op_off.push(walk.ops.len());
            def_off.push(walk.defined.len());
            use_off.push(walk.used.len());
            child_off.push(walk.roots.len());
            s += 1;
        }
        let n = walk.roots.len();
        let ScopeWalk {
            scope_of_root,
            ops: scope_ops,
            defined,
            used,
            def_scope,
            ..
        } = walk;

        // -- 2. Free sets, bottom-up (children have higher indices): a
        // value is free in a scope if the scope — or any launch nested in
        // it — uses it without defining it. Free vars of children must get
        // slots here too, so the child's spawn can capture them from this
        // frame. `seen` stamps a value with the scope whose set holds it.
        let mut free_pool: Vec<ValueId> = vec![];
        let mut free = vec![Span::default(); n];
        let mut seen = vec![NO_SCOPE; nvalues];
        for s in (0..n).rev() {
            let start = free_pool.len();
            let mut add = |v: ValueId, pool: &mut Vec<ValueId>| {
                if def_scope[v.index()] != s as u32 && seen[v.index()] != s as u32 {
                    seen[v.index()] = s as u32;
                    pool.push(v);
                }
            };
            for &v in &used[use_off[s]..use_off[s + 1]] {
                add(v, &mut free_pool);
            }
            for c in child_off[s]..child_off[s + 1] {
                for i in 0..free[c].len() {
                    add(free_pool[free[c].start as usize + i], &mut free_pool);
                }
            }
            free_pool[start..].sort_unstable();
            free[s] = Span::since(&free_pool, start);
        }
        drop((seen, used));

        // -- 3. Slot assignment: defined ∪ free, ordered by ValueId for
        // determinism.
        let mut values: Vec<ValueId> = Vec::with_capacity(defined.len() + free_pool.len());
        let mut scopes = Vec::with_capacity(n);
        for s in 0..n {
            let start = values.len();
            values.extend_from_slice(&defined[def_off[s]..def_off[s + 1]]);
            values.extend_from_slice(free[s].of(&free_pool));
            values[start..].sort_unstable();
            let mut kept = start;
            for i in start..values.len() {
                if i == start || values[i] != values[kept - 1] {
                    values[kept] = values[i];
                    kept += 1;
                }
            }
            values.truncate(kept);
            scopes.push(Span::since(&values, start));
        }
        drop(defined);

        // -- 4. Op decode, scope by scope, against a value-indexed slot
        // table of the scope being decoded. Ops outside every scope (inside
        // erased ops) stay `Erased`: they can never execute.
        let mut dec = Decoder {
            module,
            lib,
            plan: Plan {
                scopes,
                values,
                ops: (0..module.num_ops())
                    .map(|_| OpInfo {
                        code: OpCode::Erased,
                        results: Span::default(),
                    })
                    .collect(),
                slots: Vec::with_capacity(scope_ops.len() * 2),
                launches: vec![],
                ints: vec![],
                loop_of: vec![None; module.num_blocks()],
                convs: vec![],
                fusion: vec![],
            },
            slot_of: vec![(NO_SCOPE, 0); nvalues],
            scope: 0,
            free: &free,
            free_pool: &free_pool,
            scope_of_root: &scope_of_root,
        };
        for s in 0..n {
            dec.enter(s as u32);
            for &op in &scope_ops[op_off[s]..op_off[s + 1]] {
                let info = dec.op(op);
                if let OpCode::For { body, .. } | OpCode::Parallel { body, .. } = info.code {
                    dec.plan.loop_of[body.index()] = Some(op);
                }
                dec.plan.ops[op.index()] = info;
            }
        }
        let mut plan = dec.plan;

        // -- 5. Fusion: compile static affine loop bodies into
        // dispatch-free instruction tables (see `crate::fused`), or record
        // why each declined. Purely derived from the decoded ops and the
        // library's memory models; declined loops run on the interpreter.
        plan.fusion = crate::fused::build_fused(module, lib, &plan);
        plan
    }
}

/// Scope discovery state: the scope roots found so far, in scope order,
/// plus the flat tables the walk fills.
struct ScopeWalk<'m> {
    module: &'m Module,
    roots: Vec<RegionId>,
    /// Scope index of each launch-body (and the top) region, indexed by
    /// `RegionId::index()`.
    scope_of_root: Vec<Option<u32>>,
    ops: Vec<OpId>,
    defined: Vec<ValueId>,
    used: Vec<ValueId>,
    def_scope: Vec<u32>,
}

impl ScopeWalk<'_> {
    /// Walks the blocks and ops of scope `s` in `region`: descends into
    /// nested regions (loops) but **not** into launch bodies, which start
    /// scopes of their own.
    fn region(&mut self, region: RegionId, s: u32) {
        let module = self.module;
        for &b in &module.region(region).blocks {
            for &a in &module.block(b).args {
                self.define(a, s);
            }
            for &op in &module.block(b).ops {
                let data = module.op(op);
                if data.erased {
                    continue;
                }
                self.ops.push(op);
                self.used.extend_from_slice(&data.operands);
                for &r in &data.results {
                    self.define(r, s);
                }
                if data.regions.is_empty() {
                    continue;
                }
                let nested = if data.name == "equeue.launch" {
                    let body = data.regions[0];
                    self.scope_of_root[body.index()] = Some(self.roots.len() as u32);
                    self.roots.push(body);
                    &data.regions[1..]
                } else {
                    &data.regions[..]
                };
                for &r in nested {
                    self.region(r, s);
                }
            }
        }
    }

    fn define(&mut self, v: ValueId, s: u32) {
        self.defined.push(v);
        self.def_scope[v.index()] = s;
    }
}

/// Slot of `v` in `scope`, given the decoder's slot table.
fn lookup(slot_of: &[(u32, Slot)], scope: u32, v: ValueId) -> Result<Slot, String> {
    match slot_of.get(v.index()) {
        Some(&(s, slot)) if s == scope => Ok(slot),
        _ => Err(format!("value %{v} has no materialisable definition")),
    }
}

/// Op decode state: the plan under construction plus the slot table of
/// the scope being decoded.
struct Decoder<'a> {
    module: &'a Module,
    lib: &'a SimLibrary,
    plan: Plan,
    /// `(scope, slot)` per value id: the value's slot, valid while `scope`
    /// is the scope being decoded.
    slot_of: Vec<(u32, Slot)>,
    scope: u32,
    free: &'a [Span],
    free_pool: &'a [ValueId],
    scope_of_root: &'a [Option<u32>],
}

impl Decoder<'_> {
    /// Makes scope `s` current: numbers its values in the slot table.
    fn enter(&mut self, s: u32) {
        self.scope = s;
        for (i, &v) in self.plan.scope_values(s).iter().enumerate() {
            self.slot_of[v.index()] = (s, i as Slot);
        }
    }

    /// Slot of one value in the current scope; an operand defined by
    /// nothing executable (e.g. a result of an erased op) has no slot and
    /// poisons the decode.
    fn slot(&self, v: ValueId) -> Result<Slot, String> {
        lookup(&self.slot_of, self.scope, v)
    }

    /// Appends the slots of `vs` to the slot pool.
    fn push_slots(&mut self, vs: &[ValueId]) -> Result<Span, String> {
        let start = self.plan.slots.len();
        for &v in vs {
            let s = self.slot(v)?;
            self.plan.slots.push(s);
        }
        Ok(Span::since(&self.plan.slots, start))
    }

    /// Decodes one op of the current scope into its [`OpInfo`]. A failed
    /// decode leaves nothing of the op's operands in the pools.
    fn op(&mut self, op: OpId) -> OpInfo {
        let data = self.module.op(op);
        let mark = self.plan.slots.len();
        let results = match self.push_slots(&data.results) {
            Ok(r) => r,
            Err(e) => {
                self.plan.slots.truncate(mark);
                return OpInfo {
                    code: OpCode::Invalid(e.into()),
                    results: Span::default(),
                };
            }
        };
        let mark = self.plan.slots.len();
        let code = self.code(op, data).unwrap_or_else(|e| {
            self.plan.slots.truncate(mark);
            OpCode::Invalid(e.into())
        });
        OpInfo { code, results }
    }

    #[allow(clippy::too_many_lines)]
    fn code(&mut self, op: OpId, data: &Operation) -> Result<OpCode, String> {
        let module = self.module;
        // Checked accessors: a wrong-arity op must decode to
        // `OpCode::Invalid` (failing only if executed), never panic the
        // prepass.
        let operand = |i: usize| -> Result<ValueId, String> {
            data.operands
                .get(i)
                .copied()
                .ok_or_else(|| format!("op '{}' missing operand {i}", data.name))
        };
        let operands_from = |i: usize| -> &[ValueId] { data.operands.get(i..).unwrap_or(&[]) };
        let result0 = || -> Result<ValueId, String> {
            data.results
                .first()
                .copied()
                .ok_or_else(|| format!("op '{}' missing its result", data.name))
        };
        let attr_str = |name: &str| -> Result<&str, String> {
            data.attrs
                .str(name)
                .ok_or_else(|| format!("op '{}' missing attribute '{name}'", data.name))
        };
        Ok(match data.name.as_str() {
            "equeue.create_proc" => {
                attr_str("kind")?;
                OpCode::CreateProc
            }
            "equeue.create_mem" => {
                // The factory checks the model's attributes here, once; a
                // capacity that overflows fails only when the op runs.
                create_mem_view(module, op)?;
                if let Some(spec) = mem_spec(module, op) {
                    self.lib.make_memory(&spec)?;
                }
                OpCode::CreateMem
            }
            "equeue.create_dma" => OpCode::CreateDma,
            "equeue.create_comp" | "equeue.add_comp" => {
                data.attrs
                    .get("names")
                    .and_then(|a| a.as_str_array())
                    .ok_or_else(|| format!("{} missing names", data.name))?;
                if data.name == "equeue.create_comp" {
                    OpCode::CreateComp {
                        children: self.push_slots(&data.operands)?,
                    }
                } else {
                    OpCode::AddComp {
                        target: self.slot(operand(0)?)?,
                        children: self.push_slots(operands_from(1))?,
                    }
                }
            }
            "equeue.get_comp" => {
                let target = self.slot(operand(0)?)?;
                attr_str("name")?;
                OpCode::GetComp { target }
            }
            "equeue.create_connection" => {
                let kind_s = attr_str("kind")?;
                let kind = ConnKind::from_str(kind_s)
                    .ok_or_else(|| format!("bad connection kind {kind_s}"))?;
                let bw = data.attrs.int("bandwidth").unwrap_or(0).max(0) as u64;
                OpCode::CreateConnection {
                    kind,
                    bandwidth: bw,
                }
            }
            "equeue.alloc" => {
                let elem = match module.value_type(result0()?) {
                    Type::Buffer { elem, .. } => elem,
                    other => return Err(format!("alloc result must be a buffer, got {other}")),
                };
                OpCode::Alloc {
                    mem: self.slot(operand(0)?)?,
                    elem_bytes: elem.elem_byte_width().unwrap_or(4) as u32,
                    is_int: elem.is_integer(),
                }
            }
            "memref.alloc" => {
                let elem = match module.value_type(result0()?) {
                    Type::MemRef { elem, .. } => elem,
                    other => return Err(format!("memref.alloc result {other}")),
                };
                OpCode::MemrefAlloc {
                    elem_bytes: elem.elem_byte_width().unwrap_or(4) as u32,
                    is_int: elem.is_integer(),
                }
            }
            "equeue.dealloc" | "memref.dealloc" => OpCode::Dealloc {
                buf: self.slot(operand(0)?)?,
            },
            "equeue.read" => {
                let view = read_view(module, op)?;
                OpCode::Read {
                    buffer: self.slot(view.buffer)?,
                    indices: self.push_slots(view.indices)?,
                    conn: OptSlot::new(view.conn.map(|c| self.slot(c)).transpose()?),
                }
            }
            "equeue.write" => {
                let view = write_view(module, op)?;
                OpCode::Write {
                    value: self.slot(view.value)?,
                    buffer: self.slot(view.buffer)?,
                    indices: self.push_slots(view.indices)?,
                    conn: OptSlot::new(view.conn.map(|c| self.slot(c)).transpose()?),
                }
            }
            "affine.load" => OpCode::AffineLoad {
                buffer: self.slot(operand(0)?)?,
                indices: self.push_slots(operands_from(1))?,
            },
            "affine.store" => OpCode::AffineStore {
                value: self.slot(operand(0)?)?,
                buffer: self.slot(operand(1)?)?,
                indices: self.push_slots(operands_from(2))?,
            },
            "equeue.memcpy" => {
                let view = memcpy_view(module, op)?;
                OpCode::Memcpy {
                    dep: self.slot(view.dep)?,
                    src: self.slot(view.src)?,
                    dst: self.slot(view.dst)?,
                    dma: self.slot(view.dma)?,
                    conn: OptSlot::new(view.conn.map(|c| self.slot(c)).transpose()?),
                }
            }
            "equeue.launch" => {
                let view = launch_view(module, op).map_err(|e| format!("{e} (launch op)"))?;
                let body_region = data.regions.first().ok_or("launch needs a body region")?;
                let child = self
                    .scope_of_root
                    .get(body_region.index())
                    .copied()
                    .flatten()
                    .ok_or("launch body region is not a scope")?;
                // Capture pairs go straight into the slot pool: the free
                // variables' (parent slot, child slot), then the explicit
                // captures bound to body block args.
                let Decoder {
                    plan,
                    slot_of,
                    scope,
                    free,
                    free_pool,
                    ..
                } = self;
                let slot = |v: ValueId| lookup(slot_of, *scope, v);
                let child_values = plan.scopes[child as usize].of(&plan.values);
                let child_slot = |v: ValueId| -> Result<Slot, String> {
                    child_values
                        .binary_search(&v)
                        .map(|i| i as Slot)
                        .map_err(|_| format!("value %{v} missing from launch scope"))
                };
                let start = plan.slots.len();
                for &v in free[child as usize].of(free_pool) {
                    plan.slots.push(slot(v)?);
                    plan.slots.push(child_slot(v)?);
                }
                let captures = Span::since(&plan.slots, start);
                let args = &module.block(view.body).args;
                for (&cap, &arg) in view.captures.iter().zip(args.iter()) {
                    plan.slots.push(slot(cap)?);
                    plan.slots.push(child_slot(arg)?);
                }
                let arg_binds = Span::since(&plan.slots, start + captures.len());
                plan.launches.push(LaunchInfo {
                    dep: slot(view.dep)?,
                    proc: slot(view.proc)?,
                    body: view.body,
                    scope: child,
                    captures,
                    arg_binds,
                });
                OpCode::Launch((plan.launches.len() - 1) as u32)
            }
            "equeue.control_start" => OpCode::ControlStart,
            "equeue.control_and" | "equeue.control_or" => OpCode::Control {
                and: data.name == "equeue.control_and",
                deps: self.push_slots(&data.operands)?,
            },
            "equeue.await" => OpCode::Await {
                deps: self.push_slots(&data.operands)?,
            },
            "equeue.return" => OpCode::Return {
                values: self.push_slots(&data.operands)?,
            },
            "equeue.op" => {
                let sig = attr_str("signature")?;
                // An explicit `cycles` attribute overrides the library, so
                // generators can emit parameterised macro-ops; otherwise
                // the signature must be implemented in the simulator
                // library (§III-E). Unknown signatures only fail when
                // executed.
                let cycles = match data.attrs.int("cycles") {
                    Some(c) => Some(c.max(0) as u64),
                    None => self.lib.ext_op(sig).map(|e| e.cycles),
                };
                OpCode::ExtOp { cycles }
            }
            "affine.for" => {
                let region = *data.regions.first().ok_or("affine.for needs a region")?;
                let body = *module
                    .region(region)
                    .blocks
                    .first()
                    .ok_or("affine.for empty region")?;
                let iv = *module
                    .block(body)
                    .args
                    .first()
                    .ok_or("affine.for body needs an iv")?;
                let step = data.attrs.int("step").unwrap_or(1);
                // A non-positive step can never reach the upper bound; it
                // would spin the interpreter forever, so reject it here.
                if step <= 0 {
                    return Err(format!("affine.for step must be positive, got {step}"));
                }
                let iv = self.slot(iv)?;
                let bounds = self.plan.ints.len() as u32;
                self.plan.ints.extend([
                    data.attrs.int("lower").unwrap_or(0),
                    data.attrs.int("upper").unwrap_or(0),
                    step,
                ]);
                OpCode::For { bounds, body, iv }
            }
            "affine.parallel" => {
                let region = *data
                    .regions
                    .first()
                    .ok_or("affine.parallel needs a region")?;
                let body = *module
                    .region(region)
                    .blocks
                    .first()
                    .ok_or("affine.parallel empty region")?;
                let lowers = data.attrs.int_array("lowers").unwrap_or(&[]);
                let uppers = data.attrs.int_array("uppers").unwrap_or(&[]);
                let steps = data.attrs.int_array("steps").unwrap_or(&[]);
                let ivs = self.push_slots(&module.block(body).args)?;
                // Mismatched bound arrays would index out of range during
                // iteration; non-positive steps would never terminate.
                if lowers.len() != uppers.len()
                    || lowers.len() != steps.len()
                    || lowers.len() != ivs.len()
                {
                    return Err(format!(
                        "affine.parallel bounds mismatch: {} lowers, {} uppers, {} steps, {} ivs",
                        lowers.len(),
                        uppers.len(),
                        steps.len(),
                        ivs.len()
                    ));
                }
                if let Some(s) = steps.iter().find(|&&s| s <= 0) {
                    return Err(format!("affine.parallel step must be positive, got {s}"));
                }
                let bounds = self.plan.ints.len() as u32;
                self.plan.ints.extend_from_slice(lowers);
                self.plan.ints.extend_from_slice(uppers);
                self.plan.ints.extend_from_slice(steps);
                OpCode::Parallel { bounds, body, ivs }
            }
            "affine.yield" => OpCode::Yield,
            "linalg.conv2d" => {
                let dims = conv2d_dims(module, op)?;
                let code = OpCode::Conv2d {
                    dims: self.plan.convs.len() as u32,
                    ifmap: self.slot(operand(0)?)?,
                    weights: self.slot(operand(1)?)?,
                    ofmap: self.slot(operand(2)?)?,
                };
                self.plan.convs.push(dims);
                code
            }
            "linalg.matmul" => OpCode::Matmul {
                a: self.slot(operand(0)?)?,
                b: self.slot(operand(1)?)?,
                c: self.slot(operand(2)?)?,
            },
            "linalg.fill" => OpCode::Fill {
                scalar: self.slot(operand(0)?)?,
                buffer: self.slot(operand(1)?)?,
            },
            "arith.constant" => {
                if module.value_type(result0()?).is_float() {
                    OpCode::ConstFloat(data.attrs.float("value").unwrap_or(0.0))
                } else {
                    OpCode::ConstInt(data.attrs.int("value").unwrap_or(0))
                }
            }
            "arith.cmpi" => OpCode::Cmpi {
                pred: CmpPred::from_name(attr_str("predicate")?),
                lhs: self.slot(operand(0)?)?,
                rhs: self.slot(operand(1)?)?,
            },
            "arith.select" => OpCode::Select {
                cond: self.slot(operand(0)?)?,
                on_true: self.slot(operand(1)?)?,
                on_false: self.slot(operand(2)?)?,
            },
            name if name.starts_with("arith.") => {
                if data.operands.len() != 2 {
                    return Err(format!("'{name}' needs exactly two operands"));
                }
                // Index-typed arithmetic is address generation, which the
                // memory pipeline absorbs; it costs no datapath cycles.
                let index_typed = *module.value_type(result0()?) == Type::Index;
                OpCode::Binary {
                    kind: BinOp::from_name(name),
                    lhs: self.slot(operand(0)?)?,
                    rhs: self.slot(operand(1)?)?,
                    index_typed,
                }
            }
            _ => OpCode::Unsupported,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat representation: an op's decoded form is ids, slots and
    /// scalars, so it must not regrow past half a cache line.
    #[test]
    fn op_info_stays_small() {
        assert!(std::mem::size_of::<OpCode>() <= 24);
        assert!(std::mem::size_of::<OpInfo>() <= 32);
    }
}
