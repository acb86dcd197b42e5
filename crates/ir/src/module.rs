//! The IR container: an arena-backed module of operations, blocks, regions,
//! and SSA values.
//!
//! Mirroring MLIR, an operation is a generic record — a name, operands,
//! results, an attribute dictionary, and nested regions — and dialects give
//! meaning to particular names. All entities live in per-module arenas and
//! are addressed by small copyable ids ([`OpId`], [`ValueId`], [`BlockId`],
//! [`RegionId`]), which keeps the whole IR free of reference cycles and
//! cheap to traverse and mutate.

use crate::attr::AttrMap;
use crate::inline::{IdVec, Name};
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;

/// Identifies an [`Operation`] within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) u32);

/// Identifies an SSA value (operation result or block argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub(crate) u32);

/// Identifies a basic block within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) u32);

/// Identifies a region (a list of blocks owned by an operation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub(crate) u32);

impl OpId {
    /// The op's dense arena index (stable for the module's lifetime).
    /// Lets clients build side tables indexed by op — e.g. the simulation
    /// engine's pre-decoded opcode table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The inverse of [`index`](OpId::index): rebuilds an id from a dense
    /// arena index, for clients deserialising side-table references.
    /// Performs no bounds check — callers must validate against
    /// [`Module::num_ops`] before dereferencing.
    pub fn from_index(index: usize) -> Self {
        OpId(index as u32)
    }
}

impl ValueId {
    /// The value's dense arena index (stable for the module's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl BlockId {
    /// The block's dense arena index (stable for the module's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The inverse of [`index`](BlockId::index): rebuilds an id from a
    /// dense arena index, for clients deserialising side-table references.
    /// Performs no bounds check — callers must validate against
    /// [`Module::num_blocks`] before dereferencing.
    pub fn from_index(index: usize) -> Self {
        BlockId(index as u32)
    }
}

impl RegionId {
    /// The region's dense arena index (stable for the module's lifetime).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Where an SSA value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th result of an operation.
    OpResult {
        /// Defining operation.
        op: OpId,
        /// Result position.
        index: usize,
    },
    /// The `index`-th argument of a block.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument position.
        index: usize,
    },
}

/// Arena record for an SSA value.
#[derive(Debug, Clone)]
pub struct ValueData {
    /// The value's type.
    pub ty: Type,
    /// Provenance of the value.
    pub def: ValueDef,
    /// Optional human-readable name used by the printer (`%kernel`).
    pub name_hint: Option<String>,
}

/// Arena record for an operation.
///
/// Operations are *generic*: dialect semantics attach to [`Operation::name`]
/// (e.g. `"equeue.launch"`), never to distinct Rust types. This is the
/// property that lets compiler passes transform hardware structure like any
/// other IR.
///
/// The record is built to be cheap in bulk: a name of up to 22 bytes and up
/// to four operands, results and regions each are stored inline ([`Name`],
/// [`IdVec`]), and the attribute dictionary is a single sorted vector, so a
/// typical op costs at most one heap block of its own (none without
/// attributes). The fields read as `&str` and `&[T]` through `Deref`.
#[derive(Debug, Clone)]
pub struct Operation {
    /// Fully-qualified name, `"<dialect>.<mnemonic>"`.
    pub name: Name,
    /// SSA operands, in order.
    pub operands: IdVec<ValueId>,
    /// SSA results defined by this op, in order.
    pub results: IdVec<ValueId>,
    /// The attribute dictionary.
    pub attrs: AttrMap,
    /// Nested regions, in order.
    pub regions: IdVec<RegionId>,
    /// The block this op currently lives in, if attached.
    pub parent_block: Option<BlockId>,
    /// Whether the op has been erased (arena slot retained).
    pub erased: bool,
}

impl Operation {
    /// The dialect prefix of [`Operation::name`] (before the first `.`).
    pub fn dialect(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    /// The mnemonic of [`Operation::name`] (after the first `.`).
    pub fn mnemonic(&self) -> &str {
        match self.name.split_once('.') {
            Some((_, m)) => m,
            None => &self.name,
        }
    }
}

/// Arena record for a basic block.
///
/// Like [`Operation`]'s lists, `args` and `ops` hold up to four ids inline,
/// so a typical `equeue.launch` body allocates nothing of its own.
#[derive(Debug, Clone)]
pub struct Block {
    /// Block arguments (SSA values).
    pub args: IdVec<ValueId>,
    /// Operations in program order.
    pub ops: IdVec<OpId>,
    /// The region owning this block.
    pub parent_region: RegionId,
}

/// Arena record for a region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Blocks in order; the first is the entry block.
    pub blocks: IdVec<BlockId>,
    /// The operation owning this region (`None` only for the module's top
    /// region).
    pub parent_op: Option<OpId>,
}

/// An arena-backed IR module.
///
/// A fresh module owns a *top region* with a single entry block; programs are
/// built by appending operations to that block (or nested regions) through
/// the [`OpBuilder`](crate::builder::OpBuilder).
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, Type};
/// let mut m = Module::new();
/// let b = m.top_block();
/// let op = m.create_op("test.dummy", vec![], vec![Type::I32], Default::default(), vec![]);
/// m.append_op(b, op);
/// assert_eq!(m.block(b).ops.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Module {
    ops: Vec<Operation>,
    values: Vec<ValueData>,
    blocks: Vec<Block>,
    regions: Vec<Region>,
    top: RegionId,
}

impl Default for Module {
    fn default() -> Self {
        Self::new()
    }
}

impl Module {
    /// Creates an empty module with a top region containing one empty block.
    pub fn new() -> Self {
        let mut m = Module {
            ops: vec![],
            values: vec![],
            blocks: vec![],
            regions: vec![],
            top: RegionId(0),
        };
        let top = m.new_region(None);
        m.new_block(top, vec![]);
        m.top = top;
        m
    }

    /// The module's top region.
    pub fn top_region(&self) -> RegionId {
        self.top
    }

    /// The entry block of the top region, where top-level ops live.
    pub fn top_block(&self) -> BlockId {
        self.regions[self.top.0 as usize].blocks[0]
    }

    // ---- entity creation ------------------------------------------------

    /// Creates a new empty region owned by `parent_op`.
    pub fn new_region(&mut self, parent_op: Option<OpId>) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            blocks: IdVec::new(),
            parent_op,
        });
        id
    }

    /// Creates a new block with arguments of the given types, appended to
    /// `region`.
    pub fn new_block(&mut self, region: RegionId, arg_types: Vec<Type>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        let args = arg_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                let v = ValueId(self.values.len() as u32);
                self.values.push(ValueData {
                    ty,
                    def: ValueDef::BlockArg { block: id, index },
                    name_hint: None,
                });
                v
            })
            .collect();
        self.blocks.push(Block {
            args,
            ops: IdVec::new(),
            parent_region: region,
        });
        self.regions[region.0 as usize].blocks.push(id);
        id
    }

    /// Creates a detached operation and its result values.
    ///
    /// The op is not yet inside any block; attach it with
    /// [`Module::append_op`] or [`Module::insert_op`]. Regions passed in
    /// `regions` are re-parented to the new op. Name, operand and region
    /// lists are taken by value, so a caller that already holds a [`Name`]
    /// or [`IdVec`] (as [`OpSpec`](crate::OpSpec) does) hands it over
    /// without a copy; `&str` and `Vec` arguments work too.
    pub fn create_op(
        &mut self,
        name: impl Into<Name>,
        operands: impl Into<IdVec<ValueId>>,
        result_types: impl IntoIterator<Item = Type>,
        attrs: AttrMap,
        regions: impl Into<IdVec<RegionId>>,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        let results = result_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| {
                let v = ValueId(self.values.len() as u32);
                self.values.push(ValueData {
                    ty,
                    def: ValueDef::OpResult { op: id, index },
                    name_hint: None,
                });
                v
            })
            .collect();
        let regions = regions.into();
        for &r in &regions {
            self.regions[r.0 as usize].parent_op = Some(id);
        }
        self.ops.push(Operation {
            name: name.into(),
            operands: operands.into(),
            results,
            attrs,
            regions,
            parent_block: None,
            erased: false,
        });
        id
    }

    /// Appends a detached op to the end of `block`.
    ///
    /// # Panics
    ///
    /// Panics if the op is already attached to a block.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        assert!(
            self.ops[op.0 as usize].parent_block.is_none(),
            "op already attached"
        );
        self.ops[op.0 as usize].parent_block = Some(block);
        self.blocks[block.0 as usize].ops.push(op);
    }

    /// Inserts a detached op into `block` at position `index`.
    ///
    /// # Panics
    ///
    /// Panics if the op is already attached or `index` is out of bounds.
    pub fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        assert!(
            self.ops[op.0 as usize].parent_block.is_none(),
            "op already attached"
        );
        self.ops[op.0 as usize].parent_block = Some(block);
        self.blocks[block.0 as usize].ops.insert(index, op);
    }

    // ---- accessors ------------------------------------------------------

    /// Immutable access to an operation.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.0 as usize]
    }

    /// Mutable access to an operation.
    pub fn op_mut(&mut self, id: OpId) -> &mut Operation {
        &mut self.ops[id.0 as usize]
    }

    /// Immutable access to a value.
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.0 as usize]
    }

    /// The type of a value.
    pub fn value_type(&self, id: ValueId) -> &Type {
        &self.values[id.0 as usize].ty
    }

    /// Attaches a printer name hint (`%hint`) to a value.
    pub fn set_value_name(&mut self, id: ValueId, hint: &str) {
        self.values[id.0 as usize].name_hint = Some(hint.to_string());
    }

    /// Immutable access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Immutable access to a region.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// The `index`-th result value of `op`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn result(&self, op: OpId, index: usize) -> ValueId {
        self.ops[op.0 as usize].results[index]
    }

    /// Number of operations ever created (including erased ones).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of values ever created.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of blocks ever created. Lets clients build dense side tables
    /// indexed by [`BlockId::index`] — e.g. the simulation engine's fused
    /// loop-trace table.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of regions ever created. Same dense-side-table role as
    /// [`Module::num_blocks`], for clients that must bounds-check
    /// [`RegionId`]s from possibly-inconsistent (fuzzer-mutated) IR.
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// All live (non-erased) op ids, in arena order.
    pub fn live_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.ops
            .iter()
            .enumerate()
            .filter(|(_, o)| !o.erased)
            .map(|(i, _)| OpId(i as u32))
    }

    // ---- traversal ------------------------------------------------------

    /// Walks every live op in the module in pre-order (op before its
    /// regions), calling `f` on each.
    pub fn walk(&self, mut f: impl FnMut(OpId)) {
        self.walk_region(self.top, &mut f);
    }

    /// Walks every live op under `region` in pre-order.
    pub fn walk_region(&self, region: RegionId, f: &mut impl FnMut(OpId)) {
        for &b in &self.regions[region.0 as usize].blocks {
            for &op in &self.blocks[b.0 as usize].ops {
                if self.ops[op.0 as usize].erased {
                    continue;
                }
                f(op);
                for &r in &self.ops[op.0 as usize].regions {
                    self.walk_region(r, f);
                }
            }
        }
    }

    /// Collects all live ops under `region`, pre-order.
    pub fn region_ops(&self, region: RegionId) -> Vec<OpId> {
        let mut out = vec![];
        self.walk_region(region, &mut |op| out.push(op));
        out
    }

    /// Finds the first live op in the module with the given name.
    pub fn find_first(&self, name: &str) -> Option<OpId> {
        let mut found = None;
        self.walk(|op| {
            if found.is_none() && self.op(op).name == name {
                found = Some(op);
            }
        });
        found
    }

    /// Collects every live op in the module with the given name, pre-order.
    pub fn find_all(&self, name: &str) -> Vec<OpId> {
        let mut out = vec![];
        self.walk(|op| {
            if self.op(op).name == name {
                out.push(op);
            }
        });
        out
    }

    // ---- use-def --------------------------------------------------------

    /// Builds a map from each value to its uses `(op, operand_index)`.
    ///
    /// The map is computed by walking the module; call it once per pass
    /// phase rather than per query.
    pub fn collect_uses(&self) -> HashMap<ValueId, Vec<(OpId, usize)>> {
        let mut uses: HashMap<ValueId, Vec<(OpId, usize)>> = HashMap::new();
        self.walk(|op| {
            for (i, &v) in self.op(op).operands.iter().enumerate() {
                uses.entry(v).or_default().push((op, i));
            }
        });
        uses
    }

    /// Whether `value` has at least one use in a live op.
    pub fn has_uses(&self, value: ValueId) -> bool {
        let mut used = false;
        self.walk(|op| {
            if !used && self.op(op).operands.contains(&value) {
                used = true;
            }
        });
        used
    }

    /// Replaces every use of `old` with `new` throughout the module.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        let all: Vec<OpId> = self.live_ops().collect();
        for op in all {
            for operand in &mut self.ops[op.0 as usize].operands {
                if *operand == old {
                    *operand = new;
                }
            }
        }
    }

    // ---- mutation -------------------------------------------------------

    /// Rewrites operand `index` of `op` to `new`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_operand(&mut self, op: OpId, index: usize, new: ValueId) {
        self.ops[op.0 as usize].operands[index] = new;
    }

    /// Detaches `op` from its parent block without erasing it.
    pub fn detach_op(&mut self, op: OpId) {
        if let Some(b) = self.ops[op.0 as usize].parent_block.take() {
            self.blocks[b.0 as usize].ops.retain(|&o| o != op);
        }
    }

    /// Erases `op` and, recursively, everything in its regions.
    ///
    /// The arena slots are retained but marked erased; results of erased ops
    /// must no longer be used (the verifier reports dangling uses).
    pub fn erase_op(&mut self, op: OpId) {
        self.detach_op(op);
        let regions = self.ops[op.0 as usize].regions.clone();
        for r in regions {
            let blocks = self.regions[r.0 as usize].blocks.clone();
            for b in blocks {
                let ops = self.blocks[b.0 as usize].ops.clone();
                for o in ops {
                    self.erase_op(o);
                }
            }
        }
        self.ops[op.0 as usize].erased = true;
    }

    /// Position of `op` inside its parent block, if attached.
    pub fn op_index_in_block(&self, op: OpId) -> Option<usize> {
        let b = self.ops[op.0 as usize].parent_block?;
        self.blocks[b.0 as usize].ops.iter().position(|&o| o == op)
    }

    /// Deep-clones `op` (and its regions) as a new detached op, remapping
    /// operand values through `value_map`. Cloned results/block args are
    /// added to `value_map` so later clones see them.
    pub fn clone_op(&mut self, op: OpId, value_map: &mut HashMap<ValueId, ValueId>) -> OpId {
        let src = self.ops[op.0 as usize].clone();
        let operands: IdVec<ValueId> = src
            .operands
            .iter()
            .map(|v| *value_map.get(v).unwrap_or(v))
            .collect();
        let result_types: Vec<Type> = src
            .results
            .iter()
            .map(|&v| self.values[v.0 as usize].ty.clone())
            .collect();
        let mut new_regions = IdVec::new();
        for &r in &src.regions {
            let nr = self.new_region(None);
            let blocks = self.regions[r.0 as usize].blocks.clone();
            for b in blocks {
                let arg_types: Vec<Type> = self.blocks[b.0 as usize]
                    .args
                    .iter()
                    .map(|&v| self.values[v.0 as usize].ty.clone())
                    .collect();
                let nb = self.new_block(nr, arg_types);
                let (old_args, new_args) = (
                    self.blocks[b.0 as usize].args.clone(),
                    self.blocks[nb.0 as usize].args.clone(),
                );
                for (o, n) in old_args.iter().zip(new_args.iter()) {
                    value_map.insert(*o, *n);
                }
                let ops = self.blocks[b.0 as usize].ops.clone();
                for o in ops {
                    if self.ops[o.0 as usize].erased {
                        continue;
                    }
                    let cloned = self.clone_op(o, value_map);
                    self.append_op(nb, cloned);
                }
            }
            new_regions.push(nr);
        }
        let new_op = self.create_op(src.name, operands, result_types, src.attrs, new_regions);
        for (&o, &n) in src.results.iter().zip(&self.ops[new_op.0 as usize].results) {
            value_map.insert(o, n);
        }
        new_op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(m: &mut Module, n: usize) -> Vec<OpId> {
        let b = m.top_block();
        (0..n)
            .map(|_| {
                let op = m.create_op("test.v", vec![], vec![Type::I32], AttrMap::new(), vec![]);
                m.append_op(b, op);
                op
            })
            .collect()
    }

    /// Guards the inline capacities of [`Name`] and [`IdVec`]: a generated
    /// module holds ~10^5 ops, so every byte of the record is paid for in
    /// build, traversal and drop time. 136 bytes is what the record was
    /// with a `String` name, three `Vec`s and a `BTreeMap`.
    #[test]
    fn operation_record_stays_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<Name>(), 24);
        assert_eq!(size_of::<IdVec<ValueId>>(), 24);
        assert!(
            size_of::<Operation>() <= 136,
            "Operation is {} bytes",
            size_of::<Operation>()
        );
    }

    #[test]
    fn fresh_module_has_top_block() {
        let m = Module::new();
        assert!(m.block(m.top_block()).ops.is_empty());
        assert_eq!(m.region(m.top_region()).blocks.len(), 1);
        assert!(m.region(m.top_region()).parent_op.is_none());
    }

    #[test]
    fn create_and_append() {
        let mut m = Module::new();
        let ops = dummy(&mut m, 3);
        assert_eq!(m.block(m.top_block()).ops, ops);
        assert_eq!(m.op(ops[0]).name, "test.v");
        assert_eq!(m.op(ops[0]).dialect(), "test");
        assert_eq!(m.op(ops[0]).mnemonic(), "v");
        assert_eq!(*m.value_type(m.result(ops[0], 0)), Type::I32);
    }

    #[test]
    fn insert_at_index() {
        let mut m = Module::new();
        let ops = dummy(&mut m, 2);
        let mid = m.create_op("test.mid", vec![], vec![], AttrMap::new(), vec![]);
        m.insert_op(m.top_block(), 1, mid);
        assert_eq!(m.block(m.top_block()).ops, vec![ops[0], mid, ops[1]]);
        assert_eq!(m.op_index_in_block(mid), Some(1));
    }

    #[test]
    fn uses_and_replacement() {
        let mut m = Module::new();
        let b = m.top_block();
        let a = m.create_op("test.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(b, a);
        let c = m.create_op("test.c", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(b, c);
        let va = m.result(a, 0);
        let vc = m.result(c, 0);
        let user = m.create_op("test.use", vec![va, va], vec![], AttrMap::new(), vec![]);
        m.append_op(b, user);
        assert!(m.has_uses(va));
        assert!(!m.has_uses(vc));
        let uses = m.collect_uses();
        assert_eq!(uses[&va].len(), 2);
        m.replace_all_uses(va, vc);
        assert!(!m.has_uses(va));
        assert_eq!(m.op(user).operands, vec![vc, vc]);
    }

    #[test]
    fn erase_is_recursive() {
        let mut m = Module::new();
        let r = m.new_region(None);
        let inner_b = m.new_block(r, vec![]);
        let inner = m.create_op("test.inner", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(inner_b, inner);
        let outer = m.create_op("test.outer", vec![], vec![], AttrMap::new(), vec![r]);
        m.append_op(m.top_block(), outer);
        assert_eq!(m.find_all("test.inner").len(), 1);
        m.erase_op(outer);
        assert!(m.op(inner).erased);
        assert!(m.op(outer).erased);
        assert_eq!(m.find_all("test.inner").len(), 0);
        assert!(m.block(m.top_block()).ops.is_empty());
    }

    #[test]
    fn walk_is_preorder() {
        let mut m = Module::new();
        let r = m.new_region(None);
        let ib = m.new_block(r, vec![]);
        let inner = m.create_op("test.inner", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(ib, inner);
        let outer = m.create_op("test.outer", vec![], vec![], AttrMap::new(), vec![r]);
        m.append_op(m.top_block(), outer);
        let after = m.create_op("test.after", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(m.top_block(), after);
        let mut names = vec![];
        m.walk(|op| names.push(m.op(op).name.to_string()));
        assert_eq!(names, vec!["test.outer", "test.inner", "test.after"]);
    }

    #[test]
    fn block_args_are_values() {
        let mut m = Module::new();
        let r = m.new_region(None);
        let b = m.new_block(r, vec![Type::I32, Type::Signal]);
        let args = m.block(b).args.clone();
        assert_eq!(args.len(), 2);
        assert_eq!(*m.value_type(args[1]), Type::Signal);
        assert_eq!(
            m.value(args[0]).def,
            ValueDef::BlockArg { block: b, index: 0 }
        );
    }

    #[test]
    fn clone_op_remaps_values() {
        let mut m = Module::new();
        let b = m.top_block();
        let a = m.create_op("test.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(b, a);
        let va = m.result(a, 0);
        let r = m.new_region(None);
        let ib = m.new_block(r, vec![]);
        let inner = m.create_op(
            "test.use",
            vec![va],
            vec![Type::I32],
            AttrMap::new(),
            vec![],
        );
        m.append_op(ib, inner);
        let outer = m.create_op(
            "test.outer",
            vec![va],
            vec![Type::I32],
            AttrMap::new(),
            vec![r],
        );
        m.append_op(b, outer);

        // Clone with va mapped to a fresh value.
        let a2 = m.create_op("test.a2", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(b, a2);
        let va2 = m.result(a2, 0);
        let mut map = HashMap::new();
        map.insert(va, va2);
        let clone = m.clone_op(outer, &mut map);
        m.append_op(b, clone);
        assert_eq!(m.op(clone).operands, vec![va2]);
        let cloned_inner = m.region_ops(m.op(clone).regions[0])[0];
        assert_eq!(m.op(cloned_inner).operands, vec![va2]);
        // Original untouched.
        assert_eq!(m.op(outer).operands, vec![va]);
        // Result mapping recorded.
        assert_eq!(map[&m.result(outer, 0)], m.result(clone, 0));
    }

    #[test]
    fn detach_then_reattach() {
        let mut m = Module::new();
        let ops = dummy(&mut m, 2);
        m.detach_op(ops[0]);
        assert_eq!(m.block(m.top_block()).ops, vec![ops[1]]);
        m.append_op(m.top_block(), ops[0]);
        assert_eq!(m.block(m.top_block()).ops, vec![ops[1], ops[0]]);
    }

    #[test]
    fn find_helpers() {
        let mut m = Module::new();
        dummy(&mut m, 2);
        assert!(m.find_first("test.v").is_some());
        assert!(m.find_first("test.missing").is_none());
        assert_eq!(m.find_all("test.v").len(), 2);
    }
}
