//! Fluent construction of operations at an insertion point.
//!
//! [`OpBuilder`] is the Rust analogue of MLIR's `OpBuilder`: it tracks a
//! block and position, and dialect crates layer convenience constructors on
//! top of it (e.g. `create_proc`, `launch`) via extension traits. The paper's
//! generators (§VI-B) are written against this API.

use crate::attr::{Attr, AttrMap};
use crate::inline::{IdVec, Name};
use crate::module::{BlockId, Module, OpId, RegionId, ValueId};
use crate::types::Type;

/// A builder that inserts operations sequentially into a block.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, OpBuilder, Type};
/// let mut m = Module::new();
/// let block = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, block);
/// let c = b.op("arith.constant").attr("value", 4i64).result(Type::I32).finish();
/// let v = b.module().result(c, 0);
/// b.op("test.use").operand(v).finish();
/// assert_eq!(b.module().block(block).ops.len(), 2);
/// ```
#[derive(Debug)]
pub struct OpBuilder<'m> {
    module: &'m mut Module,
    block: BlockId,
    /// Next insertion index within the block.
    index: usize,
}

impl<'m> OpBuilder<'m> {
    /// Creates a builder inserting at the end of `block`.
    pub fn at_end(module: &'m mut Module, block: BlockId) -> Self {
        let index = module.block(block).ops.len();
        OpBuilder {
            module,
            block,
            index,
        }
    }

    /// Creates a builder inserting at position `index` of `block`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is larger than the number of ops in the block.
    pub fn at(module: &'m mut Module, block: BlockId, index: usize) -> Self {
        assert!(
            index <= module.block(block).ops.len(),
            "insertion index out of range"
        );
        OpBuilder {
            module,
            block,
            index,
        }
    }

    /// Creates a builder inserting immediately before `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is detached.
    pub fn before(module: &'m mut Module, op: OpId) -> Self {
        let block = match module.op(op).parent_block {
            Some(b) => b,
            None => panic!("op must be attached"),
        };
        let index = match module.op_index_in_block(op) {
            Some(i) => i,
            None => panic!("op must be attached"),
        };
        OpBuilder {
            module,
            block,
            index,
        }
    }

    /// Creates a builder inserting immediately after `op`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is detached.
    pub fn after(module: &'m mut Module, op: OpId) -> Self {
        let block = match module.op(op).parent_block {
            Some(b) => b,
            None => panic!("op must be attached"),
        };
        let index = match module.op_index_in_block(op) {
            Some(i) => i + 1,
            None => panic!("op must be attached"),
        };
        OpBuilder {
            module,
            block,
            index,
        }
    }

    /// The block currently being inserted into.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// The next insertion index.
    pub fn insertion_index(&self) -> usize {
        self.index
    }

    /// Moves the insertion point to the end of `block`.
    pub fn set_insertion_point_to_end(&mut self, block: BlockId) {
        self.index = self.module.block(block).ops.len();
        self.block = block;
    }

    /// Borrows the underlying module.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// Mutably borrows the underlying module.
    pub fn module_mut(&mut self) -> &mut Module {
        self.module
    }

    /// Starts a fluent op specification named `name`.
    pub fn op<'a>(&'a mut self, name: &str) -> OpSpec<'a, 'm> {
        OpSpec {
            builder: self,
            name: Name::from(name),
            operands: IdVec::new(),
            result_types: ResultTypes::default(),
            attrs: AttrMap::new(),
            regions: IdVec::new(),
            result_names: vec![],
        }
    }

    /// Creates a fresh region (to be attached to an op built afterwards)
    /// with one entry block taking `arg_types`; returns the region and block.
    pub fn region_with_block(&mut self, arg_types: Vec<Type>) -> (RegionId, BlockId) {
        let r = self.module.new_region(None);
        let b = self.module.new_block(r, arg_types);
        (r, b)
    }

    /// Inserts a pre-created detached op at the insertion point, advancing it.
    pub fn insert(&mut self, op: OpId) -> OpId {
        self.module.insert_op(self.block, self.index, op);
        self.index += 1;
        op
    }
}

/// In-progress operation description produced by [`OpBuilder::op`].
///
/// Terminal method [`OpSpec::finish`] creates the op and inserts it at the
/// builder's insertion point. The spec stores the name, operand and region
/// lists in the op's own inline forms ([`Name`], [`IdVec`]) and the first
/// result type inline, so building an ordinary op allocates only for its
/// attributes, and `finish` moves everything into the module uncopied.
#[derive(Debug)]
pub struct OpSpec<'a, 'm> {
    builder: &'a mut OpBuilder<'m>,
    name: Name,
    operands: IdVec<ValueId>,
    result_types: ResultTypes,
    attrs: AttrMap,
    regions: IdVec<RegionId>,
    result_names: Vec<(usize, String)>,
}

/// Result types of an [`OpSpec`]: the first inline (most ops have at most
/// one result), any further ones in a `Vec`.
#[derive(Debug, Default)]
struct ResultTypes {
    first: Option<Type>,
    rest: Vec<Type>,
}

impl ResultTypes {
    fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    fn push(&mut self, ty: Type) {
        if self.first.is_none() {
            self.first = Some(ty);
        } else {
            self.rest.push(ty);
        }
    }

    fn into_iter(self) -> impl Iterator<Item = Type> {
        self.first.into_iter().chain(self.rest)
    }
}

impl<'a, 'm> OpSpec<'a, 'm> {
    /// Appends one operand.
    pub fn operand(mut self, v: ValueId) -> Self {
        self.operands.push(v);
        self
    }

    /// Appends several operands.
    pub fn operands(mut self, vs: impl IntoIterator<Item = ValueId>) -> Self {
        self.operands.extend(vs);
        self
    }

    /// Declares one result of type `ty`.
    pub fn result(mut self, ty: Type) -> Self {
        self.result_types.push(ty);
        self
    }

    /// Declares one result of type `ty` with a printer name hint.
    pub fn named_result(mut self, ty: Type, hint: &str) -> Self {
        self.result_names
            .push((self.result_types.len(), hint.to_string()));
        self.result_types.push(ty);
        self
    }

    /// Declares several results.
    pub fn results(mut self, tys: impl IntoIterator<Item = Type>) -> Self {
        for ty in tys {
            self.result_types.push(ty);
        }
        self
    }

    /// Sets attribute `name` to `value`.
    pub fn attr(mut self, name: &str, value: impl Into<Attr>) -> Self {
        self.attrs.set(name, value);
        self
    }

    /// Attaches a region.
    pub fn region(mut self, r: RegionId) -> Self {
        self.regions.push(r);
        self
    }

    /// Creates the op, inserts it at the insertion point, and returns its id.
    pub fn finish(self) -> OpId {
        let (builder, op) = self.create();
        builder.insert(op)
    }

    /// Like [`OpSpec::finish`] but returns the op's sole result value.
    ///
    /// # Panics
    ///
    /// Panics if the op does not have exactly one result.
    pub fn finish_value(self) -> ValueId {
        assert_eq!(
            self.result_types.len(),
            1,
            "finish_value requires exactly one result"
        );
        let (builder, op) = self.create();
        let v = builder.module.result(op, 0);
        builder.insert(op);
        v
    }

    /// Creates the op, detached, and names its results.
    fn create(self) -> (&'a mut OpBuilder<'m>, OpId) {
        let OpSpec {
            builder,
            name,
            operands,
            result_types,
            attrs,
            regions,
            result_names,
        } = self;
        let op = builder
            .module
            .create_op(name, operands, result_types.into_iter(), attrs, regions);
        for (idx, hint) in result_names {
            let v = builder.module.result(op, idx);
            builder.module.set_value_name(v, &hint);
        }
        (builder, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_in_order() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.op("test.a").finish();
        b.op("test.b").finish();
        let names: Vec<String> = m
            .block(blk)
            .ops
            .iter()
            .map(|&o| m.op(o).name.to_string())
            .collect();
        assert_eq!(names, vec!["test.a", "test.b"]);
    }

    #[test]
    fn at_positions() {
        let mut m = Module::new();
        let blk = m.top_block();
        {
            let mut b = OpBuilder::at_end(&mut m, blk);
            b.op("test.a").finish();
            b.op("test.c").finish();
        }
        {
            let mut b = OpBuilder::at(&mut m, blk, 1);
            b.op("test.b").finish();
        }
        let names: Vec<String> = m
            .block(blk)
            .ops
            .iter()
            .map(|&o| m.op(o).name.to_string())
            .collect();
        assert_eq!(names, vec!["test.a", "test.b", "test.c"]);
    }

    #[test]
    fn before_and_after() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mid = {
            let mut b = OpBuilder::at_end(&mut m, blk);
            b.op("test.mid").finish()
        };
        OpBuilder::before(&mut m, mid).op("test.pre").finish();
        OpBuilder::after(&mut m, mid).op("test.post").finish();
        let names: Vec<String> = m
            .block(blk)
            .ops
            .iter()
            .map(|&o| m.op(o).name.to_string())
            .collect();
        assert_eq!(names, vec!["test.pre", "test.mid", "test.post"]);
    }

    #[test]
    fn fluent_spec() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let c = b
            .op("arith.constant")
            .attr("value", 7i64)
            .named_result(Type::I32, "seven")
            .finish();
        let v = b.module().result(c, 0);
        let u = b.op("test.use").operand(v).result(Type::I32).finish();
        assert_eq!(m.op(u).operands, vec![v]);
        assert_eq!(m.op(c).attrs.int("value"), Some(7));
        assert_eq!(m.value(v).name_hint.as_deref(), Some("seven"));
    }

    #[test]
    fn region_attachment() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let (r, inner) = b.region_with_block(vec![Type::I32]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), inner);
            ib.op("test.inner").finish();
        }
        let mut b = OpBuilder::at_end(&mut m, blk);
        let outer = b.op("test.outer").region(r).finish();
        assert_eq!(m.op(outer).regions, vec![r]);
        assert_eq!(m.region(r).parent_op, Some(outer));
    }
}
