//! Structural verification: SSA visibility, use-after-erase, terminator
//! placement, plus dialect-specific hooks from the
//! [`DialectRegistry`](crate::registry::DialectRegistry).
//!
//! The verifier is one walk over the module at traversal speed: visibility
//! is a table of flags indexed by [`ValueId`], with an undo list that
//! clears what a region introduced when the walk leaves it; each block's op
//! list is read in place; and each op's registry entry is looked up once,
//! by the bytes of its name.
//!
//! [`PassManager`](crate::pass::PassManager) does not call it again after
//! a pass that left the module's edit stamp where its last successful
//! verification saw it, as MLIR's pass manager skips the verifier after a
//! pass that preserved all analyses; the [`pass`](crate::pass) module docs
//! give the rule.

use crate::error::{IrError, IrResult};
use crate::module::{Module, OpId, RegionId, ValueDef, ValueId};
use crate::registry::DialectRegistry;

/// Verifies the whole module.
///
/// Checks performed:
///
/// 1. every operand is visible at its use (defined earlier in the same
///    block, a block argument of an enclosing block, or defined in an
///    enclosing region before the enclosing op);
/// 2. no operand refers to a result of an erased op;
/// 3. ops marked `is_terminator` in the registry appear only as the last op
///    of their block, and nothing follows them;
/// 4. each op's registered dialect verifier passes.
///
/// # Errors
///
/// Returns the first violation as an [`IrError::Verify`], including the
/// offending op's name and printed form.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, DialectRegistry, verify_module};
/// let m = Module::new();
/// verify_module(&m, &DialectRegistry::new())?;
/// # Ok::<(), equeue_ir::IrError>(())
/// ```
pub fn verify_module(module: &Module, registry: &DialectRegistry) -> IrResult<()> {
    Verifier {
        module,
        registry,
        visible: vec![false; module.num_values()],
        introduced: vec![],
    }
    .region(module.top_region())
}

fn op_context(module: &Module, op: OpId) -> String {
    format!("in op '{}'", module.op(op).name)
}

struct Verifier<'a> {
    module: &'a Module,
    registry: &'a DialectRegistry,
    /// Whether each value, by [`ValueId::index`], is visible at the walk's
    /// position.
    visible: Vec<bool>,
    /// The values the regions being walked made visible, innermost last.
    introduced: Vec<ValueId>,
}

impl Verifier<'_> {
    fn is_visible(&self, v: ValueId) -> bool {
        self.visible.get(v.index()).copied().unwrap_or(false)
    }

    fn show(&mut self, v: ValueId) {
        // An id beyond this module's values (a foreign or corrupt id) still
        // becomes visible, as it does for a set.
        if v.index() >= self.visible.len() {
            self.visible.resize(v.index() + 1, false);
        }
        self.visible[v.index()] = true;
        self.introduced.push(v);
    }

    fn region(&mut self, region: RegionId) -> IrResult<()> {
        let mark = self.introduced.len();
        for &block in &self.module.region(region).blocks {
            let block = self.module.block(block);
            for &arg in &block.args {
                self.show(arg);
            }
            let last = block.ops.iter().rposition(|&o| !self.module.op(o).erased);
            for (i, &op) in block.ops.iter().enumerate() {
                if !self.module.op(op).erased {
                    self.op(op, Some(i) == last)?;
                }
            }
        }
        for v in self.introduced.drain(mark..) {
            self.visible[v.index()] = false;
        }
        Ok(())
    }

    fn op(&mut self, op: OpId, is_last: bool) -> IrResult<()> {
        let module = self.module;
        let data = module.op(op);
        for (oi, &operand) in data.operands.iter().enumerate() {
            if !self.is_visible(operand) {
                return Err(IrError::verify(format!(
                    "operand {oi} {} is not visible at its use {}",
                    operand,
                    op_context(module, op)
                )));
            }
            if let ValueDef::OpResult { op: def_op, .. } = module.value(operand).def {
                if module.op(def_op).erased {
                    return Err(IrError::verify(format!(
                        "operand {oi} {} refers to an erased op {}",
                        operand,
                        op_context(module, op)
                    )));
                }
            }
        }
        let info = self.registry.lookup(data.name.as_bytes());
        if info.is_some_and(|i| i.traits.is_terminator) && !is_last {
            return Err(IrError::verify(format!(
                "terminator '{}' is not the last op of its block",
                data.name
            )));
        }
        if let Some(verify) = info.and_then(|i| i.verify) {
            if let Err(msg) = verify(module, op) {
                return Err(IrError::verify(format!("{msg} {}", op_context(module, op))));
            }
        }
        for &r in &data.regions {
            self.region(r)?;
        }
        for &res in &data.results {
            self.show(res);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrMap;
    use crate::registry::OpTraits;
    use crate::types::Type;

    #[test]
    fn empty_module_verifies() {
        assert!(verify_module(&Module::new(), &DialectRegistry::new()).is_ok());
    }

    #[test]
    fn def_before_use_ok() {
        let mut m = Module::new();
        let blk = m.top_block();
        let a = m.create_op("t.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(blk, a);
        let v = m.result(a, 0);
        let u = m.create_op("t.u", vec![v], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, u);
        assert!(verify_module(&m, &DialectRegistry::new()).is_ok());
    }

    #[test]
    fn use_before_def_rejected() {
        let mut m = Module::new();
        let blk = m.top_block();
        let a = m.create_op("t.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        let v = m.result(a, 0);
        let u = m.create_op("t.u", vec![v], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, u);
        m.append_op(blk, a);
        let e = verify_module(&m, &DialectRegistry::new()).unwrap_err();
        assert!(e.to_string().contains("not visible"));
    }

    #[test]
    fn use_of_erased_rejected() {
        let mut m = Module::new();
        let blk = m.top_block();
        let a = m.create_op("t.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(blk, a);
        let v = m.result(a, 0);
        let u = m.create_op("t.u", vec![v], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, u);
        // Erase the def but leave the user: detaching removes it from the
        // block, so visibility fails first; check the message mentions either.
        m.erase_op(a);
        let e = verify_module(&m, &DialectRegistry::new()).unwrap_err();
        let msg = e.to_string();
        assert!(
            msg.contains("not visible") || msg.contains("erased"),
            "{msg}"
        );
    }

    #[test]
    fn outer_value_visible_in_region() {
        let mut m = Module::new();
        let blk = m.top_block();
        let a = m.create_op("t.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(blk, a);
        let v = m.result(a, 0);
        let r = m.new_region(None);
        let ib = m.new_block(r, vec![]);
        let inner = m.create_op("t.u", vec![v], vec![], AttrMap::new(), vec![]);
        m.append_op(ib, inner);
        let outer = m.create_op("t.outer", vec![], vec![], AttrMap::new(), vec![r]);
        m.append_op(blk, outer);
        assert!(verify_module(&m, &DialectRegistry::new()).is_ok());
    }

    #[test]
    fn region_value_not_visible_outside() {
        let mut m = Module::new();
        let blk = m.top_block();
        let r = m.new_region(None);
        let ib = m.new_block(r, vec![]);
        let inner = m.create_op("t.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(ib, inner);
        let v = m.result(inner, 0);
        let outer = m.create_op("t.outer", vec![], vec![], AttrMap::new(), vec![r]);
        m.append_op(blk, outer);
        let u = m.create_op("t.u", vec![v], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, u);
        let e = verify_module(&m, &DialectRegistry::new()).unwrap_err();
        assert!(e.to_string().contains("not visible"));
    }

    #[test]
    fn block_args_visible() {
        let mut m = Module::new();
        let blk = m.top_block();
        let r = m.new_region(None);
        let ib = m.new_block(r, vec![Type::I32]);
        let arg = m.block(ib).args[0];
        let inner = m.create_op("t.u", vec![arg], vec![], AttrMap::new(), vec![]);
        m.append_op(ib, inner);
        let outer = m.create_op("t.outer", vec![], vec![], AttrMap::new(), vec![r]);
        m.append_op(blk, outer);
        assert!(verify_module(&m, &DialectRegistry::new()).is_ok());
    }

    #[test]
    fn terminator_must_be_last() {
        let mut reg = DialectRegistry::new();
        reg.register_op(
            "t.ret",
            OpTraits {
                is_terminator: true,
                ..Default::default()
            },
            None,
        );
        let mut m = Module::new();
        let blk = m.top_block();
        let ret = m.create_op("t.ret", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, ret);
        let after = m.create_op("t.after", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, after);
        let e = verify_module(&m, &reg).unwrap_err();
        assert!(e.to_string().contains("terminator"));
    }

    #[test]
    fn dialect_verifier_invoked() {
        fn needs_kind(m: &Module, op: OpId) -> Result<(), String> {
            if m.op(op).attrs.contains("kind") {
                Ok(())
            } else {
                Err("missing 'kind' attribute".into())
            }
        }
        let mut reg = DialectRegistry::new();
        reg.register_op("t.k", OpTraits::default(), Some(needs_kind));
        let mut m = Module::new();
        let blk = m.top_block();
        let op = m.create_op("t.k", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, op);
        let e = verify_module(&m, &reg).unwrap_err();
        assert!(e.to_string().contains("missing 'kind'"));
    }
}
