//! Rewriting utilities shared by lowering passes: dead-code elimination.

use crate::module::Module;
use crate::registry::DialectRegistry;

/// Erases live ops whose registered traits say `is_pure` and whose results
/// are all unused. Iterates to a fixed point; returns the number of erased
/// ops.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, OpBuilder, Type, DialectRegistry, OpTraits, dce};
/// let mut reg = DialectRegistry::new();
/// reg.register_op("t.pure", OpTraits { is_pure: true, ..Default::default() }, None);
/// let mut m = Module::new();
/// let blk = m.top_block();
/// OpBuilder::at_end(&mut m, blk).op("t.pure").result(Type::I32).finish();
/// assert_eq!(dce(&mut m, &reg), 1);
/// ```
pub fn dce(module: &mut Module, registry: &DialectRegistry) -> usize {
    let mut erased_total = 0;
    loop {
        let uses = module.collect_uses();
        let mut to_erase = vec![];
        module.walk(|op| {
            let data = module.op(op);
            if !registry.traits(&data.name).is_pure {
                return;
            }
            let unused = data
                .results
                .iter()
                .all(|r| uses.get(r).map(|u| u.is_empty()).unwrap_or(true));
            if unused {
                to_erase.push(op);
            }
        });
        if to_erase.is_empty() {
            break;
        }
        erased_total += to_erase.len();
        for op in to_erase {
            if !module.op(op).erased {
                module.erase_op(op);
            }
        }
    }
    erased_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OpBuilder;
    use crate::registry::OpTraits;
    use crate::types::Type;

    fn pure_registry() -> DialectRegistry {
        let mut reg = DialectRegistry::new();
        reg.register_op(
            "t.pure",
            OpTraits {
                is_pure: true,
                ..Default::default()
            },
            None,
        );
        reg
    }

    #[test]
    fn dce_erases_chains() {
        let reg = pure_registry();
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let a = b.op("t.pure").result(Type::I32).finish_value();
        b.op("t.pure").operand(a).result(Type::I32).finish();
        // Both are pure; the second is unused, then the first becomes unused.
        assert_eq!(dce(&mut m, &reg), 2);
        assert_eq!(m.live_ops().count(), 0);
    }

    #[test]
    fn dce_keeps_used_and_impure() {
        let reg = pure_registry();
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let a = b.op("t.pure").result(Type::I32).finish_value();
        b.op("t.effect").operand(a).finish();
        assert_eq!(dce(&mut m, &reg), 0);
        assert_eq!(m.live_ops().count(), 2);
    }
}
