//! The pass framework: named module-to-module transformations and a
//! [`PassManager`] that runs pipelines and verifies the module after every
//! pass that changed it.
//!
//! Verification after a pass is skipped when the pass cannot have changed
//! the module. Each [`Module`] carries a private edit stamp that every one
//! of its `&mut self` methods moves, even a call that changes nothing; a
//! new module and a clone each start a stamp of their own, so assigning
//! another module or restoring a saved clone never shows a stamp seen
//! before. [`PassManager::run`] always verifies after the first pass, and
//! after a later one only when the stamp differs from the one its last
//! successful verification in the same run saw. A pass that only reads
//! the module (a recipe step with nothing to lower) costs no second walk.
//! MLIR's pass manager does the same: it skips the verifier after a pass
//! that reports it preserved all analyses.
//!
//! The reusable lowering passes of the paper's §V (implemented in the
//! `equeue-passes` crate) all plug in through the [`Pass`] trait defined
//! here; composing them with different parameters is how designers switch
//! between dataflows (§VI-D).

use crate::error::{IrError, IrResult};
use crate::module::Module;
use crate::registry::DialectRegistry;
use crate::verify::verify_module;

/// A module transformation.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, Pass, IrResult};
/// struct StripAttrs;
/// impl Pass for StripAttrs {
///     fn name(&self) -> &str { "strip-attrs" }
///     fn run(&mut self, m: &mut Module) -> IrResult<()> {
///         let ops: Vec<_> = m.live_ops().collect();
///         for op in ops { m.op_mut(op).attrs = Default::default(); }
///         Ok(())
///     }
/// }
/// ```
pub trait Pass {
    /// Stable kebab-case pass name used in diagnostics (`"equeue-read-write"`).
    fn name(&self) -> &str;

    /// Applies the transformation.
    ///
    /// # Errors
    ///
    /// Implementations should return [`IrError::Pass`] when preconditions do
    /// not hold (e.g. a named component is missing).
    fn run(&mut self, module: &mut Module) -> IrResult<()>;
}

/// Runs a sequence of passes over a module.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Module, PassManager, DialectRegistry};
/// let mut pm = PassManager::new(DialectRegistry::new());
/// let mut m = Module::new();
/// pm.run(&mut m)?;
/// assert!(pm.pipeline().is_empty());
/// # Ok::<(), equeue_ir::IrError>(())
/// ```
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    registry: DialectRegistry,
}

impl std::fmt::Debug for PassManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PassManager")
            .field(
                "passes",
                &self
                    .passes
                    .iter()
                    .map(|p| p.name().to_string())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl PassManager {
    /// Creates a pass manager that verifies the module with `registry`
    /// after every pass that changed it; see the [module docs](self).
    pub fn new(registry: DialectRegistry) -> Self {
        PassManager {
            passes: vec![],
            registry,
        }
    }

    /// Appends a pass to the pipeline.
    pub fn add(&mut self, pass: impl Pass + 'static) -> &mut Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Names of the scheduled passes, in order.
    pub fn pipeline(&self) -> Vec<&str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Runs the pipeline.
    ///
    /// The module is verified after the first pass and after every later
    /// pass that moved its edit stamp since the last successful
    /// verification of this run; see the [module docs](self).
    ///
    /// # Errors
    ///
    /// Stops at the first failing pass or failed verification, wrapping
    /// verification failures with the offending pass name.
    pub fn run(&mut self, module: &mut Module) -> IrResult<()> {
        let mut verified = None;
        for pass in &mut self.passes {
            pass.run(module)?;
            if verified != Some(module.stamp()) {
                verify_module(module, &self.registry).map_err(|e| {
                    IrError::pass(pass.name(), format!("post-pass verification failed: {e}"))
                })?;
                verified = Some(module.stamp());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrMap;
    use crate::builder::OpBuilder;
    use crate::module::{OpId, ValueId};
    use crate::registry::OpTraits;
    use crate::types::Type;
    use std::cell::Cell;
    use std::collections::HashMap;

    struct AddOp(&'static str);
    impl Pass for AddOp {
        fn name(&self) -> &str {
            "add-op"
        }
        fn run(&mut self, m: &mut Module) -> IrResult<()> {
            let blk = m.top_block();
            let mut b = OpBuilder::at_end(m, blk);
            b.op(self.0).finish();
            Ok(())
        }
    }

    struct Failing;
    impl Pass for Failing {
        fn name(&self) -> &str {
            "failing"
        }
        fn run(&mut self, _m: &mut Module) -> IrResult<()> {
            Err(IrError::pass("failing", "on purpose"))
        }
    }

    struct Corrupting;
    impl Pass for Corrupting {
        fn name(&self) -> &str {
            "corrupting"
        }
        fn run(&mut self, m: &mut Module) -> IrResult<()> {
            // Create an op that uses a value defined *after* it.
            let blk = m.top_block();
            let def = m.create_op(
                "t.def",
                vec![],
                vec![crate::types::Type::I32],
                AttrMap::new(),
                vec![],
            );
            let v = m.result(def, 0);
            let user = m.create_op("t.use", vec![v], vec![], AttrMap::new(), vec![]);
            m.append_op(blk, user);
            m.append_op(blk, def);
            Ok(())
        }
    }

    thread_local! {
        /// Calls of [`count`] on this thread: one per verification of a
        /// module holding a single `t.count` op.
        static HOOK_CALLS: Cell<usize> = const { Cell::new(0) };
    }

    fn count(_: &Module, _: OpId) -> Result<(), String> {
        HOOK_CALLS.with(|c| c.set(c.get() + 1));
        Ok(())
    }

    /// An empty pass manager whose registry counts how often `t.count` is
    /// verified.
    fn counting() -> PassManager {
        let mut reg = DialectRegistry::new();
        reg.register_op("t.count", OpTraits::default(), Some(count));
        PassManager::new(reg)
    }

    /// Runs `pm` over `m` and returns how many times the hook was called.
    fn hook_calls(pm: &mut PassManager, m: &mut Module) -> usize {
        HOOK_CALLS.with(|c| c.set(0));
        pm.run(m).unwrap();
        HOOK_CALLS.with(Cell::get)
    }

    /// `t.count` (op 0, result value 0) and a user of its result (op 2)
    /// in the top block, plus a detached `t.spare` (op 1).
    fn counted() -> Module {
        let mut m = Module::new();
        let blk = m.top_block();
        let def = m.create_op("t.count", vec![], vec![Type::I32], AttrMap::new(), vec![]);
        m.append_op(blk, def);
        m.create_op("t.spare", vec![], vec![], AttrMap::new(), vec![]);
        let v = m.result(def, 0);
        let user = m.create_op("t.user", vec![v], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, user);
        m
    }

    struct Noop;
    impl Pass for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn run(&mut self, _m: &mut Module) -> IrResult<()> {
            Ok(())
        }
    }

    struct Mutate(fn(&mut Module));
    impl Pass for Mutate {
        fn name(&self) -> &str {
            "mutate"
        }
        fn run(&mut self, m: &mut Module) -> IrResult<()> {
            (self.0)(m);
            Ok(())
        }
    }

    /// Replaces the module with the one it holds.
    struct Replace(Option<Module>);
    impl Pass for Replace {
        fn name(&self) -> &str {
            "replace"
        }
        fn run(&mut self, m: &mut Module) -> IrResult<()> {
            if let Some(other) = self.0.take() {
                *m = other;
            }
            Ok(())
        }
    }

    #[test]
    fn first_pass_always_verifies() {
        let mut m = counted();
        assert_eq!(hook_calls(counting().add(Noop), &mut m), 1);
        // A new run verifies again, though the module did not change.
        assert_eq!(hook_calls(counting().add(Noop), &mut m), 1);
    }

    #[test]
    fn unchanged_module_is_not_verified_again() {
        let mut pm = counting();
        pm.add(AddOp("t.one"))
            .add(Noop)
            .add(Noop)
            .add(AddOp("t.two"))
            .add(Noop);
        assert_eq!(hook_calls(&mut pm, &mut counted()), 2);
    }

    #[test]
    fn each_mutator_forces_the_next_verification() {
        type Mutator = (&'static str, fn(&mut Module));
        let mutators: [Mutator; 12] = [
            ("new_region", |m| {
                m.new_region(None);
            }),
            ("new_block", |m| {
                m.new_block(m.top_region(), vec![]);
            }),
            ("create_op", |m| {
                m.create_op("t.x", vec![], vec![], AttrMap::new(), vec![]);
            }),
            ("append_op", |m| m.append_op(m.top_block(), OpId(1))),
            ("insert_op", |m| m.insert_op(m.top_block(), 0, OpId(1))),
            ("op_mut", |m| {
                m.op_mut(OpId(0));
            }),
            ("set_value_name", |m| m.set_value_name(ValueId(0), "v")),
            ("replace_all_uses", |m| {
                m.replace_all_uses(ValueId(0), ValueId(0))
            }),
            ("set_operand", |m| m.set_operand(OpId(2), 0, ValueId(0))),
            ("detach_op", |m| m.detach_op(OpId(2))),
            ("erase_op", |m| m.erase_op(OpId(2))),
            ("clone_op", |m| {
                m.clone_op(OpId(2), &mut HashMap::new());
            }),
        ];
        for (name, f) in mutators {
            let mut pm = counting();
            pm.add(Noop).add(Mutate(f));
            assert_eq!(hook_calls(&mut pm, &mut counted()), 2, "{name}");
        }
    }

    #[test]
    fn new_module_is_verified() {
        // Built by the same calls as the module verified before it.
        let mut pm = counting();
        pm.add(Noop).add(Replace(Some(counted())));
        assert_eq!(hook_calls(&mut pm, &mut counted()), 2);
    }

    #[test]
    fn restored_clone_is_verified() {
        // A clone keeps the edit count, and both copies are edited as
        // often after it is taken; the clone is put back once the module
        // was verified.
        let mut m = counted();
        let mut saved = m.clone();
        let blk = saved.top_block();
        let extra = saved.create_op("t.count", vec![], vec![], AttrMap::new(), vec![]);
        saved.append_op(blk, extra);
        let other = m.create_op("t.other", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, other);
        let mut pm = counting();
        pm.add(Noop).add(Replace(Some(saved)));
        assert_eq!(hook_calls(&mut pm, &mut m), 1 + 2);
    }

    #[test]
    fn corruption_after_a_no_op_pass_is_caught() {
        let mut pm = PassManager::new(DialectRegistry::new());
        pm.add(Noop).add(Corrupting);
        let e = pm.run(&mut Module::new()).unwrap_err();
        assert!(e.to_string().contains("post-pass verification failed"));
        assert!(e.to_string().contains("corrupting"));
    }

    #[test]
    fn runs_in_order() {
        let mut pm = PassManager::new(DialectRegistry::new());
        pm.add(AddOp("t.one")).add(AddOp("t.two"));
        assert_eq!(pm.pipeline(), vec!["add-op", "add-op"]);
        let mut m = Module::new();
        pm.run(&mut m).unwrap();
        let top = &m.block(m.top_block()).ops;
        let names: Vec<_> = top.iter().map(|&op| m.op(op).name.to_string()).collect();
        assert_eq!(names, ["t.one", "t.two"]);
    }

    #[test]
    fn failing_pass_stops_pipeline() {
        let mut pm = PassManager::new(DialectRegistry::new());
        pm.add(Failing).add(AddOp("t.unreached"));
        let mut m = Module::new();
        let e = pm.run(&mut m).unwrap_err();
        assert!(e.to_string().contains("on purpose"));
        assert_eq!(m.find_all("t.unreached").len(), 0);
    }

    #[test]
    fn verification_catches_corruption() {
        let mut pm = PassManager::new(DialectRegistry::new());
        pm.add(Corrupting);
        let mut m = Module::new();
        let e = pm.run(&mut m).unwrap_err();
        assert!(e.to_string().contains("post-pass verification failed"));
    }
}
