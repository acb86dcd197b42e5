//! The pass framework: named module-to-module transformations and a
//! [`PassManager`] that runs pipelines and verifies the module after every
//! pass.
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
    /// Creates a pass manager that verifies the module after every pass
    /// using `registry`.
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
    /// # Errors
    ///
    /// Stops at the first failing pass or failed verification, wrapping
    /// verification failures with the offending pass name.
    pub fn run(&mut self, module: &mut Module) -> IrResult<()> {
        for pass in &mut self.passes {
            pass.run(module)?;
            verify_module(module, &self.registry).map_err(|e| {
                IrError::pass(pass.name(), format!("post-pass verification failed: {e}"))
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrMap;
    use crate::builder::OpBuilder;

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
