//! The dialect registry: dialect-provided op metadata and verifiers.
//!
//! Dialects register one [`OpInfo`] per operation name. The registry is what
//! keeps the IR kernel generic — the kernel never hard-codes EQueue (or any
//! other dialect) semantics; it only consults hooks registered here.

use crate::hash::FxHashMap;
use crate::module::{Module, OpId};

/// Per-op verification hook; returns a human-readable error on violation.
pub type VerifyFn = fn(&Module, OpId) -> Result<(), String>;

/// Declarative properties of an operation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTraits {
    /// Must appear last in its block (e.g. `equeue.return`, `affine.yield`).
    pub is_terminator: bool,
    /// Has no side effects; erasable when results are unused.
    pub is_pure: bool,
}

/// Registered metadata for one operation name.
#[derive(Debug, Clone)]
pub struct OpInfo {
    /// Fully-qualified op name (`"equeue.launch"`).
    pub name: String,
    /// Declarative traits.
    pub traits: OpTraits,
    /// Optional structural verifier.
    pub verify: Option<VerifyFn>,
}

/// A registry of known operations, usually populated by dialect crates.
///
/// # Examples
///
/// ```
/// use equeue_ir::{DialectRegistry, OpInfo, OpTraits};
/// let mut reg = DialectRegistry::new();
/// reg.register(OpInfo {
///     name: "test.pure".into(),
///     traits: OpTraits { is_pure: true, ..Default::default() },
///     verify: None,
/// });
/// assert!(reg.get("test.pure").is_some());
/// assert!(reg.traits("test.pure").is_pure);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DialectRegistry {
    /// Keyed by the name's bytes, so an op's [`Name`](crate::Name) is looked
    /// up without the UTF-8 check its `as_str` makes.
    ops: FxHashMap<Box<[u8]>, OpInfo>,
}

impl DialectRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) op metadata.
    pub fn register(&mut self, info: OpInfo) {
        self.ops.insert(info.name.as_bytes().into(), info);
    }

    /// Convenience: registers a name with traits and an optional verifier.
    pub fn register_op(&mut self, name: &str, traits: OpTraits, verify: Option<VerifyFn>) {
        self.register(OpInfo {
            name: name.to_string(),
            traits,
            verify,
        });
    }

    /// Metadata for `name`, if registered.
    pub fn get(&self, name: &str) -> Option<&OpInfo> {
        self.lookup(name.as_bytes())
    }

    /// Metadata for the op name spelled by `name`, if registered.
    pub(crate) fn lookup(&self, name: &[u8]) -> Option<&OpInfo> {
        self.ops.get(name)
    }

    /// Traits for `name`; unknown ops get default (all-false) traits.
    pub fn traits(&self, name: &str) -> OpTraits {
        self.get(name).map(|i| i.traits).unwrap_or_default()
    }

    /// Whether any op of this name has been registered.
    pub fn knows(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Runs the registered verifier for `op`, if any.
    pub fn verify_op(&self, module: &Module, op: OpId) -> Result<(), String> {
        if let Some(info) = self.lookup(module.op(op).name.as_bytes()) {
            if let Some(v) = info.verify {
                return v(module, op);
            }
        }
        Ok(())
    }

    /// Number of registered op kinds.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrMap;

    fn reject_all(_: &Module, _: OpId) -> Result<(), String> {
        Err("always rejected".into())
    }

    #[test]
    fn register_and_query() {
        let mut reg = DialectRegistry::new();
        assert!(reg.is_empty());
        reg.register_op(
            "t.a",
            OpTraits {
                is_terminator: true,
                ..Default::default()
            },
            None,
        );
        assert_eq!(reg.len(), 1);
        assert!(reg.knows("t.a"));
        assert!(reg.traits("t.a").is_terminator);
        assert!(!reg.traits("t.unknown").is_terminator);
    }

    #[test]
    fn verify_dispatch() {
        let mut m = Module::new();
        let blk = m.top_block();
        let good = m.create_op("t.good", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, good);
        let bad = m.create_op("t.bad", vec![], vec![], AttrMap::new(), vec![]);
        m.append_op(blk, bad);

        let mut reg = DialectRegistry::new();
        reg.register_op("t.bad", OpTraits::default(), Some(reject_all));
        assert!(reg.verify_op(&m, good).is_ok());
        assert_eq!(reg.verify_op(&m, bad).unwrap_err(), "always rejected");
    }
}
