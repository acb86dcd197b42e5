//! # equeue-ir — a self-contained multi-level IR kernel
//!
//! This crate is the hosting substrate for the EQueue simulation stack, a
//! Rust reproduction of *Compiler-Driven Simulation of Reconfigurable
//! Hardware Accelerators* (HPCA 2022). The paper embeds its EQueue dialect
//! in MLIR; since no mature MLIR bindings exist for Rust, this crate
//! reimplements the essential MLIR machinery the paper relies on:
//!
//! * generic **operations** carrying operands, results, attributes and
//!   nested regions ([`Module`], [`Operation`]);
//! * **SSA values** with use-def queries and replacement;
//! * a fluent **builder** API ([`OpBuilder`]) used by the paper's
//!   accelerator generators (§VI-B);
//! * a deterministic textual **printer** ([`print_module`]) and a matching
//!   **parser** ([`parse_module`]);
//! * a **verifier** ([`verify_module`]) driven by a [`DialectRegistry`] of
//!   per-op metadata;
//! * a **pass framework** ([`Pass`], [`PassManager`]) hosting the reusable
//!   lowering passes of §V;
//! * a **rewrite utility** ([`dce`]) shared by those passes.
//!
//! Dialect definitions (arith, affine, linalg, and the EQueue dialect
//! itself) live in the `equeue-dialect` crate; the discrete-event simulation
//! engine that executes EQueue programs lives in `equeue-core`.
//!
//! ## Example
//!
//! ```
//! use equeue_ir::{Module, OpBuilder, Type, print_module, parse_module};
//!
//! // Build a tiny program …
//! let mut m = Module::new();
//! let block = m.top_block();
//! let mut b = OpBuilder::at_end(&mut m, block);
//! let c = b.op("arith.constant").attr("value", 4i64)
//!     .named_result(Type::I32, "four").finish();
//! let v = b.module().result(c, 0);
//! b.op("test.use").operand(v).finish();
//!
//! // … print it, and parse it back.
//! let text = print_module(&m);
//! let reparsed = parse_module(&text)?;
//! assert_eq!(print_module(&reparsed), text);
//! # Ok::<(), equeue_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod attr;
mod builder;
mod error;
mod hash;
mod inline;
mod module;
mod parser;
mod printer;
mod registry;
mod rewrite;
mod types;
mod verify;

pub mod pass;

pub use attr::{Attr, AttrMap};
pub use builder::{OpBuilder, OpSpec};
pub use error::{IrError, IrResult};
pub use inline::{IdVec, IdVecIntoIter, Name};
pub use module::{
    Block, BlockId, Module, OpId, Operation, Region, RegionId, ValueData, ValueDef, ValueId,
};
pub use parser::{parse_module, parse_type};
pub use pass::{Pass, PassManager};
pub use printer::print_module;
pub use registry::{DialectRegistry, OpInfo, OpTraits, VerifyFn};
pub use rewrite::dce;
pub use types::Type;
pub use verify::verify_module;

#[cfg(test)]
mod send_sync_tests {
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn core_types_are_send_sync() {
        assert_send::<Module>();
        assert_sync::<Module>();
        assert_send::<DialectRegistry>();
        assert_sync::<DialectRegistry>();
        assert_send::<Type>();
        assert_send::<Attr>();
        assert_send::<IrError>();
    }
}
