//! # equeue-dialect — dialect definitions for the EQueue stack
//!
//! Four dialects, mirroring the ones the paper's lowering pipeline uses
//! (Fig. 1):
//!
//! * [`arith`] — scalar arithmetic mixed into launch blocks;
//! * [`affine`] — explicit loop nests with loads/stores (plus a tiny
//!   `memref` allocation op);
//! * [`linalg`] — whole-tensor named ops, the highest abstraction level;
//! * [`equeue`] — the paper's contribution: hardware structure, explicit
//!   data movement, and distributed event-based control.
//!
//! Each dialect contributes fluent builder extension traits
//! ([`ArithBuilder`], [`AffineBuilder`], [`LinalgBuilder`],
//! [`EqueueBuilder`]) over [`equeue_ir::OpBuilder`], per-op verifiers, and
//! registration into an [`equeue_ir::DialectRegistry`] via
//! [`standard_registry`].
//!
//! ## Example
//!
//! ```
//! use equeue_ir::{Module, OpBuilder, Type, verify_module};
//! use equeue_dialect::{standard_registry, EqueueBuilder, kinds};
//!
//! let mut m = Module::new();
//! let blk = m.top_block();
//! let mut b = OpBuilder::at_end(&mut m, blk);
//! let pe = b.create_proc(kinds::MAC);
//! let start = b.control_start();
//! let launch = b.launch(start, pe, &[], vec![]);
//! let mut body = OpBuilder::at_end(b.module_mut(), launch.body);
//! body.ret(vec![]);
//! verify_module(&m, &standard_registry())?;
//! # Ok::<(), equeue_ir::IrError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod affine;
pub mod arith;
pub mod equeue;
pub mod linalg;
mod registry;

pub use affine::AffineBuilder;
pub use arith::{ArithBuilder, CmpPred};
pub use equeue::{
    buffer_origin, create_mem_view, kinds, launch_view, memcpy_view, read_view, resolve_def,
    write_view, BufferOrigin, ConnKind, EqueueBuilder, LaunchParts, LaunchView, MemView,
    MemcpyView, ReadView, WriteView, MAX_MEM_PORTS,
};
pub use linalg::{conv2d_dims, ConvDims, LinalgBuilder};
pub use registry::{register_into, standard_registry};
