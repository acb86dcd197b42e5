//! # equeue-core — the generic EQueue simulation engine
//!
//! This crate is the second half of the paper's contribution (§IV): a
//! generic timed discrete-event simulation engine that directly executes
//! EQueue programs — hardware structure, explicit data movement, and
//! distributed event-based control — intermixed with higher-level dialects
//! (`linalg`, `affine`, `arith`) so a program can be simulated at any stage
//! of its lowering pipeline (Fig. 1).
//!
//! * [`simulate`] / [`simulate_with`] — run a module, returning a
//!   [`SimReport`] with cycles, bandwidth statistics, and a Chrome trace.
//! * [`CompiledModule`] — compile once, simulate many: runs the layout
//!   prepass a single time and hands back a `Send + Sync` handle whose
//!   `simulate(&options)` can be called repeatedly — and concurrently —
//!   with bit-identical results. The entry point for batched design-space
//!   sweeps.
//! * [`SimLibrary`] — the extensible simulator library (§IV-D): external
//!   op implementations (`"mac4"`, …), processor profiles, and memory
//!   factories (including the worked [`CacheBehavior`] example).
//! * [`Machine`] — the elaborated component/buffer/connection model with
//!   schedule queues for contention.
//! * [`Trace`] — operation-level tracing in Chrome Trace Event Format
//!   (§IV-B), visualisable in `chrome://tracing`. A record is 32 bytes of
//!   ids and times, `(name id, row id, category, ts, dur)`; the names live
//!   in one table per run, each processor's name entered once per
//!   component and each op name once, and [`Trace::to_chrome_json`]
//!   escapes each of them once at export. [`Trace::events`] yields
//!   [`TraceEvent`] views that resolve the ids. With [`SimOptions`]
//!   `trace: false`, the disabled path is zero-cost: the trace holds no
//!   tables, and nothing is allocated or formatted on the hot loop.
//!
//! ## Hot-path architecture (dense frames + copy-on-write values)
//!
//! The engine borrows two ideas from compiled-simulation systems (CVC,
//! GSIM): specialise the data layout before the clock starts, and keep
//! per-event work minimal.
//!
//! **Layout prepass.** Before execution, a one-shot prepass numbers every
//! SSA value into a dense *slot* within its frame scope — the innermost
//! enclosing `equeue.launch` body (or the top region). A running frame's
//! environment is a `Vec<Option<SimValue>>` indexed by slot, so value
//! reads/writes are array indexing, never hashing. The same prepass
//! pre-decodes every op into an internal opcode: operand/result slots and
//! parsed attribute scalars (launch/memcpy/read/write segments, loop
//! bounds, constants, cmpi predicates, external-op cycle counts), so the
//! interpreter's inner loop dispatches on a plain enum and never re-parses
//! names or attributes. Malformed ops are decoded to poison values that
//! only raise an error if actually executed, preserving lazy interpreter
//! semantics.
//!
//! **Pooled tables.** The prepass output is a few flat tables, not a tree
//! of small allocations. A decoded op is 32 bytes of ids, slots and
//! scalars; each operand, result and capture list is a `u32` range into
//! one shared slot pool, each scope layout a range into one shared value
//! pool, and launches, loop bounds and convolution shapes live in side
//! tables indexed from the op. Data the module already owns and the engine
//! needs only on rare paths (component kinds and names, memory attributes,
//! op names for traces and errors) is read from the module by op id, not
//! copied. Scope discovery is one walk that fills offset tables, and
//! operand → slot lookup is a reusable value-indexed array, so compiling
//! allocates per table, not per op or scope.
//!
//! **Capture maps.** Each `equeue.launch` carries a pre-computed list of
//! exactly the values its body (transitively) references, as parent-slot →
//! child-slot pairs; spawning an event copies just those.
//!
//! **Copy-on-write tensors.** [`TensorData`] stores elements behind an
//! `Arc`, so the clones the engine performs on every read and every
//! launch-env capture are pointer bumps; writers go through
//! `Arc::make_mut`, which deep-copies only when a payload is shared.
//!
//! None of this changes simulated timing: cycle counts, event counts, and
//! interpreted-op counts are bit-identical to the original
//! `HashMap`-environment interpreter (enforced by the golden counter pins
//! in `tests/golden_cycles.rs`, on both backends).
//!
//! ## Example
//!
//! ```
//! use equeue_ir::{Module, OpBuilder, Type};
//! use equeue_dialect::{EqueueBuilder, kinds};
//! use equeue_core::simulate;
//!
//! // One MAC unit executing one `mac` per cycle, four times.
//! let mut m = Module::new();
//! let blk = m.top_block();
//! let mut b = OpBuilder::at_end(&mut m, blk);
//! let pe = b.create_proc(kinds::MAC);
//! let start = b.control_start();
//! let launch = b.launch(start, pe, &[], vec![]);
//! let mut body = OpBuilder::at_end(b.module_mut(), launch.body);
//! for _ in 0..4 {
//!     body.ext_op("mac", vec![], vec![]);
//! }
//! body.ret(vec![]);
//! let done = launch.done;
//! let mut b = OpBuilder::at_end(&mut m, blk);
//! b.await_all(vec![done]);
//!
//! let report = simulate(&m)?;
//! assert_eq!(report.cycles, 4);
//! println!("{}", report.summary());
//! # Ok::<(), equeue_core::SimError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Robustness gate: the library half of the crate must never panic on
// adversarial input, so `unwrap`/`expect` are denied outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod compiled;
mod engine;
mod error;
mod facts;
pub mod fault;
mod fused;
mod interp;
mod library;
mod machine;
mod plan;
mod profile;
mod queue;
mod signal;
mod snapshot;
mod trace;
mod value;

pub use compiled::CompiledModule;
pub use engine::{simulate, simulate_with, Backend, SimOptions};
pub use error::{CancelToken, LimitExceeded, LimitKind, Progress, RunLimits, SimError};
pub use facts::{analyze_facts, FuseVerdict, LoopFact, PrepassFacts};
pub use fused::FuseDecline;
pub use interp::{apply_binary, apply_cmpi, conv2d_int, matmul_int};
pub use library::{ExtOp, MemFactory, MemSpec, SimLibrary};
pub use machine::{
    AccessKind, BehaviorSnapshot, Buffer, CacheBehavior, Component, ComponentKind, Connection,
    DramBehavior, Machine, MemCounters, Memory, MemoryBehavior, ProcProfile, Processor,
    RegisterBehavior, SramBehavior,
};
pub use profile::{BandwidthStats, BufferDump, ConnReport, MemReport, SimReport};
pub use signal::SignalTable;
pub use snapshot::{Snapshot, FORMAT_VERSION as SNAPSHOT_FORMAT_VERSION};
pub use trace::{Trace, TraceCat, TraceEvent};
pub use value::{BufId, CompId, ConnId, SignalId, SimValue, Tensor, TensorData};
