//! Compile-once / run-many simulation: [`CompiledModule`].
//!
//! [`crate::simulate_with`] re-runs the layout prepass ([§ hot-path
//! architecture](crate)) on every call. That is the right trade-off for a
//! single simulation, but design-space exploration sweeps re-simulate the
//! same module under different options (and batched sweeps run many
//! independent simulations from a thread pool). `CompiledModule` splits
//! compilation from execution so the prepass is paid once:
//!
//! * **compile** — [`CompiledModule::compile`] runs the prepass and captures
//!   `(Module, SimLibrary, Plan)` in one immutable handle.
//! * **run** — [`CompiledModule::simulate`] executes the pre-built plan.
//!   Every run constructs its own engine (machine, signal table, processor
//!   runtimes, frames), so repeated — and *concurrent* — runs are
//!   independent and bit-identical to fresh [`crate::simulate_with`] calls.
//!
//! The handle is `Send + Sync` (statically asserted below): share one
//! `CompiledModule` across a worker pool by reference and call
//! [`CompiledModule::simulate`] from each thread.
//!
//! The captured [`Plan`] also carries the fused loop traces built for the
//! [`crate::Backend::Fused`] execution backend; they are plain immutable
//! data, so the backend remains a **per-run** choice — one compiled handle
//! can serve `Fused` and `Interp` runs concurrently, with bit-identical
//! cycle/event/op counts between them (see `docs/fused-backend.md`).

use crate::engine::{run_with_plan, Backend, SimError, SimOptions};
use crate::library::SimLibrary;
use crate::plan::Plan;
use crate::profile::SimReport;
use crate::snapshot::{resume_with_plan, snapshot_with_plan, Snapshot};
use equeue_ir::Module;
use std::time::Instant;

/// A module compiled for repeated simulation: the layout prepass (`Plan`)
/// is built once and reused by every [`CompiledModule::simulate`] call.
///
/// # Examples
///
/// Compile once, simulate twice (identical reports, one prepass):
///
/// ```
/// use equeue_ir::{Module, OpBuilder};
/// use equeue_dialect::{EqueueBuilder, kinds};
/// use equeue_core::{CompiledModule, SimLibrary, SimOptions};
///
/// let mut m = Module::new();
/// let blk = m.top_block();
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// let pe = b.create_proc(kinds::MAC);
/// let start = b.control_start();
/// let launch = b.launch(start, pe, &[], vec![]);
/// let mut body = OpBuilder::at_end(b.module_mut(), launch.body);
/// body.ext_op("mac", vec![], vec![]);
/// body.ret(vec![]);
/// let done = launch.done;
/// let mut b = OpBuilder::at_end(&mut m, blk);
/// b.await_all(vec![done]);
///
/// let compiled = CompiledModule::compile(m, SimLibrary::standard())?;
/// let opts = SimOptions::default();
/// let first = compiled.simulate(&opts)?;
/// let second = compiled.simulate(&opts)?;
/// assert_eq!(first.cycles, second.cycles);
/// # Ok::<(), equeue_core::SimError>(())
/// ```
///
/// Shared across threads (the handle is `Send + Sync`; all mutable state is
/// per-run):
///
/// ```
/// # use equeue_ir::{Module, OpBuilder};
/// # use equeue_dialect::{EqueueBuilder, kinds};
/// # use equeue_core::{CompiledModule, SimLibrary, SimOptions};
/// # let mut m = Module::new();
/// # let blk = m.top_block();
/// # let mut b = OpBuilder::at_end(&mut m, blk);
/// # let pe = b.create_proc(kinds::MAC);
/// # let start = b.control_start();
/// # let launch = b.launch(start, pe, &[], vec![]);
/// # let mut body = OpBuilder::at_end(b.module_mut(), launch.body);
/// # body.ext_op("mac", vec![], vec![]);
/// # body.ret(vec![]);
/// # let done = launch.done;
/// # let mut b = OpBuilder::at_end(&mut m, blk);
/// # b.await_all(vec![done]);
/// let compiled = CompiledModule::compile(m, SimLibrary::standard()).unwrap();
/// let cycles: Vec<u64> = std::thread::scope(|s| {
///     let handles: Vec<_> = (0..4)
///         .map(|_| s.spawn(|| compiled.simulate(&SimOptions::default()).unwrap().cycles))
///         .collect();
///     handles.into_iter().map(|h| h.join().unwrap()).collect()
/// });
/// assert!(cycles.windows(2).all(|w| w[0] == w[1]));
/// ```
#[derive(Debug)]
pub struct CompiledModule {
    module: Module,
    library: SimLibrary,
    plan: Plan,
}

impl CompiledModule {
    /// Runs the layout prepass on `module` against `library` and captures
    /// both. Strict: a structurally-malformed op anywhere in the module —
    /// even dead code — is reported here as [`SimError::Layout`] instead of
    /// at execution time. (The one-shot [`crate::simulate_with`] path keeps
    /// the historical lazy semantics: malformed ops only fail if executed.)
    ///
    /// # Errors
    ///
    /// [`SimError::Layout`] naming the first malformed op.
    pub fn compile(module: Module, library: SimLibrary) -> Result<Self, SimError> {
        let plan = Plan::build(&module, &library);
        if let Some((op, msg)) = plan.first_invalid(&module) {
            return Err(SimError::Layout {
                op: op.to_string(),
                msg: msg.to_string(),
            });
        }
        Ok(CompiledModule {
            module,
            library,
            plan,
        })
    }

    /// Compiles with the standard library ([`SimLibrary::standard`]).
    ///
    /// # Errors
    ///
    /// See [`CompiledModule::compile`].
    pub fn compile_standard(module: Module) -> Result<Self, SimError> {
        Self::compile(module, SimLibrary::standard())
    }

    /// Parses IR text and compiles it: the full `parse → compile` front
    /// half of the pipeline with every failure surfaced as a typed
    /// [`SimError`].
    ///
    /// # Errors
    ///
    /// [`SimError::Parse`] with 1-based line/column context when the text
    /// is rejected, otherwise see [`CompiledModule::compile`].
    pub fn compile_text(text: &str, library: SimLibrary) -> Result<Self, SimError> {
        let module = equeue_ir::parse_module(text)?;
        Self::compile(module, library)
    }

    /// Simulates the compiled module. Equivalent to
    /// [`crate::simulate_with`] on the captured module and library — same
    /// cycles, events, and interpreted-op counts — minus the per-call
    /// prepass. Takes `&self`: callable repeatedly and from multiple
    /// threads at once.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn simulate(&self, options: &SimOptions) -> Result<SimReport, SimError> {
        run_with_plan(
            &self.module,
            &self.plan,
            &self.library,
            options,
            Instant::now(),
        )
    }

    /// Runs the module up to cycle `at` and captures a [`Snapshot`] of the
    /// complete engine state at that cycle boundary.
    ///
    /// The capture lands at the first scheduler boundary at or after the
    /// requested cycle: every event strictly before it has been processed.
    /// Under [`Backend::Fused`] a cut requested mid-trace lands at the next
    /// trace exit (recorded in [`Snapshot::actual_cut`]). If the program
    /// finishes before the cut, the snapshot records the terminal state and
    /// [`Snapshot::completed`] is `true`.
    ///
    /// # Errors
    ///
    /// Any error the run itself produces (see [`SimError`]).
    pub fn snapshot(&self, at: u64, options: &SimOptions) -> Result<Snapshot, SimError> {
        snapshot_with_plan(
            &self.module,
            &self.plan,
            &self.library,
            at,
            options,
            Instant::now(),
        )
    }

    /// Resumes a [`Snapshot`] and runs it to completion.
    ///
    /// The resulting report is bit-identical (cycles, events, ops, buffer
    /// contents, traffic) to an uninterrupted [`simulate`] of the same
    /// module, regardless of which backend captured the snapshot and which
    /// resumes it — except `execution_time`, which covers only the resumed
    /// window. Counters are run totals continuing from the snapshot. The
    /// wall-clock budget ([`crate::RunLimits::wall_deadline`]) restarts at
    /// the resume; cycle/event budgets continue from the captured counters.
    /// A resumed run always runs to completion. With `trace: true`, the report's waveform covers only
    /// the resumed window: per trace row, a suffix of the full-run
    /// waveform — work already executed or issued at capture time (e.g. a
    /// DMA transfer in flight across the cut) belongs to the pre-cut leg.
    ///
    /// [`simulate`]: CompiledModule::simulate
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] when the snapshot does not match this module;
    /// otherwise any error the resumed run produces (see [`SimError`]).
    pub fn resume(&self, snapshot: &Snapshot, options: &SimOptions) -> Result<SimReport, SimError> {
        resume_with_plan(
            &self.module,
            &self.plan,
            &self.library,
            options,
            Instant::now(),
            snapshot,
        )
    }

    /// The compiled module.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The captured simulator library.
    pub fn library(&self) -> &SimLibrary {
        &self.library
    }
}

// Concurrency audit, enforced at compile time: the shared, read-only side of
// a simulation — the IR, the pre-decoded plan (op table, scope layouts,
// capture maps), and the library — must be `Send + Sync` so one
// `CompiledModule` can back a thread pool. All mutable state (machine,
// signals, frames, processor runtimes) lives in the per-run engine.
const _: () = {
    const fn _send_sync<T: Send + Sync>() {}
    _send_sync::<CompiledModule>();
    _send_sync::<Module>();
    _send_sync::<Plan>();
    _send_sync::<SimLibrary>();
    _send_sync::<SimOptions>();
    _send_sync::<Backend>();
    _send_sync::<crate::CancelToken>();
    _send_sync::<crate::RunLimits>();
    _send_sync::<SimError>();
    _send_sync::<Snapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_dialect::{kinds, EqueueBuilder};
    use equeue_ir::OpBuilder;

    fn chain_module(n: usize) -> Module {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let mut dep = b.control_start();
        for _ in 0..n {
            let l = b.launch(dep, pe, &[], vec![]);
            {
                let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
                ib.ext_op("mac", vec![], vec![]);
                ib.ret(vec![]);
            }
            dep = l.done;
            b = OpBuilder::at_end(&mut m, blk);
        }
        b.await_all(vec![dep]);
        m
    }

    #[test]
    fn repeated_runs_match_fresh_simulation() {
        let m = chain_module(10);
        let opts = SimOptions {
            trace: false,
            ..Default::default()
        };
        let fresh = crate::simulate_with(&m, &SimLibrary::standard(), &opts).unwrap();
        let compiled = CompiledModule::compile(m, SimLibrary::standard()).unwrap();
        for _ in 0..3 {
            let r = compiled.simulate(&opts).unwrap();
            assert_eq!(r.cycles, fresh.cycles);
            assert_eq!(r.events_processed, fresh.events_processed);
            assert_eq!(r.ops_interpreted, fresh.ops_interpreted);
        }
    }

    #[test]
    fn concurrent_runs_are_bit_identical() {
        let compiled = CompiledModule::compile_standard(chain_module(20)).unwrap();
        let opts = SimOptions::default();
        let baseline = compiled.simulate(&opts).unwrap();
        let results: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let r = compiled.simulate(&opts).unwrap();
                        (r.cycles, r.events_processed, r.ops_interpreted)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (cycles, events, ops) in results {
            assert_eq!(cycles, baseline.cycles);
            assert_eq!(events, baseline.events_processed);
            assert_eq!(ops, baseline.ops_interpreted);
        }
    }

    #[test]
    fn accessors_round_trip() {
        let m = chain_module(2);
        let n_ops = m.num_ops();
        let compiled = CompiledModule::compile_standard(m).unwrap();
        assert_eq!(compiled.module().num_ops(), n_ops);
        assert_eq!(compiled.library().ext_op("mac").unwrap().cycles, 1);
    }

    #[test]
    fn per_run_options_respected() {
        // One compile, different options per run: tracing on/off must not
        // change timing, and a tiny wake budget must fail only that run.
        let compiled = CompiledModule::compile_standard(chain_module(10)).unwrap();
        let loud = compiled
            .simulate(&SimOptions {
                trace: true,
                ..Default::default()
            })
            .unwrap();
        let quiet = compiled
            .simulate(&SimOptions {
                trace: false,
                ..Default::default()
            })
            .unwrap();
        assert_eq!(loud.cycles, quiet.cycles);
        assert!(!loud.trace.is_empty());
        assert!(quiet.trace.is_empty());
        let starved = compiled.simulate(&SimOptions {
            trace: false,
            limits: crate::RunLimits {
                max_events: 2,
                ..Default::default()
            },
            ..Default::default()
        });
        assert!(matches!(starved, Err(SimError::Limit(_))));
        // The handle is unharmed by the failed run.
        assert_eq!(
            compiled.simulate(&SimOptions::default()).unwrap().cycles,
            loud.cycles
        );
    }

    #[test]
    fn backend_is_a_per_run_choice() {
        // One compiled handle serves both execution backends; counters
        // must be bit-identical between them.
        let compiled = CompiledModule::compile_standard(chain_module(10)).unwrap();
        let run = |backend| {
            let r = compiled
                .simulate(&SimOptions {
                    trace: false,
                    backend,
                    ..Default::default()
                })
                .unwrap();
            (r.cycles, r.events_processed, r.ops_interpreted)
        };
        assert_eq!(run(Backend::Fused), run(Backend::Interp));
    }
}
