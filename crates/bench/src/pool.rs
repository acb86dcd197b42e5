//! A dependency-free std-thread worker pool for embarrassingly parallel
//! batches.
//!
//! The Fig. 12 design-space sweep runs hundreds of *independent*
//! simulations; with [`crate::run_quiet`] dominating wall-clock, sharding
//! them across cores is the standard bulk-synchronous route to sweep
//! throughput (cf. Manticore, GSIM). The workspace carries zero external
//! dependencies, so instead of rayon this module provides one primitive
//! family: [`run_batch_status`], a scoped thread pool pulling work items
//! off a shared atomic index, plus the infallible wrapper [`run_batch`].
//!
//! Robustness: every work item runs under `catch_unwind`, so one panicking
//! point surfaces as [`PointStatus::Failed`] for that item — it cannot
//! poison slots, drop results, or stall the rest of the batch. A
//! [`CancelToken`] is checked before each claim, so a cancelled sweep stops
//! promptly and reports the unrun points as [`PointStatus::Cancelled`].
//!
//! Determinism: results are stored by input index, so the output order — and
//! therefore every aggregate computed from it — is identical at any job
//! count, including `jobs == 1` (which short-circuits to a plain sequential
//! loop on the caller's thread). Only wall-clock changes with `jobs`.

use equeue_core::CancelToken;
use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (the `--jobs` default); 1 when the
/// runtime cannot tell.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Resolves a requested job count: `0` means "use [`default_jobs`]" — the
/// convention the `--jobs` flags use for "not specified".
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        default_jobs()
    } else {
        requested
    }
}

/// Parses the value token following a `--jobs` flag for the bench binaries
/// (`program` names the binary in the diagnostic). **Exits the process with
/// status 2** on a missing or malformed value — CLI-argument handling, not
/// for library use.
pub fn parse_jobs_arg(program: &str, value: Option<String>) -> usize {
    let v = value.unwrap_or_default();
    v.parse().unwrap_or_else(|_| {
        eprintln!("{program}: --jobs needs a number, got '{v}'");
        std::process::exit(2);
    })
}

/// The per-item outcome of a batched run: every input index gets exactly
/// one status, in input order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointStatus<R> {
    /// The item completed and produced a result.
    Done(R),
    /// The item failed (its closure reported an error or panicked); the
    /// message describes why.
    Failed(String),
    /// The item never ran because the batch was cancelled first.
    Cancelled,
}

impl<R> PointStatus<R> {
    /// The result, if this point completed.
    pub fn done(&self) -> Option<&R> {
        match self {
            PointStatus::Done(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this point completed.
    pub fn is_done(&self) -> bool {
        matches!(self, PointStatus::Done(_))
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked (non-string payload)".to_string()
    }
}

/// Applies `f` to every item on a pool of `jobs` worker threads
/// (`jobs == 0` → [`default_jobs`]), returning one [`PointStatus`] per item
/// **in input order**.
///
/// Work is distributed dynamically: each worker claims the next unclaimed
/// index from a shared atomic counter, so long-running items (large sweep
/// points) do not stall a statically assigned shard. `f` must be freely
/// callable from several threads at once — which [`equeue_core`] guarantees
/// for simulation, since a [`equeue_core::CompiledModule`] and everything
/// else a run reads are `Send + Sync` and all mutable state is per-run.
///
/// Each call to `f` runs under `catch_unwind`: a panic becomes
/// [`PointStatus::Failed`] carrying the panic message, and the rest of the
/// batch is unaffected. When `cancel` is set, workers check it before each
/// claim; items never claimed end as [`PointStatus::Cancelled`].
///
/// # Examples
///
/// ```
/// use equeue_bench::pool::{run_batch_status, PointStatus};
/// let st = run_batch_status(2, &[1u64, 2, 3], None, |&x| PointStatus::Done(x * x));
/// assert_eq!(st[2], PointStatus::Done(9));
/// ```
pub fn run_batch_status<T, R, F>(
    jobs: usize,
    items: &[T],
    cancel: Option<&CancelToken>,
    f: F,
) -> Vec<PointStatus<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> PointStatus<R> + Sync,
{
    let jobs = resolve_jobs(jobs).min(items.len());
    let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
    let run_one = |item: &T| -> PointStatus<R> {
        match catch_unwind(AssertUnwindSafe(|| f(item))) {
            Ok(st) => st,
            Err(payload) => PointStatus::Failed(panic_message(payload.as_ref())),
        }
    };
    if jobs <= 1 {
        return items
            .iter()
            .map(|item| {
                if cancelled() {
                    PointStatus::Cancelled
                } else {
                    run_one(item)
                }
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    // One slot per item: workers write results home by index, so no
    // cross-thread contention beyond the claim counter and the final
    // collection preserves input order. Slots left `None` (possible only
    // after cancellation) collect as `Cancelled`.
    let slots: Vec<Mutex<Option<PointStatus<R>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                if cancelled() {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let st = run_one(item);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(st);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .ok()
                .flatten()
                .unwrap_or(PointStatus::Cancelled)
        })
        .collect()
}

/// Applies `f` to every item on a pool of `jobs` worker threads, returning
/// the results **in input order**. Infallible wrapper over
/// [`run_batch_status`] for closures that cannot fail.
///
/// A panic in `f` no longer kills the batch mid-flight: the remaining items
/// all complete, then the first panic message is re-raised on the caller's
/// thread — no result slot is ever silently dropped.
///
/// # Panics
///
/// Re-raises (with its message) the first panic any work item produced.
///
/// # Examples
///
/// ```
/// let squares = equeue_bench::pool::run_batch(4, &[1u64, 2, 3, 4, 5], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn run_batch<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let statuses = run_batch_status(jobs, items, None, |item| PointStatus::Done(f(item)));
    let mut out = Vec::with_capacity(statuses.len());
    for (i, st) in statuses.into_iter().enumerate() {
        match st {
            PointStatus::Done(r) => out.push(r),
            PointStatus::Failed(msg) => panic!("batch item {i} panicked: {msg}"),
            // Unreachable without a cancel token, but keep the message
            // honest if that ever changes.
            PointStatus::Cancelled => panic!("batch item {i} never ran"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order_at_any_job_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(
                run_batch(jobs, &items, |&x| x * 3 + 1),
                expect,
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert_eq!(resolve_jobs(0), default_jobs());
        assert_eq!(resolve_jobs(3), 3);
        assert!(default_jobs() >= 1);
        assert_eq!(run_batch(0, &[1, 2, 3], |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_tiny_batches() {
        let empty: Vec<u32> = vec![];
        assert_eq!(run_batch(8, &empty, |&x| x), Vec::<u32>::new());
        assert_eq!(run_batch(8, &[42], |&x| x), vec![42]);
    }

    #[test]
    fn more_jobs_than_items_processes_each_once() {
        let calls = AtomicUsize::new(0);
        let out = run_batch(16, &[10, 20, 30], |&x| {
            calls.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(out, vec![10, 20, 30]);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn workers_cover_all_indices_exactly_once() {
        let seen = Mutex::new(HashSet::new());
        let n = 200;
        let items: Vec<usize> = (0..n).collect();
        run_batch(4, &items, |&i| {
            assert!(seen.lock().unwrap().insert(i), "index {i} claimed twice");
        });
        assert_eq!(seen.lock().unwrap().len(), n);
    }

    #[test]
    fn panicking_item_becomes_failed_status_and_batch_completes() {
        let items: Vec<u32> = (0..16).collect();
        for jobs in [1, 4] {
            let st = run_batch_status(jobs, &items, None, |&x| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                PointStatus::Done(x * 2)
            });
            assert_eq!(st.len(), 16, "jobs={jobs}");
            for (i, s) in st.iter().enumerate() {
                if i == 7 {
                    assert!(
                        matches!(s, PointStatus::Failed(m) if m.contains("boom at 7")),
                        "jobs={jobs}, got {s:?}"
                    );
                } else {
                    assert_eq!(*s, PointStatus::Done(i as u32 * 2), "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn run_batch_propagates_panic_after_draining() {
        let done = AtomicUsize::new(0);
        let items: Vec<u32> = (0..8).collect();
        let res = catch_unwind(AssertUnwindSafe(|| {
            run_batch(2, &items, |&x| {
                if x == 3 {
                    panic!("lost point");
                }
                done.fetch_add(1, Ordering::SeqCst);
                x
            })
        }));
        assert!(res.is_err());
        // Every non-panicking item still ran to completion.
        assert_eq!(done.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn pre_cancelled_batch_runs_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let calls = AtomicUsize::new(0);
        for jobs in [1, 4] {
            let st = run_batch_status(jobs, &[1u8, 2, 3], Some(&token), |_| {
                calls.fetch_add(1, Ordering::SeqCst);
                PointStatus::Done(())
            });
            assert!(
                st.iter().all(|s| *s == PointStatus::Cancelled),
                "jobs={jobs}"
            );
        }
        assert_eq!(calls.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn mid_run_cancel_reports_per_point_statuses() {
        let token = CancelToken::new();
        let items: Vec<u32> = (0..64).collect();
        let fired = AtomicUsize::new(0);
        let st = run_batch_status(2, &items, Some(&token), |&x| {
            // Cancel after a few points have gone through.
            if fired.fetch_add(1, Ordering::SeqCst) == 4 {
                token.cancel();
            }
            PointStatus::Done(x)
        });
        assert_eq!(st.len(), 64);
        let done = st.iter().filter(|s| s.is_done()).count();
        let cancelled = st.iter().filter(|s| **s == PointStatus::Cancelled).count();
        assert_eq!(done + cancelled, 64);
        assert!(done >= 5, "the in-flight points completed");
        assert!(cancelled > 0, "the tail was cancelled");
    }
}
