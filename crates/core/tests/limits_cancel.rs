//! Unit tests for [`RunLimits`] and [`CancelToken`]: budgets must terminate
//! otherwise-unbounded scenarios with a typed error carrying nonzero
//! progress, and cancellation must be observed within one epoch.

use std::time::Duration;

use equeue_core::{
    simulate, simulate_with, Backend, CancelToken, LimitKind, RunLimits, SimError, SimLibrary,
    SimOptions,
};
use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
use equeue_ir::{Attr, Module, OpBuilder, Type};

fn options(limits: RunLimits, cancel: Option<CancelToken>) -> SimOptions {
    SimOptions {
        trace: false,
        limits,
        cancel,
        ..Default::default()
    }
}

/// A launch whose single external op claims `cycles` cycles: the simulated
/// clock jumps far ahead in one event.
fn long_ext_op(cycles: i64) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let start = b.control_start();
    let l = b.launch(start, pe, &[], vec![]);
    let op = {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let op = ib.ext_op("mac", vec![], vec![]);
        ib.ret(vec![]);
        op
    };
    m.op_mut(op).attrs.set("cycles", Attr::Int(cycles));
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

/// A top-level affine loop with `iters` iterations of pure arithmetic: no
/// hardware events, just interpreter work — the shape of an unbounded
/// (or wall-clock-heavy) host computation.
fn busy_loop(iters: i64) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let c = b.const_int(3, Type::I32);
    let (_, body, _iv) = b.affine_for(0, iters, 1);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), body);
        ib.muli(c, c);
        ib.affine_yield();
    }
    m
}

#[test]
fn max_cycles_terminates_long_run_with_progress() {
    let m = long_ext_op(1_000_000_000);
    let lib = SimLibrary::standard();
    let err = simulate_with(
        &m,
        &lib,
        &options(
            RunLimits {
                max_cycles: 1_000,
                ..RunLimits::default()
            },
            None,
        ),
    )
    .unwrap_err();
    let SimError::Limit(l) = err else {
        panic!("expected Limit, got {err}");
    };
    assert_eq!(l.kind, LimitKind::Cycles);
    assert_eq!(l.limit, 1_000);
    assert!(l.progress.cycles > 1_000, "{:?}", l.progress);
    assert!(l.progress.events > 0, "{:?}", l.progress);
}

#[test]
fn wall_deadline_terminates_busy_loop() {
    // 2B iterations would take minutes; the deadline stops it within one
    // interpreter epoch of 10 ms.
    let m = busy_loop(2_000_000_000);
    let lib = SimLibrary::standard();
    let err = simulate_with(
        &m,
        &lib,
        &options(
            RunLimits {
                wall_deadline: Some(Duration::from_millis(10)),
                ..RunLimits::unlimited()
            },
            None,
        ),
    )
    .unwrap_err();
    let SimError::Limit(l) = err else {
        panic!("expected Limit, got {err}");
    };
    assert_eq!(l.kind, LimitKind::WallClock);
    assert!(l.progress.ops > 0, "{:?}", l.progress);
}

#[test]
fn event_limit_reports_event_kind() {
    let m = long_ext_op(4);
    let lib = SimLibrary::standard();
    let err = simulate_with(
        &m,
        &lib,
        &options(
            RunLimits {
                max_events: 1,
                ..RunLimits::default()
            },
            None,
        ),
    )
    .unwrap_err();
    let SimError::Limit(l) = err else {
        panic!("expected Limit, got {err}");
    };
    assert_eq!(l.kind, LimitKind::Events);
}

#[test]
fn pre_cancelled_run_stops_on_first_epoch() {
    let m = long_ext_op(1_000_000);
    let lib = SimLibrary::standard();
    let token = CancelToken::new();
    token.cancel();
    let err = simulate_with(&m, &lib, &options(RunLimits::default(), Some(token))).unwrap_err();
    assert!(matches!(err, SimError::Cancelled(_)), "{err}");
}

#[test]
fn concurrent_cancel_stops_busy_loop() {
    let m = busy_loop(2_000_000_000);
    let lib = SimLibrary::standard();
    let token = CancelToken::new();
    let remote = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        remote.cancel();
    });
    // Generous event budget as a backstop so a broken token cannot hang CI;
    // the wall deadline below it would also fire long before that.
    let err = simulate_with(
        &m,
        &lib,
        &options(
            RunLimits {
                wall_deadline: Some(Duration::from_secs(60)),
                ..RunLimits::default()
            },
            Some(token),
        ),
    )
    .unwrap_err();
    canceller.join().unwrap();
    let SimError::Cancelled(progress) = err else {
        panic!("expected Cancelled, got {err}");
    };
    assert!(progress.ops > 0, "{progress:?}");
}

/// A launch whose body is a fusible `affine.for`: SRAM loads/stores plus
/// scalar arithmetic, `iters` iterations. Under [`Backend::Fused`] the whole
/// loop runs inside one trace (no contention: single processor, nothing else
/// scheduled), so limits and cancellation must fire from *inside* the trace.
fn fused_loop(iters: i64) -> Module {
    fused_loop_in(kinds::SRAM, iters)
}

/// [`fused_loop`] over a memory of kind `mem_kind`.
fn fused_loop_in(mem_kind: &str, iters: i64) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let mem = b.create_mem(mem_kind, &[iters as usize], 32, 2);
    let buf = b.alloc(mem, &[iters as usize], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let v = l.body_args[0];
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let one = ib.const_int(1, Type::I32);
        let (_, body, iv) = ib.affine_for(0, iters, 1);
        {
            let mut lb = OpBuilder::at_end(ib.module_mut(), body);
            let x = lb.affine_load(v, vec![iv]);
            let y = lb.addi(x, one);
            lb.affine_store(y, v, vec![iv]);
            lb.affine_yield();
        }
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

fn with_backend(limits: RunLimits, cancel: Option<CancelToken>, backend: Backend) -> SimOptions {
    SimOptions {
        backend,
        ..options(limits, cancel)
    }
}

#[test]
fn event_limit_fires_inside_fused_trace_with_progress() {
    // 4096 iterations × 2 timed accesses ≫ the 64-event budget: the limit
    // trips mid-trace. Bit identity extends to the error payload, so the
    // two backends must return *equal* errors, not merely the same kind.
    let m = fused_loop(4096);
    let lib = SimLibrary::standard();
    let limits = RunLimits {
        max_events: 64,
        ..RunLimits::default()
    };
    let fused = simulate_with(&m, &lib, &with_backend(limits, None, Backend::Fused)).unwrap_err();
    let interp = simulate_with(&m, &lib, &with_backend(limits, None, Backend::Interp)).unwrap_err();
    let SimError::Limit(l) = &fused else {
        panic!("expected Limit, got {fused}");
    };
    assert_eq!(l.kind, LimitKind::Events);
    assert!(l.progress.events > 64, "{:?}", l.progress);
    assert!(l.progress.ops > 0, "{:?}", l.progress);
    assert!(l.progress.cycles > 0, "{:?}", l.progress);
    assert_eq!(fused, interp);
}

#[test]
fn cycle_limit_fires_inside_fused_trace_with_progress() {
    let m = fused_loop(4096);
    let lib = SimLibrary::standard();
    let limits = RunLimits {
        max_cycles: 100,
        ..RunLimits::default()
    };
    let fused = simulate_with(&m, &lib, &with_backend(limits, None, Backend::Fused)).unwrap_err();
    let interp = simulate_with(&m, &lib, &with_backend(limits, None, Backend::Interp)).unwrap_err();
    let SimError::Limit(l) = &fused else {
        panic!("expected Limit, got {fused}");
    };
    assert_eq!(l.kind, LimitKind::Cycles);
    assert!(l.progress.cycles > 100, "{:?}", l.progress);
    assert!(l.progress.ops > 0, "{:?}", l.progress);
    assert_eq!(fused, interp);
}

/// One iteration's scheduler wakes and cycles in [`fused_loop_in`], from
/// two runs one iteration apart.
fn per_iteration(mem_kind: &str) -> (u64, u64) {
    let a = simulate(&fused_loop_in(mem_kind, 100)).unwrap();
    let b = simulate(&fused_loop_in(mem_kind, 101)).unwrap();
    (b.events_processed - a.events_processed, b.cycles - a.cycles)
}

/// Runs `m` under both backends with each limit set, asserting both fail
/// with the same error (kind, limit and `Progress` counters).
fn assert_limit_errors_agree(m: &Module, kind: LimitKind, limits: impl Iterator<Item = RunLimits>) {
    let lib = SimLibrary::standard();
    for limits in limits {
        let fused =
            simulate_with(m, &lib, &with_backend(limits, None, Backend::Fused)).unwrap_err();
        let interp =
            simulate_with(m, &lib, &with_backend(limits, None, Backend::Interp)).unwrap_err();
        assert!(
            matches!(&fused, SimError::Limit(l) if l.kind == kind),
            "{limits:?}: {fused}"
        );
        assert_eq!(fused, interp, "{limits:?}");
    }
}

#[test]
fn event_limit_is_exact_at_every_offset_of_three_iterations() {
    // Fused runs whole iterations in bulk segments that stop short of the
    // budget; every offset of three iterations around the first
    // WAKE_EPOCH poll (wake 1025) must trip at the interpreter's counters.
    for kind in [kinds::SRAM, kinds::REGISTER] {
        let (wakes, _) = per_iteration(kind);
        assert!(wakes > 0);
        let m = fused_loop_in(kind, 4096);
        let limits = (1020..1020 + 3 * wakes).map(|max_events| RunLimits {
            max_events,
            ..RunLimits::default()
        });
        assert_limit_errors_agree(&m, LimitKind::Events, limits);
    }
}

#[test]
fn cycle_limit_is_exact_at_every_offset_of_three_iterations() {
    for kind in [kinds::SRAM, kinds::REGISTER] {
        let (_, cycles) = per_iteration(kind);
        assert!(cycles > 0);
        let m = fused_loop_in(kind, 4096);
        let limits = (1000..1000 + 3 * cycles).map(|max_cycles| RunLimits {
            max_cycles,
            ..RunLimits::default()
        });
        assert_limit_errors_agree(&m, LimitKind::Cycles, limits);
    }
}

/// A launch whose body is an `iters`-trip loop that costs zero cycles
/// (`const_index`, an index `addi`, `affine.yield`) yet fuses: no wake
/// comes due inside it, so only the idle-step guard can stop it.
fn zero_cycle_loop(iters: i64) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let start = b.control_start();
    let l = b.launch(start, pe, &[], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let (_, body, iv) = ib.affine_for(0, iters, 1);
        let mut lb = OpBuilder::at_end(ib.module_mut(), body);
        let one = lb.const_index(1);
        lb.addi(iv, one);
        lb.affine_yield();
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

#[test]
fn idle_step_guard_is_exact_on_both_backends() {
    let m = zero_cycle_loop(1_000_000);
    let lib = SimLibrary::standard();
    let fused = with_backend(RunLimits::default(), None, Backend::Fused);
    let report = simulate_with(&m, &lib, &fused).unwrap();
    assert_eq!(report.cycles, 0);
    assert_eq!(report.fused_trace_entries, 1);
    let limits = [5000, 8191, 8192, 12288].map(|max_events| RunLimits {
        max_events,
        ..RunLimits::default()
    });
    assert_limit_errors_agree(&m, LimitKind::Events, limits.into_iter());
}

/// A `linalg.conv2d` (`2×8×8` ifmap, three `2×3×3` filters) as the
/// `equeue-opt` recipe lowers it (`allocate-buffer`,
/// `convert-linalg-to-affine-loops`, `equeue-read-write`, `launch`): a
/// perfect six-deep nest whose innermost body reads three SRAM elements and
/// writes one. 11,664 cycles; each innermost iteration takes 6 wakes and 6
/// cycles, and each innermost loop 3 iterations.
const LOWERED_CONV: &str = r#"%mem = "equeue.create_mem"() {banks = 4, data_bits = 32, kind = "SRAM", shape = [290]} : () -> !equeue.mem
%proc = "equeue.create_proc"() {kind = "ARMr5"} : () -> !equeue.proc
%0 = "equeue.alloc"(%mem) : (!equeue.mem) -> !equeue.buffer<2x8x8xi32>
%1 = "equeue.alloc"(%mem) : (!equeue.mem) -> !equeue.buffer<3x2x3x3xi32>
%2 = "equeue.alloc"(%mem) : (!equeue.mem) -> !equeue.buffer<3x6x6xi32>
%3 = "equeue.control_start"() : () -> !equeue.signal
%4 = "equeue.launch"(%3, %proc) ({
  "affine.for"() ({
  ^bb0(%5: index):
    "affine.for"() ({
    ^bb0(%6: index):
      "affine.for"() ({
      ^bb0(%7: index):
        "affine.for"() ({
        ^bb0(%8: index):
          "affine.for"() ({
          ^bb0(%9: index):
            "affine.for"() ({
            ^bb0(%10: index):
              %11 = "arith.addi"(%6, %9) : (index, index) -> index
              %12 = "arith.addi"(%7, %10) : (index, index) -> index
              %13 = "equeue.read"(%0, %8, %11, %12) {segments = [1, 3, 0]} : (!equeue.buffer<2x8x8xi32>, index, index, index) -> i32
              %14 = "equeue.read"(%1, %5, %8, %9, %10) {segments = [1, 4, 0]} : (!equeue.buffer<3x2x3x3xi32>, index, index, index, index) -> i32
              %15 = "equeue.read"(%2, %5, %6, %7) {segments = [1, 3, 0]} : (!equeue.buffer<3x6x6xi32>, index, index, index) -> i32
              %16 = "arith.muli"(%13, %14) : (i32, i32) -> i32
              %17 = "arith.addi"(%15, %16) : (i32, i32) -> i32
              "equeue.write"(%17, %2, %5, %6, %7) {segments = [1, 1, 3, 0]} : (i32, !equeue.buffer<3x6x6xi32>, index, index, index) -> ()
              "affine.yield"() : () -> ()
            }) {lower = 0, step = 1, upper = 3} : () -> ()
            "affine.yield"() : () -> ()
          }) {lower = 0, step = 1, upper = 3} : () -> ()
          "affine.yield"() : () -> ()
        }) {lower = 0, step = 1, upper = 2} : () -> ()
        "affine.yield"() : () -> ()
      }) {lower = 0, step = 1, upper = 6} : () -> ()
      "affine.yield"() : () -> ()
    }) {lower = 0, step = 1, upper = 6} : () -> ()
    "affine.yield"() : () -> ()
  }) {c = 2, conv_nest = unit, eh = 6, ew = 6, fh = 3, fw = 3, lower = 0, n = 3, step = 1, upper = 3} : () -> ()
  "equeue.return"() : () -> ()
}) : (!equeue.signal, !equeue.proc) -> !equeue.signal
"equeue.await"(%4) : (!equeue.signal) -> ()
"#;

#[test]
fn limits_inside_a_lowered_conv_nest_agree_across_backends() {
    // Budgets that land inside the nest, at every offset of two innermost
    // loops (so some land where one level hands over to the next), around
    // the first two WAKE_EPOCH polls (wakes 1025 and 2049) and further in.
    let m = equeue_ir::parse_module(LOWERED_CONV).unwrap();
    let report = simulate(&m).unwrap();
    assert_eq!(report.cycles, 11_664);
    for start in [1010, 2040, 7000] {
        let events = (start..start + 36).map(|max_events| RunLimits {
            max_events,
            ..RunLimits::default()
        });
        assert_limit_errors_agree(&m, LimitKind::Events, events);
        let cycles = (start..start + 36).map(|max_cycles| RunLimits {
            max_cycles,
            ..RunLimits::default()
        });
        assert_limit_errors_agree(&m, LimitKind::Cycles, cycles);
    }
}

#[test]
fn snapshot_cut_is_exact_at_every_offset_of_three_iterations() {
    // A cut caps the bulk segment like contention does. Capture and resume
    // under each backend: the cut lands on the same cycle, and the resumed
    // runs match each other and the uninterrupted run.
    use equeue_core::{CompiledModule, SimReport};
    let fields = |r: &SimReport| {
        (
            r.cycles,
            r.events_processed,
            r.ops_interpreted,
            r.buffers.clone(),
            r.memories.clone(),
        )
    };
    for kind in [kinds::SRAM, kinds::REGISTER] {
        let (_, cycles) = per_iteration(kind);
        let full = simulate(&fused_loop_in(kind, 512)).unwrap();
        let compiled =
            CompiledModule::compile(fused_loop_in(kind, 512), SimLibrary::standard()).unwrap();
        for cut in 500..500 + 3 * cycles {
            let run = |backend| {
                let opts = with_backend(RunLimits::default(), None, backend);
                let snap = compiled.snapshot(cut, &opts).unwrap();
                (snap.actual_cut(), compiled.resume(&snap, &opts).unwrap())
            };
            let (fused_cut, fused) = run(Backend::Fused);
            let (interp_cut, interp) = run(Backend::Interp);
            assert_eq!(fused_cut, interp_cut, "cut {cut}");
            assert_eq!(fields(&fused), fields(&interp), "cut {cut}");
            assert_eq!(fields(&fused), fields(&full), "cut {cut}");
        }
    }
}

#[test]
fn cancellation_is_observed_inside_fused_trace_with_progress() {
    // A pre-cancelled token is caught at the engine's first wake, before
    // any trace is entered — so to prove the *trace* polls the token, the
    // cancel must land mid-run, while execution is deep inside the fused
    // loop. The trace's wake/op epoch checks run on the same counter
    // cadence as the interpreter's, so the token is observed promptly and
    // the reported progress is nonzero.
    let m = fused_loop(50_000_000);
    let lib = SimLibrary::standard();
    let token = CancelToken::new();
    let remote = token.clone();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        remote.cancel();
    });
    // Wall deadline as a backstop so a broken poll cannot hang CI.
    let err = simulate_with(
        &m,
        &lib,
        &with_backend(
            RunLimits {
                wall_deadline: Some(Duration::from_secs(60)),
                ..RunLimits::unlimited()
            },
            Some(token),
            Backend::Fused,
        ),
    )
    .unwrap_err();
    canceller.join().unwrap();
    let SimError::Cancelled(progress) = err else {
        panic!("expected Cancelled, got {err}");
    };
    assert!(progress.ops > 0, "{progress:?}");
    assert!(progress.events > 0, "{progress:?}");
    assert!(progress.cycles > 0, "{progress:?}");
}

#[test]
fn wall_deadline_fires_inside_fused_trace() {
    // Wall progress values depend on host timing, so only the fused run's
    // own shape is asserted (kind + nonzero progress), not cross-backend
    // equality.
    let m = fused_loop(50_000_000);
    let lib = SimLibrary::standard();
    let err = simulate_with(
        &m,
        &lib,
        &with_backend(
            RunLimits {
                wall_deadline: Some(Duration::from_millis(10)),
                ..RunLimits::unlimited()
            },
            None,
            Backend::Fused,
        ),
    )
    .unwrap_err();
    let SimError::Limit(l) = err else {
        panic!("expected Limit, got {err}");
    };
    assert_eq!(l.kind, LimitKind::WallClock);
    assert!(l.progress.ops > 0, "{:?}", l.progress);
}

#[test]
fn resume_restarts_wall_deadline() {
    // The wall clock is host time, not simulated state: a snapshot held on
    // disk for an hour must not have "used up" its deadline. Capture a
    // checkpoint, let real time pass beyond the deadline, then resume — the
    // deadline budget restarts at resume, so the run completes. (The old
    // behaviour double-counted pre-snapshot wall time, which this sleep
    // would trip.)
    use equeue_core::{CompiledModule, SimLibrary};
    let compiled = CompiledModule::compile(fused_loop(256), SimLibrary::standard()).unwrap();
    let snap = compiled
        .snapshot(10, &options(RunLimits::unlimited(), None))
        .unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let report = compiled
        .resume(
            &snap,
            &options(
                RunLimits {
                    wall_deadline: Some(Duration::from_millis(250)),
                    ..RunLimits::unlimited()
                },
                None,
            ),
        )
        .unwrap();
    assert!(report.cycles > 10);
}

#[test]
fn resume_continues_cycle_and_event_budgets() {
    // Unlike the wall clock, cycle/event budgets are *simulated* state:
    // they meter the whole logical run, so a resumed window inherits the
    // snapshot's counters. Resuming under a budget the full run would blow
    // must fail exactly like the uninterrupted limited run — same error,
    // same progress payload (bit identity extends to errors).
    use equeue_core::{simulate, CompiledModule, SimLibrary};
    let full = simulate(&fused_loop(4096)).unwrap();
    let compiled = CompiledModule::compile(fused_loop(4096), SimLibrary::standard()).unwrap();
    for (limits, kind) in [
        (
            RunLimits {
                max_cycles: full.cycles / 2,
                ..RunLimits::default()
            },
            LimitKind::Cycles,
        ),
        (
            RunLimits {
                max_events: full.events_processed / 2,
                ..RunLimits::default()
            },
            LimitKind::Events,
        ),
    ] {
        let uninterrupted = compiled.simulate(&options(limits, None)).unwrap_err();
        // Cut well before the budget trips, so the limited portion replays
        // inside the resumed window.
        let snap = compiled
            .snapshot(10, &options(RunLimits::unlimited(), None))
            .unwrap();
        let resumed = compiled.resume(&snap, &options(limits, None)).unwrap_err();
        let SimError::Limit(l) = &resumed else {
            panic!("expected Limit, got {resumed}");
        };
        assert_eq!(l.kind, kind);
        assert_eq!(uninterrupted, resumed, "{kind:?}");
        // And a budget sized for the whole run still completes on resume.
        let generous = RunLimits {
            max_cycles: full.cycles + 1,
            max_events: full.events_processed + 1,
            ..RunLimits::default()
        };
        let report = compiled.resume(&snap, &options(generous, None)).unwrap();
        assert_eq!(report.cycles, full.cycles);
    }
}

#[test]
fn limits_do_not_affect_short_runs() {
    // A run comfortably inside every budget completes normally.
    let m = long_ext_op(64);
    let lib = SimLibrary::standard();
    let report = simulate_with(
        &m,
        &lib,
        &options(
            RunLimits {
                max_cycles: 10_000,
                max_events: 10_000,
                max_live_tensor_bytes: 1 << 20,
                wall_deadline: Some(Duration::from_secs(30)),
            },
            Some(CancelToken::new()),
        ),
    )
    .unwrap();
    assert_eq!(report.cycles, 64);
}
