//! Differential tests: every verdict the static analysis hands out is
//! checked against what the simulation engine actually does.
//!
//! * **Deadlock**: `deadlock_free = true` is a guarantee — the runtime
//!   must never return [`SimError::Deadlock`] for such a module. The
//!   converse direction is exercised with two deliberately-broken
//!   modules: a cross-frame queue-order inversion that deadlocks the
//!   engine (and that the analysis refuses to certify), and a cyclic
//!   dep graph the analysis pins as a hard `static-deadlock` error.
//! * **Fusibility**: the per-loop fuse verdicts must agree with the fused
//!   backend's `fused_trace_entries` counter — loops reported fusible
//!   produce trace entries (for the affine matmul and a lowered conv, as
//!   many as the verdicts and trip counts predict), scenarios with none
//!   (the fig12 convolutions) produce exactly zero, and loops declined for
//!   a cache-backed or float buffer run on the interpreter with counters
//!   equal to the `Interp` backend's.
//! * **Resources**: the static bounds are sound over-approximations of
//!   the runtime `events_spawned` / `peak_live_tensor_bytes` counters.

use equeue_analysis::{analyze_module, FusibilityReport, LoopReport};
use equeue_core::{
    Backend, CompiledModule, FuseDecline, FuseVerdict, RunLimits, SimError, SimLibrary, SimOptions,
};
use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
use equeue_gen::scenarios::{golden_scenarios, matmul_affine};
use equeue_ir::{Module, OpBuilder, Type};

fn quiet_options() -> SimOptions {
    SimOptions {
        trace: false,
        ..Default::default()
    }
}

/// Statically proved deadlock-free ⇒ the engine never reports Deadlock.
#[test]
fn deadlock_free_scenarios_never_deadlock_at_runtime() {
    let library = SimLibrary::standard();
    let limits = RunLimits::default();
    for scenario in golden_scenarios() {
        let report = analyze_module(&scenario.module, &library, &limits);
        assert!(
            report.deadlock_free,
            "{}: expected a deadlock-freedom proof, got:\n{}",
            scenario.name,
            report.to_text()
        );
        let compiled = CompiledModule::compile(scenario.module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", scenario.name));
        match compiled.simulate(&quiet_options()) {
            Ok(_) => {}
            Err(SimError::Deadlock(msg)) => panic!(
                "{}: statically deadlock-free but the engine deadlocked: {msg}",
                scenario.name
            ),
            // Any non-deadlock failure would contradict the gen-side
            // golden_scenarios_simulate test; surface it loudly here too.
            Err(e) => panic!("{}: simulation failed: {e}", scenario.name),
        }
    }
}

/// A cross-frame queue-order inversion: the host enqueues `x` on `p2`
/// waiting on `a`, while `a`'s body later enqueues `c` on the same `p2`
/// and awaits it. At runtime `x` arrives first, blocks the head of `p2`'s
/// FIFO queue, and the machine wedges. Statically the two events sit in
/// different frames on one processor with a completion dependency between
/// them — exactly what the queue-order-hazard check refuses to certify.
fn queue_inversion_module() -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let p1 = b.create_proc(kinds::ARM_R6);
    let p2 = b.create_proc(kinds::ARM_R6);
    let start = b.control_start();
    let a = b.launch(start, p1, &[], vec![]);
    let x = b.launch(a.done, p2, &[], vec![]);
    let mut xb = OpBuilder::at_end(b.module_mut(), x.body);
    xb.ret(vec![]);
    let mut ab = OpBuilder::at_end(&mut m, a.body);
    let inner_start = ab.control_start();
    let c = ab.launch(inner_start, p2, &[], vec![]);
    ab.await_all(vec![c.done]);
    ab.ret(vec![]);
    let mut cb = OpBuilder::at_end(&mut m, c.body);
    cb.ret(vec![]);
    let mut top = OpBuilder::at_end(&mut m, blk);
    top.await_all(vec![x.done]);
    m
}

#[test]
fn queue_order_inversion_is_flagged_and_deadlocks() {
    let library = SimLibrary::standard();
    let module = queue_inversion_module();
    let report = analyze_module(&module, &library, &RunLimits::default());
    assert!(
        !report.deadlock_free,
        "analysis wrongly certified a module that deadlocks:\n{}",
        report.to_text()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "queue-order-hazard"),
        "expected a queue-order-hazard diagnostic:\n{}",
        report.to_text()
    );
    let compiled = CompiledModule::compile(module, library)
        .expect("the module is well-formed; it only wedges");
    match compiled.simulate(&quiet_options()) {
        Err(SimError::Deadlock(_)) => {}
        Ok(_) => panic!("engine completed a run the analysis predicted would wedge"),
        Err(e) => panic!("expected Deadlock, got: {e}"),
    }
}

/// A direct wait cycle (two launches on one processor, each gated on the
/// other's completion, spliced together after construction). The analysis
/// must report a hard `static-deadlock` error; the runtime must reject or
/// wedge — never complete.
#[test]
fn wait_cycle_is_a_static_deadlock_error() {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let p = b.create_proc(kinds::ARM_R6);
    let start = b.control_start();
    let a = b.launch(start, p, &[], vec![]);
    let bb = b.launch(a.done, p, &[], vec![]);
    let mut ab = OpBuilder::at_end(b.module_mut(), a.body);
    ab.ret(vec![]);
    let mut bbb = OpBuilder::at_end(&mut m, bb.body);
    bbb.ret(vec![]);
    let mut top = OpBuilder::at_end(&mut m, blk);
    top.await_all(vec![bb.done]);
    // Splice the cycle: a's dep (operand 0) becomes b's done signal.
    m.set_operand(a.op, 0, bb.done);

    let library = SimLibrary::standard();
    let report = analyze_module(&m, &library, &RunLimits::default());
    assert!(!report.deadlock_free);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == "static-deadlock"),
        "expected a static-deadlock error:\n{}",
        report.to_text()
    );
    // The runtime must not silently complete this module: either the
    // verifier rejects the use-before-def, or the engine wedges.
    match CompiledModule::compile(m, library) {
        Err(_) => {}
        Ok(compiled) => match compiled.simulate(&quiet_options()) {
            Err(_) => {}
            Ok(_) => panic!("engine completed a module with a dependency cycle"),
        },
    }
}

/// The fusibility report agrees with the fused backend: trace entries
/// appear exactly when the analysis says a loop fuses, and the entry
/// count for the matmul microbenchmark matches the static trip structure.
#[test]
fn fusibility_report_matches_fused_backend() {
    let library = SimLibrary::standard();
    let limits = RunLimits::default();
    let fused = SimOptions {
        trace: false,
        backend: Backend::Fused,
        ..Default::default()
    };

    // A perfect nest fuses at every level, and a run counts one entry per
    // start of its innermost loop: for matmul_affine(16), 16 × 16; for a
    // lowered conv, one per iteration of the five loops around `fw`.
    // `fig11_affine_ws_8` is the lowered conv (8×8 ifmap, 3×3 filters,
    // c = 3, n = 4).
    let conv = golden_scenarios()
        .into_iter()
        .find(|s| s.name == "fig11_affine_ws_8")
        .expect("the Fig. 11 Affine stage is a golden scenario")
        .module;
    for (name, module, levels, entries) in [
        ("matmul_affine16", matmul_affine(16), 3, 16 * 16),
        ("fig11_affine_ws_8", conv, 6, 4 * 6 * 6 * 3 * 3),
    ] {
        let report = analyze_module(&module, &library, &limits);
        assert_eq!(report.fusibility.loops.len(), levels, "{name}");
        assert_eq!(report.fusibility.fusible_count(), levels, "{name}");
        assert_eq!(static_entries(&report.fusibility), entries, "{name}");
        let compiled = CompiledModule::compile(module, SimLibrary::standard()).expect("compile");
        let run = compiled.simulate(&fused).expect("simulate");
        assert_eq!(
            run.fused_trace_entries, entries,
            "{name}: fused backend trace-entry count diverges from the static trip structure"
        );
    }

    // Every golden scenario: entries appear iff something was fusible.
    for scenario in golden_scenarios() {
        let report = analyze_module(&scenario.module, &library, &limits);
        let fusible = report.fusibility.fusible_count();
        let compiled =
            CompiledModule::compile(scenario.module, SimLibrary::standard()).expect("compile");
        let run = compiled.simulate(&fused).expect("simulate");
        if fusible == 0 {
            assert_eq!(
                run.fused_trace_entries, 0,
                "{}: fused entries without a fusible loop",
                scenario.name
            );
        } else {
            assert!(
                run.fused_trace_entries > 0,
                "{}: analysis reports {fusible} fusible loops but the backend fused nothing",
                scenario.name
            );
        }
        if scenario.name.starts_with("fig12_") {
            // The paper's conv pipelines lower through linalg without
            // affine loops: nothing to fuse, and the backend must agree.
            assert_eq!(fusible, 0, "{}: expected zero fusible loops", scenario.name);
            assert_eq!(run.fused_trace_entries, 0, "{}", scenario.name);
        }
    }

    // The plan-time buffer checks: the innermost matmul body forms a trace
    // but its buffers sit in a cache, or hold floats, so the plan declines
    // it. The fused backend must then never enter a trace, and match the
    // interpreter counter for counter.
    let cases = [
        (
            matmul_affine_in(kinds::CACHE, Type::I32, 8),
            FuseDecline::StatefulMemory("Cache".to_string()),
        ),
        (
            matmul_affine_in(kinds::REGISTER, Type::F32, 8),
            FuseDecline::NonIntegerTensor("f32".to_string()),
        ),
    ];
    for (module, reason) in cases {
        let report = analyze_module(&module, &library, &limits);
        // Loops are in op order, so the innermost comes last.
        let inner = report.fusibility.loops.last().expect("the innermost loop");
        assert_eq!(inner.verdict, FuseVerdict::Declined(reason.clone()));
        assert_eq!(report.fusibility.fusible_count(), 0, "{reason}");
        let compiled = CompiledModule::compile(module, SimLibrary::standard()).expect("compile");
        let run = compiled.simulate(&fused).expect("simulate");
        let interp = compiled
            .simulate(&SimOptions {
                backend: Backend::Interp,
                ..fused.clone()
            })
            .expect("simulate");
        assert_eq!(run.fused_trace_entries, 0, "{reason}");
        assert_eq!(
            (run.cycles, run.events_processed, run.ops_interpreted),
            (
                interp.cycles,
                interp.events_processed,
                interp.ops_interpreted
            ),
            "{reason}"
        );
    }
}

/// The innermost-loop starts a single uncontended run makes, from the
/// static report alone: each fused loop with no loop inside it starts once
/// per iteration of the loops around it.
fn static_entries(report: &FusibilityReport) -> u64 {
    let loops = &report.loops;
    let inside = |inner: &LoopReport, outer: &LoopReport| {
        inner.location.starts_with(&format!("{}/", outer.location))
    };
    loops
        .iter()
        .filter(|l| matches!(l.verdict, FuseVerdict::Fused { .. }))
        .filter(|l| !loops.iter().any(|o| inside(o, l)))
        .map(|l| {
            loops
                .iter()
                .filter(|o| inside(l, o))
                .map(|o| o.trip_count.unwrap_or(0))
                .product::<u64>()
        })
        .sum()
}

/// `matmul_affine`'s 3-deep nest with its buffers in a `mem_kind` memory
/// and `elem` elements.
fn matmul_affine_in(mem_kind: &str, elem: Type, n: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::ARM_R5);
    let mem = b.create_mem(mem_kind, &[3 * n * n], 32, n as u32);
    let bufs: Vec<_> = (0..3)
        .map(|_| b.alloc(mem, &[n, n], elem.clone()))
        .collect();
    let start = b.control_start();
    let l = b.launch(start, pe, &bufs, vec![]);
    let (va, vb, vc) = (l.body_args[0], l.body_args[1], l.body_args[2]);
    let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
    let (_, bi, i) = ib.affine_for(0, n as i64, 1);
    let mut ib = OpBuilder::at_end(ib.module_mut(), bi);
    let (_, bj, j) = ib.affine_for(0, n as i64, 1);
    let mut ib = OpBuilder::at_end(ib.module_mut(), bj);
    let (_, bk, k) = ib.affine_for(0, n as i64, 1);
    let mut kb = OpBuilder::at_end(ib.module_mut(), bk);
    let aik = kb.affine_load(va, vec![i, k]);
    let bkj = kb.affine_load(vb, vec![k, j]);
    let cij = kb.affine_load(vc, vec![i, j]);
    let sum = if elem.is_integer() {
        let prod = kb.muli(aik, bkj);
        kb.addi(cij, prod)
    } else {
        let prod = kb.mulf(aik, bkj);
        kb.addf(cij, prod)
    };
    kb.affine_store(sum, vc, vec![i, j]);
    kb.affine_yield();
    for body in [bj, bi] {
        OpBuilder::at_end(&mut m, body).affine_yield();
    }
    OpBuilder::at_end(&mut m, l.body).ret(vec![]);
    OpBuilder::at_end(&mut m, blk).await_all(vec![l.done]);
    m
}

/// Static resource bounds are sound: runtime counters never exceed them.
#[test]
fn resource_bounds_cover_runtime_counters() {
    let library = SimLibrary::standard();
    let limits = RunLimits::default();
    for scenario in golden_scenarios() {
        let report = analyze_module(&scenario.module, &library, &limits);
        let est = report.resources;
        let compiled =
            CompiledModule::compile(scenario.module, SimLibrary::standard()).expect("compile");
        let run = compiled.simulate(&quiet_options()).expect("simulate");
        if let Some(bound) = est.events_bound {
            assert!(
                run.events_spawned <= bound,
                "{}: events_spawned {} exceeds static bound {bound}",
                scenario.name,
                run.events_spawned
            );
        }
        if let Some(bound) = est.live_tensor_bytes_bound {
            assert!(
                run.peak_live_tensor_bytes <= bound,
                "{}: peak_live_tensor_bytes {} exceeds static bound {bound}",
                scenario.name,
                run.peak_live_tensor_bytes
            );
        }
        // The bounds must also be *useful* on the golden set: every
        // scenario here is fully static, so both bounds derive.
        assert!(
            est.events_bound.is_some() && est.live_tensor_bytes_bound.is_some(),
            "{}: expected derivable bounds",
            scenario.name
        );
    }
}
