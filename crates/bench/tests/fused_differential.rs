//! Fused-vs-interpreter differential suite.
//!
//! The fused backend's contract is *bit identity*: for any program, running
//! under [`Backend::Fused`] must produce exactly the same simulated state as
//! [`Backend::Interp`] — cycles, scheduler wakes, interpreted-op counts,
//! final buffer contents, memory traffic, connection bandwidth — and fail
//! with the same [`SimError`] kind when the program is broken. This suite
//! enforces the contract over three surfaces:
//!
//! 1. every golden scenario (the modules `tests/golden_cycles.rs` pins);
//! 2. the fault-injection matrix (perturbed-but-structured programs, plus
//!    the zero-fault run against its golden);
//! 3. a malformed-IR fuzzer corpus (hostile text through the full
//!    parse → compile → simulate pipeline).

use std::panic::{catch_unwind, AssertUnwindSafe};

use equeue_bench::scenarios;
use equeue_core::fault::{apply_faults, Fault};
use equeue_core::{
    simulate_with, Backend, CompiledModule, RunLimits, SimError, SimLibrary, SimOptions, SimReport,
};
use equeue_dialect::standard_registry;
use equeue_dialect::ConvDims;
use equeue_gen::{
    build_stage_program, generate_fir, generate_systolic, generate_systolic_detailed, FirCase,
    FirSpec, Stage, SystolicSpec,
};
use equeue_ir::{parse_module, Module, PassManager, ValueId};
use equeue_passes::{
    AllocateMemory, ConvertLinalgToAffineLoops, Dataflow, EqueueReadWrite, WrapInLaunch,
};

fn options(backend: Backend) -> SimOptions {
    SimOptions {
        trace: false,
        backend,
        ..Default::default()
    }
}

/// Deterministic bounded options for programs that may diverge or explode:
/// event/cycle budgets only — no wall deadline, which could make the two
/// backends' outcomes differ by machine noise.
fn bounded(backend: Backend) -> SimOptions {
    SimOptions {
        trace: false,
        limits: RunLimits {
            max_cycles: 10_000_000,
            max_events: 1_000_000,
            max_live_tensor_bytes: 64 << 20,
            wall_deadline: None,
        },
        cancel: None,
        backend,
    }
}

/// Asserts every deterministic field of the two reports matches. Skips
/// `execution_time` (wall clock) and `trace` (empty under `trace: false`).
fn assert_reports_identical(name: &str, fused: &SimReport, interp: &SimReport) {
    assert_eq!(fused.cycles, interp.cycles, "{name}: cycles");
    assert_eq!(
        fused.events_processed, interp.events_processed,
        "{name}: events"
    );
    assert_eq!(fused.ops_interpreted, interp.ops_interpreted, "{name}: ops");
    assert_eq!(fused.buffers, interp.buffers, "{name}: buffer contents");
    assert_eq!(fused.memories, interp.memories, "{name}: memory traffic");
    assert_eq!(
        fused.connections, interp.connections,
        "{name}: connection bandwidth"
    );
}

fn differential(name: &str, module: &Module) {
    let lib = SimLibrary::standard();
    let fused = simulate_with(module, &lib, &options(Backend::Fused))
        .unwrap_or_else(|e| panic!("{name} (fused): {e}"));
    let interp = simulate_with(module, &lib, &options(Backend::Interp))
        .unwrap_or_else(|e| panic!("{name} (interp): {e}"));
    assert_reports_identical(name, &fused, &interp);
}

/// The golden scenarios: the same module builders `tests/golden_cycles.rs`
/// pins, at sizes small enough for debug-mode CI.
fn golden_scenarios() -> Vec<(&'static str, Module)> {
    vec![
        ("matmul8_linalg", scenarios::matmul_linalg(8)),
        ("matmul4_affine", scenarios::matmul_affine(4)),
        ("matmul16_affine", scenarios::matmul_affine(16)),
        ("tensor_stream", scenarios::tensor_stream(64, 32)),
        (
            "fir_single_core",
            generate_fir(FirSpec::default(), FirCase::SingleCore).module,
        ),
        (
            "fir_balanced4",
            generate_fir(FirSpec::default(), FirCase::Balanced4).module,
        ),
        (
            "fig09_4x4_ws",
            generate_systolic(
                &SystolicSpec {
                    rows: 4,
                    cols: 4,
                    dataflow: Dataflow::Ws,
                },
                ConvDims::square(8, 2, 3, 1),
            )
            .module,
        ),
        (
            "fig11_last_stage",
            build_stage_program(
                Stage::all()[Stage::all().len() - 1],
                ConvDims::square(6, 3, 3, 2),
                (4, 4),
                Dataflow::Ws,
            )
            .module,
        ),
        (
            "systolic_detailed",
            generate_systolic_detailed(
                &SystolicSpec {
                    rows: 2,
                    cols: 2,
                    dataflow: Dataflow::Ws,
                },
                ConvDims::square(6, 2, 3, 1),
            )
            .module,
        ),
    ]
}

#[test]
fn golden_scenarios_are_bit_identical_across_backends() {
    for (name, module) in golden_scenarios() {
        differential(name, &module);
    }
}

/// Every field of the two reports but `execution_time`, `trace` and
/// `fused_trace_entries` (the one field the backends differ in by design).
fn assert_full_reports_identical(name: &str, fused: &SimReport, interp: &SimReport) {
    assert_reports_identical(name, fused, interp);
    assert_eq!(
        fused.events_spawned, interp.events_spawned,
        "{name}: events spawned"
    );
    assert_eq!(
        fused.peak_live_tensor_bytes, interp.peak_live_tensor_bytes,
        "{name}: peak live tensor bytes"
    );
}

/// Full reports on both backends, untraced and traced; the traced runs'
/// Chrome JSON must match byte for byte. Returns the untraced fused run.
fn differential_traced(name: &str, module: &Module) -> SimReport {
    let lib = SimLibrary::standard();
    let run = |backend, trace| {
        let opts = SimOptions {
            trace,
            ..options(backend)
        };
        simulate_with(module, &lib, &opts)
            .unwrap_or_else(|e| panic!("{name} ({backend:?}, trace={trace}): {e}"))
    };
    let fused = run(Backend::Fused, false);
    assert_full_reports_identical(name, &fused, &run(Backend::Interp, false));
    let traced = run(Backend::Fused, true);
    let traced_interp = run(Backend::Interp, true);
    assert_full_reports_identical(&format!("{name} traced"), &traced, &traced_interp);
    assert_full_reports_identical(&format!("{name} traced vs untraced"), &traced, &fused);
    assert_eq!(
        traced.fused_trace_entries, fused.fused_trace_entries,
        "{name}: traced runs fuse as untraced ones do"
    );
    assert!(!traced.trace.is_empty(), "{name}: empty trace");
    assert!(
        traced.trace.to_chrome_json() == traced_interp.trace.to_chrome_json(),
        "{name}: Chrome JSON differs across backends"
    );
    fused
}

/// A `linalg.conv2d` text in the `equeue-opt` verify-recipe style (one
/// SRAM, one processor, `memref.alloc` buffers), as `tests/trace_pin.rs`
/// pins it.
fn conv_text(hw: usize, f: usize, c: usize, n: usize) -> String {
    let e = hw - f + 1;
    let ifmap = format!("memref<{c}x{hw}x{hw}xi32>");
    let weights = format!("memref<{n}x{c}x{f}x{f}xi32>");
    let ofmap = format!("memref<{n}x{e}x{e}xi32>");
    let capacity = c * hw * hw + n * c * f * f + n * e * e;
    format!(
        "%mem = \"equeue.create_mem\"() {{banks = 4, data_bits = 32, kind = \"SRAM\", shape = [{capacity}]}} : () -> !equeue.mem\n\
         %proc = \"equeue.create_proc\"() {{kind = \"ARMr5\"}} : () -> !equeue.proc\n\
         %i = \"memref.alloc\"() : () -> {ifmap}\n\
         %w = \"memref.alloc\"() : () -> {weights}\n\
         %o = \"memref.alloc\"() : () -> {ofmap}\n\
         \"linalg.conv2d\"(%i, %w, %o) : ({ifmap}, {weights}, {ofmap}) -> ()\n"
    )
}

/// Runs the lowering recipe: buffers on `mem`, affine loops, reads and
/// writes, and a launch of the computation on `proc`.
fn lower(module: &mut Module, mem: ValueId, proc: ValueId) {
    let mut pm = PassManager::new(standard_registry());
    pm.add(AllocateMemory::new(mem))
        .add(ConvertLinalgToAffineLoops)
        .add(EqueueReadWrite)
        .add(WrapInLaunch::new(proc));
    pm.run(module).expect("the recipe lowers a conv");
}

/// The three lowered conv texts `tests/trace_pin.rs` pins.
fn lowered_convs() -> Vec<(String, Module)> {
    [(4, 2, 1, 1), (6, 2, 2, 2), (8, 3, 2, 3)]
        .into_iter()
        .map(|(hw, f, c, n)| {
            let mut module = parse_module(&conv_text(hw, f, c, n)).expect("conv text parses");
            let first = |op: &str| {
                let id = module.find_first(op).expect("conv text defines it");
                module.result(id, 0)
            };
            let (mem, proc) = (first("equeue.create_mem"), first("equeue.create_proc"));
            lower(&mut module, mem, proc);
            (format!("conv hw{hw} f{f} c{c} n{n} lowered"), module)
        })
        .collect()
}

/// Two processors, each launching a lowered conv of `dims`, on one shared
/// SRAM with one bank and one port: every read and write of one tenant
/// contends with the other's, so the conv nests exit on contention
/// mid-nest and resume.
fn two_tenant_conv(dims: ConvDims) -> Module {
    use equeue_dialect::{kinds, AffineBuilder, EqueueBuilder, LinalgBuilder};
    use equeue_ir::{OpBuilder, Type};
    let mut m = Module::new();
    let top = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, top);
    let elems = dims.ifmap_elems() + dims.weight_elems() + dims.ofmap_elems();
    let mem = b
        .op("equeue.create_mem")
        .attr("kind", kinds::SRAM)
        .attr("shape", vec![2 * elems as i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr("ports", 1i64)
        .result(Type::Mem)
        .finish_value();
    let procs = [b.create_proc(kinds::ARM_R5), b.create_proc(kinds::ARM_R5)];
    let mut operands = vec![];
    for _ in 0..2 {
        operands.push([
            b.memref_alloc(Type::memref(vec![dims.c, dims.h, dims.w], Type::I32)),
            b.memref_alloc(Type::memref(
                vec![dims.n, dims.c, dims.fh, dims.fw],
                Type::I32,
            )),
            b.memref_alloc(Type::memref(vec![dims.n, dims.eh(), dims.ew()], Type::I32)),
        ]);
    }
    let [i, w, o] = operands[0];
    b.linalg_conv2d(i, w, o);
    lower(&mut m, mem, procs[0]);
    // The second tenant's conv goes before the first tenant's await, so
    // both launches issue at cycle 0. Its buffers are the last three
    // `equeue.alloc`s.
    let allocs = m.find_all("equeue.alloc");
    let [i, w, o] = [3, 4, 5].map(|k| m.result(allocs[k], 0));
    let await0 = *m
        .find_all("equeue.await")
        .last()
        .expect("the first launch's await");
    OpBuilder::before(&mut m, await0).linalg_conv2d(i, w, o);
    lower(&mut m, mem, procs[1]);
    m
}

#[test]
fn lowered_convs_are_bit_identical_traced_and_untraced() {
    for (name, module) in lowered_convs() {
        let fused = differential_traced(&name, &module);
        assert!(fused.fused_trace_entries > 0, "{name}: the nest fuses");
    }
}

#[test]
fn two_tenant_lowered_convs_are_bit_identical_traced_and_untraced() {
    let module = two_tenant_conv(ConvDims::square(6, 3, 2, 2));
    assert_eq!(module.find_all("equeue.launch").len(), 2);
    let report = differential_traced("two-tenant conv", &module);
    assert!(
        report.fused_trace_entries > 0,
        "the nests fuse between exits"
    );
    // Both tenants' accesses go through the one port.
    let sram = report.memories.iter().find(|m| m.kind == "SRAM");
    assert!(sram.is_some_and(|m| m.reads > 0 && m.writes > 0));
}

/// One tensor `A` bound to two launch arguments `a1`, `a2`, plus `C`, on a
/// `mem_kind` memory. Three loop nests, all fused in their innermost loop:
/// fill `a1[i][k] = i + k`; increment through one alias and read back
/// through the other (`a2[i][k] = a1[i][k] + 1; c[i][k] = a1[i][k]`); then
/// `C += A·A` loading `a1[i][k] * a2[k][j]`.
fn aliased_matmul(n: usize, mem_kind: &str) -> Module {
    use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::ARM_R5);
    let mem = b.create_mem(mem_kind, &[2 * n * n], 32, 4);
    let a = b.alloc(mem, &[n, n], Type::I32);
    let c = b.alloc(mem, &[n, n], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[a, a, c], vec![]);
    let (a1, a2, vc) = (l.body_args[0], l.body_args[1], l.body_args[2]);
    let n = n as i64;
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let one = ib.const_int(1, Type::I32);
        // Fill.
        let (_, bi, i) = ib.affine_for(0, n, 1);
        let mut ob = OpBuilder::at_end(ib.module_mut(), bi);
        let (_, bk, k) = ob.affine_for(0, n, 1);
        {
            let mut kb = OpBuilder::at_end(ob.module_mut(), bk);
            let v = kb.addi(i, k);
            kb.affine_store(v, a1, vec![i, k]);
            kb.affine_yield();
        }
        OpBuilder::at_end(&mut m, bi).affine_yield();
        // Store through one alias, load through the other.
        let mut ib = OpBuilder::at_end(&mut m, l.body);
        let (_, bi, i) = ib.affine_for(0, n, 1);
        let mut ob = OpBuilder::at_end(ib.module_mut(), bi);
        let (_, bk, k) = ob.affine_for(0, n, 1);
        {
            let mut kb = OpBuilder::at_end(ob.module_mut(), bk);
            let x = kb.affine_load(a1, vec![i, k]);
            let y = kb.addi(x, one);
            kb.affine_store(y, a2, vec![i, k]);
            let z = kb.affine_load(a1, vec![i, k]);
            kb.affine_store(z, vc, vec![i, k]);
            kb.affine_yield();
        }
        OpBuilder::at_end(&mut m, bi).affine_yield();
        // C += A·A.
        let mut ib = OpBuilder::at_end(&mut m, l.body);
        let (_, bi, i) = ib.affine_for(0, n, 1);
        let mut ob = OpBuilder::at_end(ib.module_mut(), bi);
        let (_, bj, j) = ob.affine_for(0, n, 1);
        let mut jb = OpBuilder::at_end(ob.module_mut(), bj);
        let (_, bk, k) = jb.affine_for(0, n, 1);
        {
            let mut kb = OpBuilder::at_end(jb.module_mut(), bk);
            let x = kb.affine_load(a1, vec![i, k]);
            let y = kb.affine_load(a2, vec![k, j]);
            let acc = kb.affine_load(vc, vec![i, j]);
            let prod = kb.muli(x, y);
            let sum = kb.addi(acc, prod);
            kb.affine_store(sum, vc, vec![i, j]);
            kb.affine_yield();
        }
        OpBuilder::at_end(&mut m, bj).affine_yield();
        OpBuilder::at_end(&mut m, bi).affine_yield();
        OpBuilder::at_end(&mut m, l.body).ret(vec![]);
    }
    let done = l.done;
    OpBuilder::at_end(&mut m, blk).await_all(vec![done]);
    m
}

/// Plain-Rust reference for [`aliased_matmul`]'s final `C`.
fn aliased_matmul_reference(n: usize) -> Vec<i64> {
    let a: Vec<i64> = (0..n * n).map(|x| (x / n + x % n) as i64 + 1).collect();
    let mut c: Vec<i64> = (0..n * n).map(|x| (x / n + x % n) as i64 + 1).collect();
    for i in 0..n {
        for j in 0..n {
            for k in 0..n {
                c[i * n + j] += a[i * n + k] * a[k * n + j];
            }
        }
    }
    c
}

#[test]
fn one_tensor_bound_to_two_slots_is_bit_identical() {
    // Both slots hoist one vector: a store through one alias is visible to
    // the next load through the other, inside the same trace. The SRAM
    // variant has a nonzero access cost, so bulk segments reserve ports
    // through `Memory::access` at each op's clock.
    use equeue_dialect::kinds;
    for kind in [kinds::REGISTER, kinds::SRAM] {
        let n = 12;
        let module = aliased_matmul(n, kind);
        let lib = SimLibrary::standard();
        let fused = simulate_with(&module, &lib, &options(Backend::Fused)).unwrap();
        let interp = simulate_with(&module, &lib, &options(Backend::Interp)).unwrap();
        assert_reports_identical(kind, &fused, &interp);
        assert_eq!(fused.fused_trace_entries, (2 * n + n * n) as u64, "{kind}");
        // `C` is the second allocation.
        let c = fused.buffers.iter().find(|d| d.index == 1);
        assert_eq!(
            c.and_then(|d| d.data.data.as_ints()),
            Some(&aliased_matmul_reference(n)[..]),
            "{kind}"
        );
    }
}

/// A single `affine.for` over `0..upper` reading and writing `v[row][k]`
/// of a `3 × n` buffer, `row` a loop-invariant constant. With
/// `upper == n + 1` the last iteration's column is out of range although
/// its flat index (`row·n + n`) is still inside the buffer.
fn strided_row_loop(n: usize, upper: i64, row: i64, mem_kind: &str) -> Module {
    use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let mem = b.create_mem(mem_kind, &[3 * n], 32, 2);
    let buf = b.alloc(mem, &[3, n], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let v = l.body_args[0];
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let one = ib.const_int(1, Type::I32);
        let r = ib.const_index(row);
        let (_, body, k) = ib.affine_for(0, upper, 1);
        {
            let mut lb = OpBuilder::at_end(ib.module_mut(), body);
            let x = lb.affine_load(v, vec![r, k]);
            let y = lb.addi(x, one);
            lb.affine_store(y, v, vec![r, k]);
            lb.affine_yield();
        }
        ib.ret(vec![]);
    }
    let done = l.done;
    OpBuilder::at_end(&mut m, blk).await_all(vec![done]);
    m
}

#[test]
fn strided_segment_whose_last_iteration_is_out_of_range() {
    // The segment stops before the out-of-range column (a per-dimension
    // bound, not the flat buffer length), so the exact path raises the
    // interpreter's error. Row -1 checks the negative-subscript clamp.
    use equeue_dialect::kinds;
    let n = 3000;
    let lib = SimLibrary::standard();
    for kind in [kinds::REGISTER, kinds::SRAM] {
        for row in [1, -1] {
            let module = strided_row_loop(n, n as i64 + 1, row, kind);
            let fused = simulate_with(&module, &lib, &options(Backend::Fused)).unwrap_err();
            let interp = simulate_with(&module, &lib, &options(Backend::Interp)).unwrap_err();
            assert_eq!(fused, interp, "{kind} row {row}");
            assert_eq!(
                fused,
                SimError::Runtime(format!("index {n} out of range for dim 1 (size {n})")),
                "{kind} row {row}"
            );
            // In range, the same loop completes bit-identically.
            differential(kind, &strided_row_loop(n, n as i64, row, kind));
        }
    }
}

#[test]
fn trace_enabled_runs_agree_with_fused_counters() {
    // A traced run keeps fusion on: it enters as many traces as a quiet
    // fused run, its simulated state matches the quiet run exactly, and
    // its trace matches the interpreter's byte for byte.
    let module = scenarios::matmul_affine(8);
    let lib = SimLibrary::standard();
    let traced = |backend| SimOptions {
        trace: true,
        ..options(backend)
    };
    let fused = simulate_with(&module, &lib, &traced(Backend::Fused)).unwrap();
    let interp = simulate_with(&module, &lib, &traced(Backend::Interp)).unwrap();
    let quiet = simulate_with(&module, &lib, &options(Backend::Fused)).unwrap();
    assert!(!fused.trace.is_empty(), "tracing must stay functional");
    assert_eq!(fused.fused_trace_entries, 8 * 8, "traced runs fuse");
    assert_eq!(fused.fused_trace_entries, quiet.fused_trace_entries);
    assert_full_reports_identical("traced vs quiet", &fused, &quiet);
    assert!(fused.trace.to_chrome_json() == interp.trace.to_chrome_json());
}

/// A program touching every surface the faults target (mirrors the core
/// crate's fault-injection fixture): memory, launch, `affine.for`, ext op.
fn fault_target() -> Module {
    use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let mem = b.create_mem(kinds::SRAM, &[64], 32, 2);
    let buf = b.alloc(mem, &[16], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let c = ib.const_int(2, Type::I32);
        let (_, body, _iv) = ib.affine_for(0, 8, 1);
        {
            let mut lb = OpBuilder::at_end(ib.module_mut(), body);
            lb.muli(c, c);
            lb.affine_yield();
        }
        ib.read(l.body_args[0], None);
        ib.ext_op("mac", vec![], vec![]);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

/// Runs one module under both backends and asserts outcome agreement:
/// identical reports on success, identical [`SimError`] kinds on failure.
/// Panics in either backend fail the test.
fn assert_outcomes_agree(name: &str, module: &Module) {
    let lib = SimLibrary::standard();
    let run = |backend| {
        catch_unwind(AssertUnwindSafe(|| {
            simulate_with(module, &lib, &bounded(backend))
        }))
        .unwrap_or_else(|_| panic!("{name}: panicked under {backend:?}"))
    };
    match (run(Backend::Fused), run(Backend::Interp)) {
        (Ok(f), Ok(i)) => assert_reports_identical(name, &f, &i),
        (Err(f), Err(i)) => assert_eq!(
            std::mem::discriminant(&f),
            std::mem::discriminant(&i),
            "{name}: error kinds diverge (fused: {f}, interp: {i})"
        ),
        (f, i) => panic!(
            "{name}: outcomes diverge (fused: {}, interp: {})",
            summarize(&f),
            summarize(&i)
        ),
    }
}

fn summarize(r: &Result<SimReport, SimError>) -> String {
    match r {
        Ok(rep) => format!("ok, {} cycles", rep.cycles),
        Err(e) => format!("err: {e}"),
    }
}

#[test]
fn fault_matrix_outcomes_agree_across_backends() {
    let matrix: Vec<(&str, Vec<Fault>)> = vec![
        ("zero-faults", vec![]),
        (
            "rename-to-unknown-op",
            vec![Fault::RenameOp {
                nth: 6,
                to: "bogus.op".into(),
            }],
        ),
        (
            "rename-breaks-arity",
            vec![Fault::RenameOp {
                nth: 2,
                to: "equeue.launch".into(),
            }],
        ),
        ("drop-operand", vec![Fault::DropOperand { nth: 0 }]),
        ("drop-third-operand", vec![Fault::DropOperand { nth: 2 }]),
        ("zero-loop-step", vec![Fault::ZeroLoopStep { nth: 0 }]),
        (
            "ext-op-small-latency",
            vec![Fault::ExtOpCycles { nth: 0, cycles: 17 }],
        ),
        (
            "ext-op-huge-latency",
            vec![Fault::ExtOpCycles {
                nth: 0,
                cycles: i64::MAX,
            }],
        ),
        (
            "corrupt-shape-negative",
            vec![Fault::CorruptShape {
                nth: 0,
                dims: vec![-4],
            }],
        ),
        (
            "corrupt-shape-overflow",
            vec![Fault::CorruptShape {
                nth: 0,
                dims: vec![i64::MAX, i64::MAX],
            }],
        ),
        ("drop-regions", vec![Fault::DropRegions { nth: 0 }]),
        (
            "stacked-faults",
            vec![
                Fault::DropOperand { nth: 2 },
                Fault::ZeroLoopStep { nth: 0 },
                Fault::CorruptShape {
                    nth: 0,
                    dims: vec![-1],
                },
            ],
        ),
    ];
    // Besides the fixture, perturb a Linalg-level, an affine-loop, and an
    // ext-op-heavy scenario so each fault kind meets ops it can land on.
    let targets = [
        ("fault_target", fault_target()),
        ("matmul8_linalg", scenarios::matmul_linalg(8)),
        ("matmul4_affine", scenarios::matmul_affine(4)),
        (
            "fir_single_core",
            generate_fir(FirSpec::default(), FirCase::SingleCore).module,
        ),
    ];
    for (name, faults) in &matrix {
        for (target, module) in &targets {
            let mut m = module.clone();
            apply_faults(&mut m, faults);
            assert_outcomes_agree(&format!("{name} on {target}"), &m);
        }
    }

    // Zero faults applied leaves a scenario bit-identical to its golden,
    // unperturbed run under both backends.
    let golden = equeue_bench::run_quiet(&scenarios::matmul_linalg(8));
    for backend in [Backend::Fused, Backend::Interp] {
        let mut unfaulted = scenarios::matmul_linalg(8);
        assert_eq!(apply_faults(&mut unfaulted, &[]), 0);
        let again = simulate_with(&unfaulted, &SimLibrary::standard(), &options(backend))
            .unwrap_or_else(|e| panic!("zero-fault matmul8_linalg ({backend:?}): {e}"));
        assert_reports_identical(&format!("zero-fault {backend:?}"), &golden, &again);
    }
}

// ---------------------------------------------------------------------------
// Malformed-IR fuzzer corpus (mirrors `fuzz_malformed_ir`, but differential)
// ---------------------------------------------------------------------------

const CORPUS: &[&str] = &[
    r#"
%kernel = "equeue.create_proc"() {kind = "MAC"} : () -> !equeue.proc
%mem = "equeue.create_mem"() {banks = 1, data_bits = 32, kind = "SRAM", shape = [8]} : () -> !equeue.mem
%buf = "equeue.alloc"(%mem) : (!equeue.mem) -> !equeue.buffer<4xi32>
%start = "equeue.control_start"() : () -> !equeue.signal
%done = "equeue.launch"(%start, %kernel, %buf) ({
^bb0(%b: !equeue.buffer<4xi32>):
  %data = "equeue.read"(%b) {segments = [1, 0, 0]} : (!equeue.buffer<4xi32>) -> tensor<4xi32>
  "equeue.return"() : () -> ()
}) : (!equeue.signal, !equeue.proc, !equeue.buffer<4xi32>) -> !equeue.signal
"equeue.await"(%done) : (!equeue.signal) -> ()
"#,
    r#"
%c0 = "arith.constant"() {value = 0} : () -> i32
%c1 = "arith.constant"() {value = 1} : () -> i32
%sum = "arith.addi"(%c0, %c1) : (i32, i32) -> i32
"affine.for"() ({
^bb0(%i: index):
  %sq = "arith.muli"(%sum, %sum) : (i32, i32) -> i32
  "affine.yield"() : () -> ()
}) {lower = 0, step = 1, upper = 4} : () -> ()
"#,
];

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// One random byte-level mutation of `text` (flip / overwrite / truncate /
/// line deletion) — enough to knock programs into every error path while
/// keeping some mutants parseable so the execution differential is live.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.below(4) {
        0 => {
            let at = rng.below(bytes.len() + 1);
            bytes.truncate(at);
        }
        1 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        2 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] = b' ' + (rng.below(95) as u8);
            }
        }
        _ => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                lines.remove(rng.below(lines.len()));
            }
            bytes = lines.join("\n").into_bytes();
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn fuzzer_corpus_outcomes_agree_across_backends() {
    let mut rng = Rng(0x5EED_CAFE_F00D_D1FF);
    let mut executed = 0u32;
    for round in 0..300u32 {
        let base = CORPUS[rng.below(CORPUS.len())];
        let text = mutate(&mut rng, base);
        // Parse + compile once: failures there are backend-independent by
        // construction, so the differential only matters for modules that
        // reach execution.
        let Ok(compiled) = CompiledModule::compile_text(&text, SimLibrary::standard()) else {
            continue;
        };
        executed += 1;
        let run = |backend| {
            catch_unwind(AssertUnwindSafe(|| compiled.simulate(&bounded(backend))))
                .unwrap_or_else(|_| panic!("round {round}: panicked under {backend:?}\n{text}"))
        };
        match (run(Backend::Fused), run(Backend::Interp)) {
            (Ok(f), Ok(i)) => assert_reports_identical("fuzz", &f, &i),
            (Err(f), Err(i)) => assert_eq!(
                std::mem::discriminant(&f),
                std::mem::discriminant(&i),
                "round {round}: error kinds diverge (fused: {f}, interp: {i})\n{text}"
            ),
            (f, i) => panic!(
                "round {round}: outcomes diverge (fused: {}, interp: {})\n{text}",
                summarize(&f),
                summarize(&i)
            ),
        }
    }
    // The corpus must actually exercise the execution differential, not
    // just the parser.
    assert!(executed >= 20, "only {executed} mutants reached execution");
}
