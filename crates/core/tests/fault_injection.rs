//! Fault-injection matrix: every [`Fault`] kind applied to a realistic
//! program must surface as a typed [`SimError`] (or complete cleanly under
//! limits) — never a panic — and the zero-fault run must stay bit-identical
//! to the golden run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use equeue_core::fault::{apply_faults, Fault};
use equeue_core::{
    simulate_with, CompiledModule, RunLimits, SimError, SimLibrary, SimOptions, SimReport,
    MAX_CACHE_GEOMETRY, MAX_CYCLE_COST,
};
use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder, MAX_MEM_PORTS};
use equeue_ir::{Module, OpBuilder, Type};

/// A program touching every surface the faults target: a memory with a
/// shape, a launch with a body, an `affine.for`, an `equeue.op`, and ops
/// with operands — so every fault kind has a live target.
fn base_program() -> Module {
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

fn bounded_options() -> SimOptions {
    SimOptions {
        trace: false,
        limits: RunLimits {
            max_cycles: 10_000_000,
            max_events: 1_000_000,
            max_live_tensor_bytes: 64 << 20,
            wall_deadline: Some(Duration::from_secs(5)),
        },
        cancel: None,
        ..Default::default()
    }
}

fn run(m: &Module) -> Result<SimReport, SimError> {
    simulate_with(m, &SimLibrary::standard(), &bounded_options())
}

#[test]
fn zero_fault_runs_stay_bit_identical_to_golden() {
    let golden = run(&base_program()).unwrap();

    let mut injected = base_program();
    assert_eq!(apply_faults(&mut injected, &[]), 0);
    let report = run(&injected).unwrap();

    assert_eq!(report.cycles, golden.cycles);
    assert_eq!(report.events_processed, golden.events_processed);
    assert_eq!(report.ops_interpreted, golden.ops_interpreted);
    assert_eq!(report.buffers, golden.buffers);
}

#[test]
fn every_fault_kind_yields_a_typed_error_or_clean_run() {
    // (name, faults, may_succeed): a landed fault must either produce a
    // typed SimError or — for purely quantitative perturbations like a
    // latency change — a clean bounded run. Panics always fail the test.
    let matrix: Vec<(&str, Vec<Fault>, bool)> = vec![
        (
            "rename-to-unknown-op",
            vec![Fault::RenameOp {
                nth: 6,
                to: "bogus.op".into(),
            }],
            false,
        ),
        (
            "rename-breaks-arity",
            // The alloc op's (mem) operand list is the wrong shape for a
            // launch, which needs (signal, proc, ...).
            vec![Fault::RenameOp {
                nth: 2,
                to: "equeue.launch".into(),
            }],
            false,
        ),
        ("drop-operand", vec![Fault::DropOperand { nth: 0 }], false),
        (
            "zero-loop-step",
            vec![Fault::ZeroLoopStep { nth: 0 }],
            false,
        ),
        (
            "ext-op-small-latency",
            vec![Fault::ExtOpCycles { nth: 0, cycles: 17 }],
            true,
        ),
        (
            "ext-op-huge-latency",
            vec![Fault::ExtOpCycles {
                nth: 0,
                cycles: i64::MAX,
            }],
            false,
        ),
        (
            "corrupt-shape-negative",
            vec![Fault::CorruptShape {
                nth: 0,
                dims: vec![-4],
            }],
            false,
        ),
        (
            "corrupt-shape-overflow",
            vec![Fault::CorruptShape {
                nth: 0,
                dims: vec![i64::MAX, i64::MAX],
            }],
            false,
        ),
        ("drop-regions", vec![Fault::DropRegions { nth: 0 }], false),
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
            false,
        ),
    ];

    for (name, faults, may_succeed) in matrix {
        let mut m = base_program();
        let landed = apply_faults(&mut m, &faults);
        assert!(landed > 0, "{name}: no fault landed");

        let outcome = catch_unwind(AssertUnwindSafe(|| run(&m)));
        match outcome {
            Ok(Ok(_)) => {
                assert!(may_succeed, "{name}: expected a SimError, run succeeded");
            }
            Ok(Err(err)) => {
                // Every failure is a typed variant by construction; spot-check
                // the Display is non-empty and carries context.
                assert!(!err.to_string().is_empty(), "{name}");
            }
            Err(_) => panic!("{name}: simulation panicked"),
        }
    }
}

#[test]
fn huge_latency_fault_hits_cycle_limit_with_progress() {
    let mut m = base_program();
    assert_eq!(
        apply_faults(
            &mut m,
            &[Fault::ExtOpCycles {
                nth: 0,
                cycles: i64::MAX,
            }],
        ),
        1
    );
    let err = run(&m).unwrap_err();
    match err {
        SimError::Limit(l) => assert!(l.progress.events > 0, "{:?}", l.progress),
        // Saturating clock arithmetic may instead surface as a runtime or
        // deadlock error; any typed error is acceptable, panics are not.
        other => assert!(!other.to_string().is_empty()),
    }
}

// ---------------------------------------------------------------------------
// Pinned diagnostics: one row per malformed-op class
// ---------------------------------------------------------------------------

/// Shared definitions the malformed ops below refer to.
const PRELUDE: &str = r#"
%p = "equeue.create_proc"() {kind = "MAC"} : () -> !equeue.proc
%m = "equeue.create_mem"() {banks = 1, data_bits = 32, kind = "SRAM", shape = [64]} : () -> !equeue.mem
%b = "equeue.alloc"(%m) : (!equeue.mem) -> !equeue.buffer<4xi32>
%s = "equeue.control_start"() : () -> !equeue.signal
%c = "arith.constant"() {value = 1} : () -> i32
"#;

fn layout(op: &str, msg: &str) -> SimError {
    SimError::Layout {
        op: op.into(),
        msg: msg.into(),
    }
}

/// Ops the layout prepass rejects: `(class, op text, error)`. Both paths
/// report the same [`SimError::Layout`]: eagerly from
/// `CompiledModule::compile`, lazily from `simulate_with` when the op runs.
fn decode_failures() -> Vec<(&'static str, &'static str, SimError)> {
    vec![
        (
            "create_proc without kind",
            r#"%x = "equeue.create_proc"() : () -> !equeue.proc"#,
            layout(
                "equeue.create_proc",
                "op 'equeue.create_proc' missing attribute 'kind'",
            ),
        ),
        (
            "create_mem without shape",
            r#"%x = "equeue.create_mem"() {kind = "SRAM"} : () -> !equeue.mem"#,
            layout("equeue.create_mem", "create_mem missing shape"),
        ),
        (
            "create_mem without kind",
            r#"%x = "equeue.create_mem"() {shape = [8]} : () -> !equeue.mem"#,
            layout(
                "equeue.create_mem",
                "op 'equeue.create_mem' missing attribute 'kind'",
            ),
        ),
        (
            // 2^61 ports: allocating a free time per port fails outright.
            "create_mem with more ports than the cap",
            r#"%x = "equeue.create_mem"() {kind = "SRAM", ports = 2305843009213693952, shape = [8]} : () -> !equeue.mem"#,
            layout(
                "equeue.create_mem",
                &format!(
                    "create_mem ports must be in 1..={MAX_MEM_PORTS}, got 2305843009213693952"
                ),
            ),
        ),
        (
            "create_mem whose banks do not fit u32",
            r#"%x = "equeue.create_mem"() {banks = 4294967296, kind = "SRAM", shape = [8]} : () -> !equeue.mem"#,
            layout(
                "equeue.create_mem",
                "create_mem banks must be in 1..=4294967295, got 4294967296",
            ),
        ),
        (
            "create_mem whose data_bits do not fit u32",
            r#"%x = "equeue.create_mem"() {data_bits = 4294967304, kind = "SRAM", shape = [8]} : () -> !equeue.mem"#,
            layout(
                "equeue.create_mem",
                "create_mem data_bits must be in 1..=4294967295, got 4294967304",
            ),
        ),
        (
            // Times the number of elements read, it overflowed the clock.
            "SRAM whose cycles per access exceed the bound",
            r#"%x = "equeue.create_mem"() {cycles_per_access = 9223372036854775807, kind = "SRAM", shape = [8]} : () -> !equeue.mem"#,
            layout(
                "equeue.create_mem",
                &format!(
                    "create_mem cycles_per_access must be in 0..={MAX_CYCLE_COST}, got 9223372036854775807"
                ),
            ),
        ),
        (
            // 2^62 sets: allocating a tag stack per set fails outright.
            "cache with more sets than the cap",
            r#"%x = "equeue.create_mem"() {kind = "Cache", sets = 4611686018427387904, shape = [8]} : () -> !equeue.mem"#,
            layout(
                "equeue.create_mem",
                &format!(
                    "create_mem sets must be in 1..={MAX_CACHE_GEOMETRY}, got 4611686018427387904"
                ),
            ),
        ),
        (
            "create_comp without names",
            r#"%x = "equeue.create_comp"(%p) : (!equeue.proc) -> !equeue.comp"#,
            layout("equeue.create_comp", "equeue.create_comp missing names"),
        ),
        (
            "add_comp without operands",
            r#""equeue.add_comp"() {names = ["a"]} : () -> ()"#,
            layout("equeue.add_comp", "op 'equeue.add_comp' missing operand 0"),
        ),
        (
            "get_comp without name",
            r#"%x = "equeue.get_comp"(%p) : (!equeue.proc) -> !equeue.proc"#,
            layout(
                "equeue.get_comp",
                "op 'equeue.get_comp' missing attribute 'name'",
            ),
        ),
        (
            "connection of unknown kind",
            r#"%x = "equeue.create_connection"() {bandwidth = 4, kind = "Telepathy"} : () -> !equeue.conn"#,
            layout("equeue.create_connection", "bad connection kind Telepathy"),
        ),
        (
            "alloc of a non-buffer",
            r#"%x = "equeue.alloc"(%m) : (!equeue.mem) -> i32"#,
            layout("equeue.alloc", "alloc result must be a buffer, got i32"),
        ),
        (
            "alloc without result",
            r#""equeue.alloc"(%m) : (!equeue.mem) -> ()"#,
            layout("equeue.alloc", "op 'equeue.alloc' missing its result"),
        ),
        (
            "memref.alloc of a non-memref",
            r#"%x = "memref.alloc"() : () -> i32"#,
            layout("memref.alloc", "memref.alloc result i32"),
        ),
        (
            "dealloc without operand",
            r#""memref.dealloc"() : () -> ()"#,
            layout("memref.dealloc", "op 'memref.dealloc' missing operand 0"),
        ),
        (
            "read without segments",
            r#"%x = "equeue.read"(%b) : (!equeue.buffer<4xi32>) -> i32"#,
            layout("equeue.read", "equeue.read needs 'segments'"),
        ),
        (
            "write with inconsistent segments",
            r#""equeue.write"(%c, %b) {segments = [1, 1, 2, 0]} : (i32, !equeue.buffer<4xi32>) -> ()"#,
            layout(
                "equeue.write",
                "equeue.write segments do not match operands",
            ),
        ),
        (
            "memcpy with short segments",
            r#"%x = "equeue.memcpy"(%s, %b, %b, %p) {segments = [1, 1, 1, 1]} : (!equeue.signal, !equeue.buffer<4xi32>, !equeue.buffer<4xi32>, !equeue.proc) -> !equeue.signal"#,
            layout(
                "equeue.memcpy",
                "equeue.memcpy 'segments' must have 5 entries",
            ),
        ),
        (
            "launch without a processor",
            r#"%x = "equeue.launch"(%s) ({
  "equeue.return"() : () -> ()
}) : (!equeue.signal) -> !equeue.signal"#,
            layout(
                "equeue.launch",
                "equeue.launch needs (dep, proc, captures...) (launch op)",
            ),
        ),
        (
            "equeue.op without signature",
            r#""equeue.op"() : () -> ()"#,
            layout("equeue.op", "op 'equeue.op' missing attribute 'signature'"),
        ),
        (
            "affine.for with zero step",
            r#""affine.for"() ({
^bb0(%i: index):
  "affine.yield"() : () -> ()
}) {lower = 0, step = 0, upper = 4} : () -> ()"#,
            layout("affine.for", "affine.for step must be positive, got 0"),
        ),
        (
            "affine.for without an induction variable",
            r#""affine.for"() ({
  "affine.yield"() : () -> ()
}) {lower = 0, step = 1, upper = 4} : () -> ()"#,
            layout("affine.for", "affine.for body needs an iv"),
        ),
        (
            "affine.parallel with mismatched bounds",
            r#""affine.parallel"() ({
^bb0(%i: index):
  "affine.yield"() : () -> ()
}) {lowers = [0, 0], steps = [1], uppers = [4]} : () -> ()"#,
            layout(
                "affine.parallel",
                "affine.parallel bounds mismatch: 2 lowers, 1 uppers, 1 steps, 1 ivs",
            ),
        ),
        (
            "conv2d with one operand",
            r#""linalg.conv2d"(%b) : (!equeue.buffer<4xi32>) -> ()"#,
            layout(
                "linalg.conv2d",
                "linalg.conv2d needs (ifmap, weights, ofmap)",
            ),
        ),
        (
            "binary op with one operand",
            r#"%x = "arith.addi"(%c) : (i32) -> i32"#,
            layout("arith.addi", "'arith.addi' needs exactly two operands"),
        ),
        (
            "constant without result",
            r#""arith.constant"() {value = 1} : () -> ()"#,
            layout("arith.constant", "op 'arith.constant' missing its result"),
        ),
        (
            "cmpi without predicate",
            r#"%x = "arith.cmpi"(%c, %c) : (i32, i32) -> i1"#,
            layout(
                "arith.cmpi",
                "op 'arith.cmpi' missing attribute 'predicate'",
            ),
        ),
    ]
}

/// Ops that decode but fail when executed: `compile` accepts them and both
/// paths report the same error from the run.
fn execution_failures() -> Vec<(&'static str, &'static str, SimError)> {
    vec![
        (
            "unknown op",
            r#""bogus.op"() : () -> ()"#,
            SimError::Unsupported("op 'bogus.op' is not simulatable".into()),
        ),
        (
            "equeue.op with unknown signature",
            r#""equeue.op"() {signature = "warp_drive"} : () -> ()"#,
            SimError::Unsupported(
                "no simulator-library implementation for equeue.op signature 'warp_drive'".into(),
            ),
        ),
        (
            "cmpi with unknown predicate",
            r#"%x = "arith.cmpi"(%c, %c) {predicate = "sometimes"} : (i32, i32) -> i1"#,
            SimError::Runtime("unknown cmpi predicate 'sometimes'".into()),
        ),
        (
            "binary op of unknown name",
            r#"%x = "arith.frobi"(%c, %c) : (i32, i32) -> i32"#,
            SimError::Runtime("unknown binary op 'arith.frobi'".into()),
        ),
        (
            "binary op of unknown name on empty tensors",
            r#"%e = "equeue.alloc"(%m) : (!equeue.mem) -> !equeue.buffer<0xi32>
%t = "equeue.read"(%e) {segments = [1, 0, 0]} : (!equeue.buffer<0xi32>) -> tensor<0xi32>
%x = "arith.frobi"(%t, %t) : (tensor<0xi32>, tensor<0xi32>) -> tensor<0xi32>"#,
            SimError::Runtime("unknown binary op 'arith.frobi'".into()),
        ),
        (
            "create_comp with more names than children",
            r#"%x = "equeue.create_comp"(%p) {names = ["a", "b"]} : (!equeue.proc) -> !equeue.comp"#,
            SimError::Port("create_comp has 2 names for 1 children".into()),
        ),
        (
            "get_comp of a missing child",
            r#"%x = "equeue.create_comp"(%p) {names = ["pe"]} : (!equeue.proc) -> !equeue.comp
%y = "equeue.get_comp"(%x) {name = "dma"} : (!equeue.comp) -> !equeue.proc"#,
            SimError::Port("component 'Comp#3' has no child 'dma'".into()),
        ),
        (
            "create_mem whose capacity overflows",
            r#"%x = "equeue.create_mem"() {kind = "SRAM", shape = [4294967296, 4294967296]} : () -> !equeue.mem"#,
            SimError::Port("memory shape [4294967296, 4294967296] capacity overflows".into()),
        ),
    ]
}

fn with_prelude(op: &str) -> Module {
    equeue_ir::parse_module(&format!("{PRELUDE}{op}\n")).expect("test IR parses")
}

fn assert_error(class: &str, path: &str, got: Result<SimReport, SimError>, want: &SimError) {
    let err = match got {
        Ok(_) => panic!("{class}: {path} succeeded, expected {want}"),
        Err(e) => e,
    };
    assert_eq!(&err, want, "{class}: {path}");
    assert_eq!(err.to_string(), want.to_string(), "{class}: {path}");
}

#[test]
fn decode_failures_report_the_same_layout_error_on_both_paths() {
    for (class, op, want) in decode_failures() {
        let err =
            CompiledModule::compile(with_prelude(op), SimLibrary::standard()).expect_err(class);
        assert_eq!(err, want, "{class}: compile");
        assert_eq!(err.to_string(), want.to_string(), "{class}: compile");
        assert_error(class, "simulate_with", run(&with_prelude(op)), &want);
    }
}

#[test]
fn execution_failures_compile_and_fail_when_run() {
    for (class, op, want) in execution_failures() {
        let compiled = CompiledModule::compile(with_prelude(op), SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{class}: compile rejected it: {e}"));
        assert_error(
            class,
            "compiled run",
            compiled.simulate(&bounded_options()),
            &want,
        );
        assert_error(class, "simulate_with", run(&with_prelude(op)), &want);
    }
}

#[test]
fn dead_malformed_ops_fail_compile_but_not_simulate_with() {
    for (class, op, want) in decode_failures() {
        // The op sits in a loop that never runs.
        let text = format!(
            "{PRELUDE}\"affine.for\"() ({{\n^bb0(%i: index):\n{op}\n  \"affine.yield\"() : () -> ()\n}}) {{lower = 0, step = 1, upper = 0}} : () -> ()\n"
        );
        let module = equeue_ir::parse_module(&text).expect("test IR parses");
        let err = CompiledModule::compile(module.clone(), SimLibrary::standard()).expect_err(class);
        assert_eq!(err, want, "{class}: compile");
        assert!(
            run(&module).is_ok(),
            "{class}: a dead op failed simulate_with"
        );
    }
}

#[test]
fn compile_names_the_first_invalid_op() {
    let (_, first, want) = &decode_failures()[0];
    let (_, second, _) = &decode_failures()[1];
    let module = with_prelude(&format!("{first}\n{second}"));
    let err = CompiledModule::compile(module, SimLibrary::standard()).unwrap_err();
    assert_eq!(&err, want);
}
