//! Pins the verifier's observable behaviour: which modules `verify_module`
//! accepts, and the exact text of the first violation it reports for the
//! others, plus what `PassManager` reports when it runs the `equeue-opt`
//! lowering recipe over the same modules.
//!
//! Every module contributes records to one FNV-1a digest: `ok` or the
//! error text of `verify_module` with the standard registry and with an
//! empty one, then the recipe's pass names and its outcome (the live op
//! count after it, or the error text). The modules are every input the
//! parse pin accepts (hand-written corners, the malformed-IR fuzzer's
//! accepted mutants and truncations, the corpus, printed generator modules
//! and conv texts), the generator modules themselves, and corruptions
//! built through the API. A verifier change
//! that accepts or rejects another module, reports another violation
//! first, or words a message differently moves the digest.

use equeue::dialect::{kinds, standard_registry, ConvDims, EqueueBuilder, MAX_MEM_PORTS};
use equeue::gen::{
    generate_fir, generate_systolic, scenarios::golden_scenarios, FirCase, FirSpec, SystolicSpec,
};
use equeue::ir::{
    parse_module, print_module, verify_module, AttrMap, DialectRegistry, Module, OpBuilder,
    PassManager, Type, ValueId,
};
use equeue::passes::{
    AllocateMemory, ConvertLinalgToAffineLoops, Dataflow, EqueueReadWrite, WrapInLaunch,
};

#[path = "../crates/core/tests/malformed/mod.rs"]
mod malformed;
mod pin_inputs;

use pin_inputs::{conv_text, EDGES};

/// FNV-1a over the records, with outcome counts beside it so a mismatch
/// says at once whether modules moved between accepted and rejected.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    digest: u64,
    verified: usize,
    rejected: usize,
    pipelines_failed: usize,
}

impl Pin {
    fn new() -> Self {
        Pin {
            digest: 0xcbf2_9ce4_8422_2325,
            verified: 0,
            rejected: 0,
            pipelines_failed: 0,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Records `verify_module`'s outcome on `module` with the standard
    /// registry and with an empty one, then the recipe's outcome on a copy
    /// of it.
    fn module(&mut self, module: &Module) {
        for registry in [standard_registry(), DialectRegistry::new()] {
            match verify_module(module, &registry) {
                Ok(()) => {
                    self.verified += 1;
                    self.feed(b"verify ok\0");
                }
                Err(e) => {
                    self.rejected += 1;
                    self.feed(format!("verify err {e}\0").as_bytes());
                }
            }
        }
        self.recipe(&mut module.clone());
    }

    /// Runs the `equeue-opt` lowering recipe through `PassManager` and
    /// records the pipeline's pass names, then the live op count after
    /// it, or the error text.
    fn recipe(&mut self, module: &mut Module) {
        let first = |op: &str| module.find_first(op).map(|id| module.result(id, 0));
        let (Some(mem), Some(proc)) = (first("equeue.create_mem"), first("equeue.create_proc"))
        else {
            self.feed(b"recipe needs a memory and a processor\0");
            return;
        };
        let mut pm = PassManager::new(standard_registry());
        pm.add(AllocateMemory::new(mem))
            .add(ConvertLinalgToAffineLoops)
            .add(EqueueReadWrite)
            .add(WrapInLaunch::new(proc));
        for name in pm.pipeline() {
            self.feed(format!("pass {name}\0").as_bytes());
        }
        match pm.run(module) {
            Ok(()) => {
                let ops = module.live_ops().count();
                self.feed(format!("recipe ok {ops}\0").as_bytes());
            }
            Err(e) => {
                self.pipelines_failed += 1;
                self.feed(format!("recipe err {e}\0").as_bytes());
            }
        }
    }

    /// Parses `text` and records the module when it is accepted.
    fn text(&mut self, text: &str) {
        if let Ok(m) = parse_module(text) {
            self.module(&m);
        }
    }

    /// Records `module` as built, then as printed and parsed back.
    fn built(&mut self, module: &Module) {
        self.module(module);
        self.text(&print_module(module));
    }
}

/// A module holding one SRAM and a buffer in it.
fn module_with_buffer() -> (Module, ValueId) {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let mem = b.create_mem(kinds::SRAM, &[64], 32, 4);
    let buf = b.alloc(mem, &[8], Type::I32);
    (m, buf)
}

/// Appends a detached op named `name` to the top block.
fn push(m: &mut Module, name: &str, operands: Vec<ValueId>, results: Vec<Type>, attrs: AttrMap) {
    let op = m.create_op(name, operands, results, attrs, vec![]);
    m.append_op(m.top_block(), op);
}

/// A launch of an empty body on `target`, capturing `captures`.
fn launch_on(target: fn(&mut OpBuilder<'_>) -> ValueId, captures: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = target(&mut b);
    let mem = b.create_mem(kinds::SRAM, &[8], 32, 1);
    let buf = b.alloc(mem, &[4], Type::I32);
    let start = b.control_start();
    let (region, body) = b.region_with_block(vec![]);
    OpBuilder::at_end(b.module_mut(), body).ret(vec![]);
    let mut operands = vec![start, pe];
    operands.extend(std::iter::repeat_n(buf, captures));
    let op = m.create_op(
        "equeue.launch",
        operands,
        vec![Type::Signal],
        AttrMap::new(),
        vec![region],
    );
    m.append_op(m.top_block(), op);
    m
}

/// Modules built through the API that break one rule each: use before
/// definition, use of an erased op's result, a terminator that is not
/// last, and every rejection of the dialect's malformed-op tests.
fn corruptions() -> Vec<Module> {
    let mut out = vec![];

    let mut m = Module::new();
    let a = m.create_op("t.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
    let v = m.result(a, 0);
    push(&mut m, "t.u", vec![v], vec![], AttrMap::new());
    m.append_op(m.top_block(), a);
    out.push(m);

    let mut m = Module::new();
    let a = m.create_op("t.a", vec![], vec![Type::I32], AttrMap::new(), vec![]);
    m.append_op(m.top_block(), a);
    let v = m.result(a, 0);
    push(&mut m, "t.u", vec![v], vec![], AttrMap::new());
    let mut hidden = m.clone();
    m.erase_op(a);
    out.push(m);
    // A live op that lists the erased op's result among its own makes the
    // operand visible, so the erased-def check is the one that fires.
    hidden.op_mut(a).erased = true;
    let b = hidden.create_op("t.b", vec![], vec![], AttrMap::new(), vec![]);
    hidden.op_mut(b).results = vec![v].into();
    hidden.insert_op(hidden.top_block(), 0, b);
    out.push(hidden);

    let mut m = Module::new();
    push(&mut m, "affine.yield", vec![], vec![], AttrMap::new());
    push(&mut m, "t.after", vec![], vec![], AttrMap::new());
    out.push(m);

    let (mut m, buf) = module_with_buffer();
    push(
        &mut m,
        "equeue.read",
        vec![buf],
        vec![Type::I32],
        AttrMap::new(),
    );
    out.push(m);

    let (mut m, buf) = module_with_buffer();
    let mut attrs = AttrMap::new();
    attrs.set("segments", vec![1i64, 5, 0]);
    push(&mut m, "equeue.read", vec![buf], vec![Type::I32], attrs);
    out.push(m);

    let (mut m, buf) = module_with_buffer();
    let mut attrs = AttrMap::new();
    attrs.set("segments", vec![1i64, 1]);
    push(&mut m, "equeue.write", vec![buf, buf], vec![], attrs);
    out.push(m);

    let (mut m, buf) = module_with_buffer();
    let mut attrs = AttrMap::new();
    attrs.set("segments", vec![1i64, 1, 1, 1, 0]);
    push(
        &mut m,
        "equeue.memcpy",
        vec![buf, buf],
        vec![Type::Signal],
        attrs,
    );
    out.push(m);

    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let start = b.control_start();
    push(
        &mut m,
        "equeue.launch",
        vec![start, pe],
        vec![Type::Signal],
        AttrMap::new(),
    );
    out.push(m);

    out.push(launch_on(|b| b.create_proc(kinds::MAC), 1));
    out.push(launch_on(|b| b.create_mem(kinds::SRAM, &[8], 32, 1), 0));
    out.push(launch_on(|b| b.create_proc(kinds::MAC), 0));

    let mut m = Module::new();
    let blk = m.top_block();
    let s = OpBuilder::at_end(&mut m, blk).control_start();
    push(
        &mut m,
        "equeue.control_start",
        vec![s],
        vec![Type::Signal],
        AttrMap::new(),
    );
    out.push(m);

    let mut m = Module::new();
    let blk = m.top_block();
    OpBuilder::at_end(&mut m, blk)
        .op("equeue.create_mem")
        .attr("kind", "SRAM")
        .attr("shape", vec![8i64])
        .attr("data_bits", 32i64)
        .attr("banks", 0i64)
        .result(Type::Mem)
        .finish();
    out.push(m);

    let cap = MAX_MEM_PORTS as i64;
    for (name, value) in [
        ("ports", 2_305_843_009_213_693_952),
        ("ports", cap + 1),
        ("ports", 0),
        ("ports", -1),
        ("banks", 4_294_967_296),
        ("data_bits", 4_294_967_304),
        ("data_bits", 0),
    ] {
        let mut m = Module::new();
        let blk = m.top_block();
        OpBuilder::at_end(&mut m, blk)
            .op("equeue.create_mem")
            .attr("kind", "SRAM")
            .attr("shape", vec![8i64])
            .attr("data_bits", 32i64)
            .attr("banks", 1i64)
            .attr(name, value)
            .result(Type::Mem)
            .finish();
        out.push(m);
    }

    let mut m = Module::new();
    let blk = m.top_block();
    OpBuilder::at_end(&mut m, blk)
        .op("equeue.create_mem")
        .attr("kind", "SRAM")
        .attr("shape", vec![4_294_967_296i64, 4_294_967_296])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .result(Type::Mem)
        .finish();
    out.push(m);

    out.push(module_with_buffer().0);
    out
}

fn pin_all() -> Pin {
    let mut pin = Pin::new();
    for text in EDGES {
        pin.text(text);
    }
    for text in malformed::mutated_cases() {
        pin.text(&text);
    }
    for (_, _, text) in malformed::truncations() {
        pin.text(text);
    }
    for text in malformed::CORPUS {
        pin.text(text);
    }
    for case in FirCase::all() {
        pin.built(&generate_fir(FirSpec::default(), case).module);
    }
    for (ah, hw, f, c, n) in [(8, 8, 3, 2, 4), (16, 12, 4, 4, 8), (32, 6, 2, 3, 16)] {
        for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
            let spec = SystolicSpec {
                rows: ah,
                cols: 64 / ah,
                dataflow: df,
            };
            let prog = generate_systolic(&spec, ConvDims::square(hw, f, c, n));
            pin.built(&prog.module);
        }
    }
    for s in golden_scenarios() {
        pin.module(&s.module);
    }
    for (hw, f, c, n) in [(4, 2, 1, 1), (6, 2, 2, 2), (8, 3, 4, 1), (10, 3, 2, 3)] {
        let mut module = parse_module(&conv_text(hw, f, c, n)).expect("conv text parses");
        pin.module(&module);
        pin.recipe(&mut module);
        pin.built(&module);
    }
    for m in corruptions() {
        pin.module(&m);
    }
    pin
}

#[test]
fn verify_outcomes_match_the_pin() {
    let pin = pin_all();
    assert_eq!(
        pin,
        Pin {
            digest: 0x10dc_1109_aa52_2a62,
            verified: 861,
            rejected: 137,
            pipelines_failed: 100,
        }
    );
}
