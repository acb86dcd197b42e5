//! Pins the text front end's observable behaviour: what `parse_module`
//! accepts, how `print_module` prints it, and where and why it rejects
//! everything else.
//!
//! Every input contributes one record to an FNV-1a digest: an accepted
//! input its printed module, a rejected one its `(line, col, msg)`. The
//! inputs are hand-written corners of the language, the malformed-IR
//! fuzzer's 1,500 mutated programs and its truncation sweep, plus generator
//! modules printed, parsed and printed again, which must give back the same
//! bytes. A parser or printer change that alters the accepted language, a
//! printed byte or an error's location or message moves the digest.

use equeue::dialect::ConvDims;
use equeue::gen::{generate_fir, generate_systolic, FirCase, FirSpec, SystolicSpec};
use equeue::ir::{parse_module, print_module, IrError, Module, PassManager};
use equeue::passes::{
    AllocateMemory, ConvertLinalgToAffineLoops, Dataflow, EqueueReadWrite, WrapInLaunch,
};

#[path = "../crates/core/tests/malformed/mod.rs"]
mod malformed;

/// FNV-1a over the records, with the outcome counts beside it so a
/// mismatch says at once whether inputs moved between accepted and
/// rejected.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    digest: u64,
    accepted: usize,
    rejected: usize,
}

impl Pin {
    fn new() -> Self {
        Pin {
            digest: 0xcbf2_9ce4_8422_2325,
            accepted: 0,
            rejected: 0,
        }
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.digest ^= u64::from(b);
            self.digest = self.digest.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Records the outcome of parsing `text` and returns the printed module
    /// when it was accepted.
    fn parse(&mut self, text: &str) -> Option<String> {
        match parse_module(text) {
            Ok(m) => {
                let printed = print_module(&m);
                self.accepted += 1;
                self.feed(b"ok\0");
                self.feed(printed.as_bytes());
                self.feed(b"\0");
                Some(printed)
            }
            Err(IrError::Parse { line, col, msg }) => {
                self.rejected += 1;
                self.feed(format!("err {line}:{col}: {msg}\0").as_bytes());
                None
            }
            Err(other) => panic!("parse_module returned a non-parse error: {other:?}"),
        }
    }

    /// Prints `module`, parses the text back and checks that printing the
    /// result gives the same bytes.
    fn round_trip(&mut self, label: &str, module: &Module) {
        let text = print_module(module);
        let reprinted = self.parse(&text);
        assert_eq!(
            reprinted.as_deref(),
            Some(text.as_str()),
            "{label}: print -> parse -> print changed the text"
        );
    }
}

/// A conv module in the `equeue-opt` verify-recipe style: one SRAM, one
/// processor and a `linalg.conv2d` on `memref.alloc`s.
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

/// The `equeue-opt` lowering recipe, which turns a conv text into affine
/// loops inside a launch: nested regions and block arguments to print.
fn lower(module: &mut Module) {
    let first = |op: &str| {
        let id = module.find_first(op).expect("conv text defines it");
        module.result(id, 0)
    };
    let (mem, proc) = (first("equeue.create_mem"), first("equeue.create_proc"));
    let mut pm = PassManager::new(equeue::dialect::standard_registry());
    pm.add(AllocateMemory::new(mem))
        .add(ConvertLinalgToAffineLoops)
        .add(EqueueReadWrite)
        .add(WrapInLaunch::new(proc));
    pm.run(module).expect("the recipe lowers a conv text");
}

/// Hand-written corners of the accepted language and of its error
/// positions: lax separators, whitespace and comments in odd places,
/// non-ASCII text, and the limits of numbers, shapes and nesting.
const EDGES: &[&str] = &[
    "%a = \"t.s\"() : () -> i32\n\"t.k\"(,%a,,%a,) : (,i32,,i32) -> ()\n",
    "%a = \"t.s\"() : () -> i32\n\"t.k\"(%a %a) : (i32 i32) -> ()\n",
    "%a, %b = \"t.s\"() : () -> (i32, f32)\n\"t.k\"(%b, %a) : (f32, i32) -> ()\n",
    "%a = \"t.s\"() : () -> memref<4x f32>\n",
    "%a = \"t.s\"() : () -> memref< 4xf32>\n",
    "%a = \"t.s\"() : () -> memref <4xf32>\n",
    "%a = \"t.s\"() : () -> memref<4xi32>>\n",
    "%a = \"t.s\"() : () -> memref<4xmemref<2xi32>>\n",
    "%a = \"t.s\"() : () -> tensor<99999999999999999999xi32>\n",
    "%a = \"t.s\"() : () -> tensor<0x4xi32>\n",
    "%a = \"t.s\"() : () -> q32\n",
    "\"t.k\"() : (q32) -> ()\n",
    "\"t.k\"() {t = memref<2xq8>} : () -> ()\n",
    "%a = \"t.s\"() : () ->\n i32\n",
    "%a = \"t.s\"() : () -> i32 \r\n%b = \"t.s\"() : () -> i32\u{b}\n",
    "%a = \"t.s\"() : () -> i32 // trailing comment\n",
    "\t%a\t=\t\"t.s\"\t(\t)\t:\t(\t)\t->\ti32\n",
    "\"t.é\"() {k = \"ü\u{a0}\", \"quoted key\" = 1} : () -> ()\n",
    "\"t.k\"() {k = \"a\\\"b\\\\c\\n\\td\"} : () -> ()\n",
    "\"t.k\"() {k = \"bad \\q escape\"} : () -> ()\n",
    "\"t.k\"() {k = \"unterminated} : () -> ()\n",
    "\"t.k\"() {a = [], b = [1, \"x\"], c = [[1], [2]], d = -3, e = -2.5, f = 1.} : () -> ()\n",
    "\"t.k\"() {a = 9223372036854775807, b = -9223372036854775808} : () -> ()\n",
    "\"t.k\"() {a = 9223372036854775808} : () -> ()\n",
    "\"t.k\"() {a = -} : () -> ()\n",
    "\"t.k\"() {a = true, b = false, c = unit, d = index, e = !equeue.buffer<2x2xi8>} : () -> ()\n",
    "\"t.k\"() {a = 1, a = 2} : () -> ()\n",
    "\"t.k\"() {a = 1 b = 2} : () -> ()\n",
    "\"t.k\"() {} : () -> ()\n",
    "\"t.k\"() ({\n}, {\n^bb0:\n  \"t.r\"() : () -> ()\n^bb1(%x: i32, %y: index):\n  \"t.u\"(%x, %y) : (i32, index) -> ()\n}) : () -> ()\n",
    "\"t.k\"() ({\n^bb0(%x: i32):\n}) : () -> ()\n\"t.u\"(%x) : (i32) -> ()\n",
    "\"t.k\"() ({\n  %v = \"t.s\"() : () -> i32\n^bb1:\n  \"t.u\"(%v) : (i32) -> ()\n}) : () -> ()\n",
    "%0 = \"t.s\"() : () -> i32\n%0 = \"t.s\"() : () -> f32\n\"t.u\"(%0) : (f32) -> ()\n",
    "%7 = \"t.s\"() : () -> i32\n%x_1 = \"t.s\"() : () -> i32\n%x = \"t.s\"() : () -> i32\n\"t.u\"(%7, %x) : (i32, i32) -> ()\n",
    "%a = \"t.s\"() : () -> !equeue.any\n\"t.u\"(%a) : (i32) -> ()\n",
    "%a = \"t.s\"() : () -> i32\n\"t.u\"(%a) : (!equeue.any) -> ()\n",
    "%a = \"t.s\"() : () -> i32\n\"t.u\"(%a) : () -> ()\n",
    "%a, %b = \"t.s\"() : () -> i32\n",
    "\"t.s\"() : () -> (i32, i32)\n",
    "%a = \"t.s\"() : () -> ()\n",
    "%a \"t.s\"() : () -> i32\n",
    "%a, = \"t.s\"() : () -> i32\n",
    "%  = \"t.s\"() : () -> i32\n",
    "t.s() : () -> ()\n",
    "\"t.s\"() -> ()\n",
    "\"t.s\"() : () - ()\n",
    "\"t.s\"() : (i32\n",
    "\"t.s\"() : () -> (i32\n",
    "\"t.s\"() : () -> (i32,, f32,)\n",
    "\"t.s\"() : () -> \n",
    "\"t.s\"() ({\n\"t.r\"() : () -> ()\n",
    "\"t.s\"() ({\n^bb0(%x i32):\n}) : () -> ()\n",
    "\"t.s\"() ({\n^bb0(3):\n}) : () -> ()\n",
    "\"t.s\"() ({\n^:\n}) : () -> ()\n",
    "\"t.s\"() ({\n^bb0\n}) : () -> ()\n",
    "\"t.s\"() ({\n}) ({\n}) : () -> ()\n",
    "\"t.s\"() ({\n} {\n}) : () -> ()\n",
    "\"t.s\"() (\n) : () -> ()\n",
    "\"t.s\"() @ : () -> ()\n",
    "\"t.s\"(3) : () -> ()\n",
    "\"t.s\"(%a) : (i32) -> ()\n",
    "// only a comment",
    "",
    "   \n\n  ",
    "\n\n  ???",
];

fn pin_all() -> Pin {
    let mut pin = Pin::new();
    for text in EDGES {
        pin.parse(text);
    }
    for text in malformed::mutated_cases() {
        pin.parse(&text);
    }
    for (_, _, text) in malformed::truncations() {
        pin.parse(text);
    }
    for text in malformed::CORPUS {
        pin.parse(text);
    }

    for case in FirCase::all() {
        let prog = generate_fir(FirSpec::default(), case);
        pin.round_trip(case.as_str(), &prog.module);
    }
    for (ah, hw, f, c, n) in [(8, 8, 3, 2, 4), (16, 12, 4, 4, 8), (32, 6, 2, 3, 16)] {
        for df in [Dataflow::Ws, Dataflow::Is, Dataflow::Os] {
            let spec = SystolicSpec {
                rows: ah,
                cols: 64 / ah,
                dataflow: df,
            };
            let prog = generate_systolic(&spec, ConvDims::square(hw, f, c, n));
            pin.round_trip(&format!("systolic ah{ah} hw{hw} {df:?}"), &prog.module);
        }
    }
    for (hw, f, c, n) in [(4, 2, 1, 1), (6, 2, 2, 2), (8, 3, 4, 1), (10, 3, 2, 3)] {
        let text = conv_text(hw, f, c, n);
        let printed = pin.parse(&text).expect("conv text parses");
        let mut module = parse_module(&printed).expect("printed conv text parses");
        pin.round_trip(&format!("conv hw{hw} parsed"), &module);
        lower(&mut module);
        pin.round_trip(&format!("conv hw{hw} lowered"), &module);
    }
    pin
}

#[test]
fn parse_outcomes_match_the_pin() {
    let pin = pin_all();
    assert_eq!(
        pin,
        Pin {
            digest: 0xf5f0_2092_9b3b_de48,
            accepted: 444,
            rejected: 2778,
        }
    );
}
