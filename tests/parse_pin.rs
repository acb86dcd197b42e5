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
mod pin_inputs;

use pin_inputs::{conv_text, EDGES};

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
