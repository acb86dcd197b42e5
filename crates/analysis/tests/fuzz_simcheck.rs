//! Malformed-IR fuzzing for the analysis pipeline: every textual program
//! that *parses* must analyze without panicking and without diverging —
//! all four passes run to completion and report through typed
//! [`equeue_analysis::Diagnostic`]s, never through unwinding.
//!
//! Mirrors the engine-side fuzzer (`crates/core/tests/fuzz_malformed_ir.rs`):
//! the same dependency-free xorshift64* PRNG drives the same mix of
//! byte-level and line-level mutations over the same corpus, so the two
//! suites explore the same hostile neighbourhood of the IR grammar.

use std::panic::{catch_unwind, AssertUnwindSafe};

use equeue_analysis::analyze_module;
use equeue_core::{RunLimits, SimLibrary};

/// Real programs the mutations start from — one per dialect surface the
/// analyzer walks (launch bodies, affine loops, arith, memcpy).
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
    r#"
%p = "equeue.create_proc"() {kind = "ARM"} : () -> !equeue.proc
%sram = "equeue.create_mem"() {banks = 2, data_bits = 32, kind = "SRAM", shape = [64]} : () -> !equeue.mem
%dram = "equeue.create_mem"() {banks = 1, data_bits = 32, kind = "DRAM", shape = [256]} : () -> !equeue.mem
%a = "equeue.alloc"(%dram) : (!equeue.mem) -> !equeue.buffer<16xi32>
%b = "equeue.alloc"(%sram) : (!equeue.mem) -> !equeue.buffer<16xi32>
%s = "equeue.control_start"() : () -> !equeue.signal
%d = "equeue.memcpy"(%s, %a, %b) : (!equeue.signal, !equeue.buffer<16xi32>, !equeue.buffer<16xi32>) -> !equeue.signal
"equeue.await"(%d) : (!equeue.signal) -> ()
"#,
    r#"%c = "arith.constant"() {value = 3} : () -> i32
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

/// One random mutation of `text`: byte noise (flips, inserts, truncation)
/// plus structure-aware edits (line shuffles, token splices) so both the
/// lexer and the analyzer's lenient walkers see hostile input.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.below(8) {
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
        3 => {
            const TOKENS: &[&str] = &[
                "(",
                ")",
                "{",
                "}",
                "[",
                "]",
                "%",
                "\"",
                "^bb0",
                "->",
                ":",
                ",",
                "!equeue.mem",
                "tensor<",
                "-9999999999999999999",
                "= [",
            ];
            let tok = TOKENS[rng.below(TOKENS.len())];
            let at = rng.below(bytes.len() + 1);
            bytes.splice(at..at, tok.bytes());
        }
        4 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                lines.remove(rng.below(lines.len()));
            }
            bytes = lines.join("\n").into_bytes();
        }
        5 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let at = rng.below(lines.len());
                lines.insert(at, lines[at]);
            }
            bytes = lines.join("\n").into_bytes();
        }
        6 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.len() >= 2 {
                let a = rng.below(lines.len());
                let b = rng.below(lines.len());
                lines.swap(a, b);
            }
            bytes = lines.join("\n").into_bytes();
        }
        _ => {
            if let Some(at) = bytes.iter().position(|b| b.is_ascii_digit()) {
                const REPL: &[&str] = &["0", "-1", "18446744073709551615", "9223372036854775807"];
                let r = REPL[rng.below(REPL.len())];
                bytes.splice(at..at + 1, r.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feeds ≥1.5k mutated programs through parse → analyze. Any panic in any
/// of the four passes fails the test with the case number and input so it
/// can be replayed.
#[test]
fn mutated_ir_never_panics_the_analyzer() {
    let library = SimLibrary::standard();
    let limits = RunLimits::default();
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut parsed_ok = 0usize;
    let mut analyzed = 0usize;

    for case in 0..1500 {
        let base = CORPUS[rng.below(CORPUS.len())];
        // Stack 1–4 mutations so errors compound.
        let mut text = base.to_string();
        for _ in 0..(1 + rng.below(4)) {
            text = mutate(&mut rng, &text);
        }

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match equeue_ir::parse_module(&text) {
                Ok(module) => {
                    let report = analyze_module(&module, &library, &limits);
                    // The report itself must render without panicking.
                    let _ = report.to_text();
                    let _ = report.to_json();
                    true
                }
                Err(_) => false,
            }
        }));

        match outcome {
            Ok(ran) => {
                parsed_ok += usize::from(ran);
                analyzed += usize::from(ran);
            }
            Err(_) => panic!("fuzz case {case} panicked the analyzer on input:\n{text}"),
        }
    }

    // Sanity: the mutator must not be so destructive that nothing parses —
    // otherwise the pass pipeline was never exercised.
    assert!(parsed_ok > 10, "only {parsed_ok} cases parsed");
    assert!(analyzed > 10, "only {analyzed} cases analyzed");
}

/// Pure truncation sweep: every parseable prefix of every corpus program
/// must analyze cleanly. Catches end-of-input artefacts (dangling regions,
/// half-built launches) that the walkers must tolerate.
#[test]
fn truncated_ir_never_panics_the_analyzer() {
    let library = SimLibrary::standard();
    let limits = RunLimits::default();
    for (i, base) in CORPUS.iter().enumerate() {
        for at in 0..base.len() {
            if !base.is_char_boundary(at) {
                continue;
            }
            let text = &base[..at];
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Ok(module) = equeue_ir::parse_module(text) {
                    let _ = analyze_module(&module, &library, &limits).to_text();
                }
            }));
            assert!(
                outcome.is_ok(),
                "corpus {i} truncated at byte {at} panicked the analyzer:\n{text}"
            );
        }
    }
}
