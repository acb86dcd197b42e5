//! The malformed-IR corpus and its deterministic mutator, shared by the
//! malformed-IR fuzzer (`fuzz_malformed_ir.rs`) and the parse pin
//! (`tests/parse_pin.rs` at the workspace root), so both see the same cases.

/// Real programs the mutations start from. Diversity matters more than
/// size: each exercises a different dialect surface (launch bodies, affine
/// loops, arith, memcpy).
pub const CORPUS: &[&str] = &[
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

/// One random mutation of `text`. Mixes byte-level noise (flips, inserts,
/// truncation) with structure-aware edits (line shuffles, token swaps) so
/// both the lexer and the parser/verifier see hostile input.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match rng.below(8) {
        // Truncate at a random byte.
        0 => {
            let at = rng.below(bytes.len() + 1);
            bytes.truncate(at);
        }
        // Flip a random byte.
        1 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Overwrite a random byte with a printable character.
        2 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] = b' ' + (rng.below(95) as u8);
            }
        }
        // Insert a structurally interesting token.
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
        // Delete a random line.
        4 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                lines.remove(rng.below(lines.len()));
            }
            bytes = lines.join("\n").into_bytes();
        }
        // Duplicate a random line (re-defines SSA values, doubles returns).
        5 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if !lines.is_empty() {
                let at = rng.below(lines.len());
                lines.insert(at, lines[at]);
            }
            bytes = lines.join("\n").into_bytes();
        }
        // Swap two lines (use-before-def, terminator in the middle).
        6 => {
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.len() >= 2 {
                let a = rng.below(lines.len());
                let b = rng.below(lines.len());
                lines.swap(a, b);
            }
            bytes = lines.join("\n").into_bytes();
        }
        // Mangle a number: attribute and shape bounds checking.
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

/// The fuzzer's 1,500 mutated programs, in case order: each is a corpus
/// program under a stack of 1–4 mutations, so errors compound.
pub fn mutated_cases() -> Vec<String> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    (0..1500)
        .map(|_| {
            let base = CORPUS[rng.below(CORPUS.len())];
            let mut text = base.to_string();
            for _ in 0..(1 + rng.below(4)) {
                text = mutate(&mut rng, &text);
            }
            text
        })
        .collect()
}

/// Every proper prefix of every corpus program that ends on a character
/// boundary, as `(corpus index, length, prefix)`.
pub fn truncations() -> impl Iterator<Item = (usize, usize, &'static str)> {
    CORPUS.iter().enumerate().flat_map(|(i, base)| {
        (0..base.len())
            .filter(|&at| base.is_char_boundary(at))
            .map(move |at| (i, at, &base[..at]))
    })
}
