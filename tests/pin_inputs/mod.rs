//! Inputs shared by the parse pin (`parse_pin.rs`) and the verify pin
//! (`verify_pin.rs`), so both see the same hand-written corners and conv
//! texts.

/// A conv module in the `equeue-opt` verify-recipe style: one SRAM, one
/// processor and a `linalg.conv2d` on `memref.alloc`s.
pub fn conv_text(hw: usize, f: usize, c: usize, n: usize) -> String {
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

/// Hand-written corners of the accepted language and of its error
/// positions: lax separators, whitespace and comments in odd places,
/// non-ASCII text, and the limits of numbers, shapes and nesting.
pub const EDGES: &[&str] = &[
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
