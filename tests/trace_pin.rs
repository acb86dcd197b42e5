//! Pins the operation-level trace: the Chrome JSON bytes and the
//! `(name, cat, ts, dur, pid, tid)` sequence of `Trace::events()`.
//!
//! Each input is simulated with tracing on and gets
//! its own FNV-1a digest over both, so a change to what the engine records,
//! in what order, or how it is rendered names the input it moved. The
//! inputs are every golden scenario, the four FIR cases run from their
//! printed text (as `equeue-opt` runs them), and `linalg.conv2d` texts
//! lowered by the `equeue-opt` recipe.

use equeue::gen::scenarios::golden_scenarios;
use equeue::gen::{generate_fir, FirCase, FirSpec};
use equeue::ir::{parse_module, print_module, Module, PassManager};
use equeue::passes::{AllocateMemory, ConvertLinalgToAffineLoops, EqueueReadWrite, WrapInLaunch};
use equeue::sim::{simulate_with, SimLibrary, SimOptions, Trace};

/// FNV-1a over one input's trace.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The trace's event count and its digest: the JSON bytes, then each
/// event's fields, every string and number closed by a NUL.
fn pin(trace: &Trace) -> (usize, u64) {
    let mut d = Digest::new();
    d.feed(trace.to_chrome_json().as_bytes());
    d.feed(b"\0events\0");
    let mut n = 0;
    for e in trace.events() {
        n += 1;
        let line = format!(
            "{}\0{}\0{}\0{}\0{}\0{}\0",
            e.name(),
            e.cat().as_str(),
            e.ts(),
            e.dur(),
            e.pid(),
            e.tid()
        );
        d.feed(line.as_bytes());
    }
    (n, d.0)
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

/// The `equeue-opt` lowering recipe: buffers on the first memory, affine
/// loops, reads and writes, and a launch on the first processor.
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

/// Every pinned input, labelled, with its event count and digest.
fn pins() -> Vec<(String, usize, u64)> {
    let mut out = vec![];
    let mut run = |label: String, module: &Module| {
        let traced = SimOptions {
            trace: true,
            ..Default::default()
        };
        let report = simulate_with(module, &SimLibrary::standard(), &traced)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        // The lowered convs' traces come from fused runs.
        if label.starts_with("conv ") {
            assert!(report.fused_trace_entries > 0, "{label}: the nest fuses");
        }
        let (n, digest) = pin(&report.trace);
        out.push((label, n, digest));
    };
    for s in golden_scenarios() {
        run(s.name.to_string(), &s.module);
    }
    for case in FirCase::all() {
        let text = print_module(&generate_fir(FirSpec::default(), case).module);
        let module = parse_module(&text).expect("a printed FIR module parses");
        run(format!("fir text {case:?}"), &module);
    }
    for (hw, f, c, n) in [(4, 2, 1, 1), (6, 2, 2, 2), (8, 3, 2, 3)] {
        let mut module = parse_module(&conv_text(hw, f, c, n)).expect("conv text parses");
        lower(&mut module);
        run(format!("conv hw{hw} f{f} c{c} n{n} lowered"), &module);
    }
    out
}

/// `(label, events, digest)` per input, in `pins()` order.
const PINNED: &[(&str, usize, u64)] = &[
    ("fig09_4x4_ws_8x8", 30, 0x6dc10c509b79e78e),
    ("fig11_linalg_ws_8", 1, 0x37104774df447d2b),
    ("fig11_affine_ws_8", 23328, 0xb3a2a7d750bc6aca),
    ("fig11_reassign_ws_8", 15554, 0x52a7a30bdccdddce),
    ("fig11_systolic_ws_8", 251, 0x0109a2fa395ff5bf),
    ("fig12_ah8_hw16_f4_c4_n8_ws", 1096, 0x6694a3750e7d8556),
    ("fig12_ah8_hw16_f4_c4_n8_is", 23160, 0xe0eaf9ca8edbf484),
    ("fig12_ah8_hw16_f4_c4_n8_os", 1216, 0x2fd786a1bc5311a8),
    ("fir_single_core", 2048, 0xb2b87b7ed9b488ea),
    ("fir_pipelined16", 4096, 0x8a7c9125b251309c),
    ("fir_bandwidth16", 4096, 0x04fc8557abbc42a2),
    ("fir_balanced4", 2560, 0x81964b5e2dde5ba8),
    ("matmul_linalg16", 1, 0xe7f409319d1dfb6f),
    ("matmul_affine16", 8192, 0xcf3a04105559e58c),
    ("tensor_stream_64x8", 16, 0x9305db99a6f918d6),
    ("conv2d_systolic_8x3", 9, 0xf1966271f3b82a89),
    ("multi_tenant_4x16x6", 72, 0xa4232015d838351e),
    ("mega_grid_8x8", 256, 0xf44a67262e541680),
    ("shard_grid_4x4", 64, 0x24d33e392f4892d8),
    ("fir text SingleCore", 2048, 0xb2b87b7ed9b488ea),
    ("fir text Pipelined16", 4096, 0x8a7c9125b251309c),
    ("fir text Bandwidth16", 4096, 0x04fc8557abbc42a2),
    ("fir text Balanced4", 2560, 0x81964b5e2dde5ba8),
    ("conv hw4 f2 c1 n1 lowered", 216, 0x25cbdf347c5ca690),
    ("conv hw6 f2 c2 n2 lowered", 2400, 0x7c35805f459494f6),
    ("conv hw8 f3 c2 n3 lowered", 11664, 0x04343c41d63b61dc),
];

#[test]
fn traces_match_the_pin() {
    let got = pins();
    let got: Vec<(&str, usize, u64)> = got.iter().map(|(l, n, d)| (l.as_str(), *n, *d)).collect();
    if got != PINNED {
        for (l, n, d) in &got {
            eprintln!("    ({l:?}, {n}, {d:#018x}),");
        }
    }
    assert_eq!(got, PINNED);
}
