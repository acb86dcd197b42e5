//! Differential replay suite: checkpoint/resume must be invisible.
//!
//! The snapshot contract is *bit identity*: for any program, running to
//! completion in one shot must produce exactly the same simulated state as
//! running to cycle `N`, capturing a [`Snapshot`], and resuming it —
//! cycles, scheduler wakes, interpreted-op counts, final buffer contents,
//! memory traffic, connection bandwidth. The suite enforces the contract
//! over every golden scenario:
//!
//! 1. cut points swept early / mid / late in each scenario's run;
//! 2. all four snapshot×resume backend combinations (the fused runner may
//!    land the cut at a trace exit, but the *resumed total* must still be
//!    bit-identical to the uninterrupted run under either backend);
//! 3. a serialisation round trip on every captured snapshot —
//!    `encode → decode → resume` must equal resuming the original, and
//!    `encode(decode(bytes))` must reproduce `bytes` exactly (the
//!    canonical-encoding property, probed at xorshift-random cuts too).

use std::collections::BTreeMap;

use equeue_core::{
    AccessKind, Backend, CompiledModule, MemSpec, MemoryBehavior, ProcProfile, SimLibrary,
    SimOptions, SimReport, Snapshot,
};
use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, ConvDims, EqueueBuilder};
use equeue_gen::scenarios::golden_scenarios;
use equeue_gen::{build_stage_program, Stage};
use equeue_ir::{Module, OpBuilder, Type};
use equeue_passes::Dataflow;

fn options(backend: Backend) -> SimOptions {
    SimOptions {
        trace: false,
        backend,
        ..Default::default()
    }
}

/// Asserts every deterministic field of the two reports matches. Skips
/// `execution_time` (wall clock; a resumed run reports only its own
/// window) and `trace` (empty under `trace: false`).
fn assert_reports_identical(name: &str, full: &SimReport, resumed: &SimReport) {
    assert_eq!(full.cycles, resumed.cycles, "{name}: cycles");
    assert_eq!(
        full.events_processed, resumed.events_processed,
        "{name}: events"
    );
    assert_eq!(full.ops_interpreted, resumed.ops_interpreted, "{name}: ops");
    assert_eq!(full.buffers, resumed.buffers, "{name}: buffer contents");
    assert_eq!(full.memories, resumed.memories, "{name}: memory traffic");
    assert_eq!(
        full.connections, resumed.connections,
        "{name}: connection bandwidth"
    );
}

/// Early / mid / late cut points for a run of `cycles` total, deduped
/// (tiny scenarios may collapse some of them).
fn cut_points(cycles: u64) -> Vec<u64> {
    let mut cuts = vec![1, cycles / 2, cycles.saturating_sub(1).max(1)];
    cuts.dedup();
    cuts
}

#[test]
fn replay_is_bit_identical_across_cuts_and_backends() {
    for scenario in golden_scenarios() {
        let name = scenario.name;
        let compiled = CompiledModule::compile(scenario.module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        for cut in cut_points(full.cycles) {
            for snap_backend in [Backend::Fused, Backend::Interp] {
                let snap = compiled
                    .snapshot(cut, &options(snap_backend))
                    .unwrap_or_else(|e| panic!("{name}: snapshot at {cut}: {e}"));
                assert_eq!(snap.requested_cut(), cut, "{name}: requested cut");
                assert!(
                    snap.actual_cut() >= cut || snap.completed(),
                    "{name}: cut {cut} landed at {} without completing",
                    snap.actual_cut()
                );
                for resume_backend in [Backend::Fused, Backend::Interp] {
                    let tag = format!("{name} cut={cut} {snap_backend:?}->{resume_backend:?}");
                    let resumed = compiled
                        .resume(&snap, &options(resume_backend))
                        .unwrap_or_else(|e| panic!("{tag}: resume: {e}"));
                    assert_reports_identical(&tag, &full, &resumed);
                    // The wire format is transparent: resuming a
                    // decode(encode(snapshot)) copy is the same as
                    // resuming the original.
                    let decoded = Snapshot::decode(&snap.encode())
                        .unwrap_or_else(|e| panic!("{tag}: decode: {e}"));
                    let replayed = compiled
                        .resume(&decoded, &options(resume_backend))
                        .unwrap_or_else(|e| panic!("{tag}: resume decoded: {e}"));
                    assert_reports_identical(&format!("{tag} (decoded)"), &full, &replayed);
                }
            }
        }
    }
}

/// The bytes of a stream that may differ between a Fused and an Interp
/// capture of the same state: the `fused_trace_entries` counter (the
/// eighth counter after the header and the module fingerprint) and the
/// trailing checksum.
fn backend_specific(i: usize, len: usize) -> bool {
    (105..113).contains(&i) || i >= len - 8
}

/// A lowered `linalg.conv2d` (the Fig. 11 Affine stage: a perfect
/// six-deep nest of `equeue.read`/`equeue.write` on SRAM), cut at every
/// cycle of its first 40 and at spread cycles further in: every
/// capture/resume backend pair resumes to the uninterrupted run, and a
/// fused capture, taken where a nest trace exits, holds the state the
/// interpreter's does (frame stacks, environments, ports) byte for byte.
#[test]
fn lowered_conv_cut_inside_the_nest_replays_bit_identically() {
    let module = build_stage_program(
        Stage::Affine,
        ConvDims::square(6, 3, 2, 2),
        (4, 4),
        Dataflow::Ws,
    )
    .module;
    let compiled = CompiledModule::compile(module, SimLibrary::standard()).expect("compile");
    let full = compiled
        .simulate(&options(Backend::Fused))
        .expect("full run");
    let spread = (1..8).map(|k| full.cycles * k / 8);
    for cut in (1..=40).chain(spread) {
        let mut captures = vec![];
        for snap_backend in [Backend::Fused, Backend::Interp] {
            let snap = compiled
                .snapshot(cut, &options(snap_backend))
                .unwrap_or_else(|e| panic!("snapshot at {cut}: {e}"));
            assert!(!snap.completed(), "cut {cut} is inside the run");
            captures.push(snap.encode());
            let decoded = Snapshot::decode(&snap.encode()).expect("decode");
            for resume_backend in [Backend::Fused, Backend::Interp] {
                let tag = format!("lowered conv cut={cut} {snap_backend:?}->{resume_backend:?}");
                for s in [&snap, &decoded] {
                    let resumed = compiled
                        .resume(s, &options(resume_backend))
                        .unwrap_or_else(|e| panic!("{tag}: resume: {e}"));
                    assert_reports_identical(&tag, &full, &resumed);
                }
            }
        }
        let [fused, interp] = &captures[..] else {
            unreachable!("one capture per backend")
        };
        assert_eq!(fused.len(), interp.len(), "cut {cut}: stream lengths");
        for (i, (a, b)) in fused.iter().zip(interp).enumerate() {
            assert!(
                a == b || backend_specific(i, fused.len()),
                "cut {cut}: byte {i} differs across capture backends"
            );
        }
    }
}

/// A snapshot taken past the end of the run records completion and
/// resumes to the identical final report without re-executing anything.
#[test]
fn snapshot_past_completion_resumes_to_same_report() {
    for scenario in golden_scenarios() {
        let name = scenario.name;
        let compiled = CompiledModule::compile(scenario.module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        let snap = compiled
            .snapshot(full.cycles + 1, &options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: snapshot: {e}"));
        assert!(snap.completed(), "{name}: run should have completed");
        let resumed = compiled
            .resume(&snap, &options(Backend::Interp))
            .unwrap_or_else(|e| panic!("{name}: resume: {e}"));
        assert_reports_identical(&format!("{name} (completed)"), &full, &resumed);
    }
}

/// Windowed waveforms: resuming with `trace: true` yields exactly the
/// slice of the full-run waveform from the cut cycle onward — BEE-style
/// "checkpoint far, then capture the window you care about".
#[test]
fn resumed_trace_is_the_waveform_slice_from_the_cut() {
    let traced = |backend| SimOptions {
        trace: true,
        backend,
        ..Default::default()
    };
    for scenario in golden_scenarios() {
        let name = scenario.name;
        let compiled = CompiledModule::compile(scenario.module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&traced(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        let cut = full.cycles / 2;
        // Snapshot leg untraced — the point of windowing is skipping the
        // waveform cost of the fast-forward.
        let snap = compiled
            .snapshot(cut, &options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: snapshot: {e}"));
        let resumed = compiled
            .resume(&snap, &traced(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: resume: {e}"));
        // Nothing before the cut is re-recorded…
        for e in resumed.trace.events() {
            assert!(
                e.ts() >= snap.actual_cut(),
                "{name}: resumed event {}@{} precedes the cut {}",
                e.name(),
                e.ts(),
                snap.actual_cut()
            );
        }
        // …and per trace row (a processor or connection `tid`), the cut
        // splits the full run's event sequence at exactly one point: work
        // already executed or issued at capture time belongs to the
        // pre-cut leg, everything after replays in the resumed window. So
        // each row's resumed sequence must be a *suffix* of that row's
        // full-run sequence. (A row can be legitimately all-prefix — e.g.
        // a single analytic op issued before the cut.)
        fn by_tid(trace: &equeue_core::Trace) -> BTreeMap<&str, Vec<equeue_core::TraceEvent<'_>>> {
            let mut rows: BTreeMap<&str, Vec<equeue_core::TraceEvent>> = BTreeMap::new();
            for e in trace.events() {
                rows.entry(e.tid()).or_default().push(e);
            }
            rows
        }
        let full_rows = by_tid(&full.trace);
        for (tid, row) in by_tid(&resumed.trace) {
            let whole = full_rows
                .get(tid)
                .unwrap_or_else(|| panic!("{name}: row {tid} absent from the full waveform"));
            assert!(
                row.len() <= whole.len() && row == whole[whole.len() - row.len()..],
                "{name}: row {tid}: resumed window is not a suffix of the full waveform \
                 ({} resumed vs {} full events)",
                row.len(),
                whole.len()
            );
        }
    }
}

/// A stateless custom memory model: even addresses hit, odd ones miss.
struct ParityCache {
    hit: u64,
    miss: u64,
}

impl MemoryBehavior for ParityCache {
    fn access_cycles(&mut self, _kind: AccessKind, addr: usize, elems: usize, _banks: u32) -> u64 {
        (addr..addr + elems.max(1))
            .map(|a| if a % 2 == 0 { self.hit } else { self.miss })
            .sum()
    }

    fn model_name(&self) -> &str {
        "ParityCache"
    }
}

/// Builds a [`ParityCache`] from its `create_mem` attributes.
fn parity_cache_factory(spec: &MemSpec) -> Result<Box<dyn MemoryBehavior>, String> {
    let cycles = |name: &str, default: i64| {
        let v = spec.attrs.int(name).unwrap_or(default);
        u32::try_from(v)
            .map(u64::from)
            .map_err(|_| format!("ParityCache {name} must be in 0..=4294967295, got {v}"))
    };
    Ok(Box::new(ParityCache {
        hit: cycles("hit_cycles", 1)?,
        miss: cycles("miss_cycles", 20)?,
    }))
}

/// Eight single-element reads from a `ParityCache` memory whose
/// `create_mem` op sets `miss_cycles = 50`: 4 hits and 4 misses.
fn parity_cache_program() -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::ARM_R5);
    let mem = b
        .op("equeue.create_mem")
        .attr("kind", "ParityCache")
        .attr("shape", vec![64i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr("miss_cycles", 50i64)
        .result(Type::Mem)
        .finish_value();
    let buf = b.alloc(mem, &[8], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
    for i in 0..8 {
        let idx = ib.const_index(i);
        ib.read_indexed(l.body_args[0], vec![idx], None);
    }
    ib.ret(vec![]);
    OpBuilder::at_end(&mut m, blk).await_all(vec![l.done]);
    m
}

/// A custom memory model carries no state in a snapshot; resume rebuilds it
/// from the attributes of the `create_mem` op that built it. For a
/// stateless model that is exact: at every cut and for every
/// capture×resume backend pair, the resumed run equals the full run.
#[test]
fn custom_memory_model_resumes_with_its_attributes() {
    let mut lib = SimLibrary::standard();
    lib.register_mem_factory("ParityCache", parity_cache_factory);
    let compiled = CompiledModule::compile(parity_cache_program(), lib).expect("compiles");
    let full = compiled
        .simulate(&options(Backend::Fused))
        .expect("full run");
    assert_eq!(full.cycles, 4 + 4 * 50);
    for cut in 0..=full.cycles {
        for snap_backend in [Backend::Fused, Backend::Interp] {
            let snap = compiled
                .snapshot(cut, &options(snap_backend))
                .unwrap_or_else(|e| panic!("snapshot at {cut}: {e}"));
            for resume_backend in [Backend::Fused, Backend::Interp] {
                let tag = format!("parity cache cut={cut} {snap_backend:?}->{resume_backend:?}");
                let resumed = compiled
                    .resume(&snap, &options(resume_backend))
                    .unwrap_or_else(|e| panic!("{tag}: resume: {e}"));
                assert_reports_identical(&tag, &full, &resumed);
            }
        }
    }
}

/// Two processors of kind `kind`, each adding in an `affine.for` of four
/// iterations and once more after it.
fn add_loop_program(kind: &str) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let start = b.control_start();
    let mut dones = vec![];
    for _ in 0..2 {
        let pe = b.create_proc(kind);
        let l = b.launch(start, pe, &[], vec![]);
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let c = ib.const_int(3, Type::I32);
        let (_, body, _) = ib.affine_for(0, 4, 1);
        let mut lb = OpBuilder::at_end(ib.module_mut(), body);
        lb.addi(c, c);
        lb.affine_yield();
        ib.addi(c, c);
        ib.ret(vec![]);
        dones.push(l.done);
    }
    b.await_all(dones);
    m
}

/// A registered processor kind keeps its op costs across a resume: with
/// `arith.addi` at 7 cycles, every cut and capture×resume backend pair
/// resumes to the straight run.
#[test]
fn registered_processor_costs_survive_resume() {
    let mut lib = SimLibrary::standard();
    let mut profile = ProcProfile::uniform(1);
    profile.per_op.insert("arith.addi".into(), 7);
    lib.register_proc_profile("Slow", profile)
        .expect("costs fit");
    let compiled = CompiledModule::compile(add_loop_program("Slow"), lib).expect("compiles");
    let full = compiled
        .simulate(&options(Backend::Fused))
        .expect("full run");
    assert_eq!(full.cycles, 5 * 7);
    for cut in 0..=full.cycles {
        for snap_backend in [Backend::Fused, Backend::Interp] {
            let snap = compiled
                .snapshot(cut, &options(snap_backend))
                .unwrap_or_else(|e| panic!("snapshot at {cut}: {e}"));
            let decoded = Snapshot::decode(&snap.encode()).expect("decode");
            for resume_backend in [Backend::Fused, Backend::Interp] {
                let tag = format!("slow adds cut={cut} {snap_backend:?}->{resume_backend:?}");
                for s in [&snap, &decoded] {
                    let resumed = compiled
                        .resume(s, &options(resume_backend))
                        .unwrap_or_else(|e| panic!("{tag}: resume: {e}"));
                    assert_reports_identical(&tag, &full, &resumed);
                }
            }
        }
    }
}

/// A resumed run takes its timing from the library of the handle that
/// resumes it, not from the capture: cut where `Slow` adds take 7 cycles
/// and resumed where they take 3, every add after the cut is charged 3.
#[test]
fn resume_takes_processor_costs_from_the_resuming_library() {
    let handle = |add_cycles| {
        let mut lib = SimLibrary::standard();
        let mut profile = ProcProfile::uniform(1);
        profile.per_op.insert("arith.addi".into(), add_cycles);
        lib.register_proc_profile("Slow", profile)
            .expect("costs fit");
        CompiledModule::compile(add_loop_program("Slow"), lib).expect("compiles")
    };
    let (captured, resuming) = (handle(7), handle(3));
    let full = resuming
        .simulate(&options(Backend::Interp))
        .expect("full run");
    assert_eq!(full.cycles, 5 * 3);
    // Each processor runs five adds; at cut `7 * k` it has run `k`.
    for k in 1..5 {
        let snap = captured
            .snapshot(7 * k, &options(Backend::Interp))
            .expect("snapshot");
        assert_eq!(snap.actual_cut(), 7 * k);
        let decoded = Snapshot::decode(&snap.encode()).expect("decode");
        for backend in [Backend::Fused, Backend::Interp] {
            let resumed = resuming
                .resume(&decoded, &options(backend))
                .unwrap_or_else(|e| panic!("cut {}: resume: {e}", 7 * k));
            assert_eq!(resumed.cycles, 7 * k + 3 * (5 - k), "cut {}", 7 * k);
            assert_eq!(resumed.ops_interpreted, full.ops_interpreted);
        }
    }
}

/// xorshift64* — the workspace's std-only PRNG for property probes.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Property: for every golden scenario and random cut cycles, the
/// canonical encoding is a fixed point — `encode(decode(encode(s)))`
/// equals `encode(s)` byte for byte.
#[test]
fn snapshot_roundtrip_is_byte_identical_at_random_cuts() {
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    for scenario in golden_scenarios() {
        let name = scenario.name;
        let compiled = CompiledModule::compile(scenario.module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        for _ in 0..5 {
            let cut = rng.next() % full.cycles.max(1) + 1;
            let snap = compiled
                .snapshot(cut, &options(Backend::Fused))
                .unwrap_or_else(|e| panic!("{name}: snapshot at {cut}: {e}"));
            let bytes = snap.encode();
            let decoded =
                Snapshot::decode(&bytes).unwrap_or_else(|e| panic!("{name}: decode at {cut}: {e}"));
            assert_eq!(
                decoded.encode(),
                bytes,
                "{name}: encoding not canonical at cut {cut}"
            );
        }
    }
}

/// FNV-1a 64, the same hash the wire format uses for its trailing checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `(len, fnv1a64)` of an encoded snapshot.
type Pin = (usize, u64);

/// `(name, pin under Fused, pin under Interp)` of every golden scenario's
/// snapshot at its mid cut, recorded at snapshot format version 6.
const WIRE_PINS: &[(&str, Pin, Pin)] = &[
    (
        "fig09_4x4_ws_8x8",
        (6981, 15351309054420611759),
        (6981, 15351309054420611759),
    ),
    (
        "fig11_linalg_ws_8",
        (4459, 12912893200464968659),
        (4459, 12912893200464968659),
    ),
    (
        "fig11_affine_ws_8",
        (4685, 2716741470586040258),
        (4685, 8527805315209401337),
    ),
    (
        "fig11_reassign_ws_8",
        (7407, 17665752700782167666),
        (7407, 1718974893227629429),
    ),
    (
        "fig11_systolic_ws_8",
        (20458, 11363376404801357491),
        (20458, 11363376404801357491),
    ),
    (
        "fig12_ah8_hw16_f4_c4_n8_ws",
        (88451, 1230557805690341201),
        (88451, 1230557805690341201),
    ),
    (
        "fig12_ah8_hw16_f4_c4_n8_is",
        (1261758, 15522863090026730036),
        (1261758, 15522863090026730036),
    ),
    (
        "fig12_ah8_hw16_f4_c4_n8_os",
        (78414, 5648697243352167909),
        (78414, 5648697243352167909),
    ),
    (
        "fir_single_core",
        (1125, 10172340196499967744),
        (1125, 10172340196499967744),
    ),
    (
        "fir_pipelined16",
        (166207, 4761161310129975628),
        (166207, 4761161310129975628),
    ),
    (
        "fir_bandwidth16",
        (165396, 1805009330818018978),
        (165396, 1805009330818018978),
    ),
    (
        "fir_balanced4",
        (40286, 16717492726713771188),
        (40286, 16717492726713771188),
    ),
    (
        "matmul_linalg16",
        (6889, 5120595497982497329),
        (6889, 5120595497982497329),
    ),
    (
        "matmul_affine16",
        (7021, 4323305768404167134),
        (7021, 12086890012701237003),
    ),
    (
        "tensor_stream_64x8",
        (66507, 17415112173564248478),
        (66507, 17415112173564248478),
    ),
    (
        "conv2d_systolic_8x3",
        (7137, 3823115719196375707),
        (7137, 3823115719196375707),
    ),
    (
        "multi_tenant_4x16x6",
        (22079, 13209973021654203304),
        (22079, 13209973021654203304),
    ),
    (
        "mega_grid_8x8",
        (18192, 15724766968560534395),
        (18192, 6997617878359100393),
    ),
    (
        "shard_grid_4x4",
        (6318, 9208075020518353515),
        (6318, 9731222614228874716),
    ),
];

/// The wire format is pinned, not just self-consistent: the encoding of
/// every golden scenario's mid-cut snapshot, under both capture backends,
/// must match the recorded length and FNV-1a 64 hash byte for byte. Any
/// change to what a snapshot stores or how it lays it out shows up here and
/// needs a format-version bump.
#[test]
fn wire_format_is_pinned() {
    let mut got = Vec::new();
    for scenario in golden_scenarios() {
        let name = scenario.name;
        let compiled = CompiledModule::compile(scenario.module, SimLibrary::standard())
            .unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        let full = compiled
            .simulate(&options(Backend::Fused))
            .unwrap_or_else(|e| panic!("{name}: full run: {e}"));
        let pin = |backend| {
            let bytes = compiled
                .snapshot(full.cycles / 2, &options(backend))
                .unwrap_or_else(|e| panic!("{name}: snapshot: {e}"))
                .encode();
            (bytes.len(), fnv1a(&bytes))
        };
        got.push((name, pin(Backend::Fused), pin(Backend::Interp)));
    }
    for row in &got {
        println!("    {row:?},");
    }
    assert_eq!(got, WIRE_PINS, "snapshot wire format drifted");
}
