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

use equeue_core::{Backend, CompiledModule, SimLibrary, SimOptions, SimReport, Snapshot};
use equeue_gen::scenarios::golden_scenarios;

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
                e.ts >= snap.actual_cut(),
                "{name}: resumed event {}@{} precedes the cut {}",
                e.name,
                e.ts,
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
        let by_tid = |events: &[equeue_core::TraceEvent]| {
            let mut rows: std::collections::BTreeMap<String, Vec<equeue_core::TraceEvent>> =
                std::collections::BTreeMap::new();
            for e in events {
                rows.entry(e.tid.clone()).or_default().push(e.clone());
            }
            rows
        };
        let full_rows = by_tid(full.trace.events());
        for (tid, row) in by_tid(resumed.trace.events()) {
            let whole = full_rows
                .get(&tid)
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
