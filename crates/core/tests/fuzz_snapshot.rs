//! Snapshot-corpus fuzzing: mutated and truncated snapshot byte streams
//! must never panic anywhere in `decode → resume`. Every failure has to
//! surface as a typed [`SimError::Snapshot`].
//!
//! The fuzzer is dependency-free: a xorshift64* PRNG drives byte-level
//! mutations of real encoded snapshots captured from small programs. The
//! wire format carries a trailing checksum, so almost every mutation must
//! be rejected at decode; the rare survivor (a no-op mutation) must still
//! resume cleanly. A second arm re-seals each mutated stream with a fresh
//! checksum, so the mutation reaches resume's checks and the resumed run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use equeue_core::{
    CompiledModule, RunLimits, SimError, SimLibrary, SimOptions, SimReport, Snapshot,
};
use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
use equeue_ir::{Module, OpBuilder, Type};

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

/// A compute-only program: one MAC unit stepping through `mac` ext-ops.
fn mac_chain(n: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let start = b.control_start();
    let l = b.launch(start, pe, &[], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        for _ in 0..n {
            ib.ext_op("mac", vec![], vec![]);
        }
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

/// A memory-touching program: an affine loop doubling a register buffer
/// in place (frames, loop state, and tensors all land in the snapshot).
fn affine_double(n: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::ARM_R5);
    let mem = b.create_mem(kinds::SRAM, &[n], 32, 1);
    let buf = b.alloc(mem, &[n], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let v = l.body_args[0];
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let (_, bi, i) = ib.affine_for(0, n as i64, 1);
        {
            let mut lb = OpBuilder::at_end(ib.module_mut(), bi);
            let x = lb.affine_load(v, vec![i]);
            let y = lb.addi(x, x);
            lb.affine_store(y, v, vec![i]);
            lb.affine_yield();
        }
        let mut ib = OpBuilder::at_end(&mut m, l.body);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

/// A MAC unit stepping through an `affine.for` of `mac` ext-ops, which
/// the fused backend declines, so a snapshot holds the loop's scope.
/// The loop counts from `lower`, so its induction value is easy to find
/// in the stream.
fn mac_loop(lower: i64, n: i64) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::MAC);
    let start = b.control_start();
    let l = b.launch(start, pe, &[], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        let (_, bi, _) = ib.affine_for(lower, lower + n, 1);
        {
            let mut lb = OpBuilder::at_end(ib.module_mut(), bi);
            lb.ext_op("mac", vec![], vec![]);
            lb.affine_yield();
        }
        let mut ib = OpBuilder::at_end(&mut m, l.body);
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

/// Two MAC units joined by both signal combinators: a `control_and` and a
/// `control_or` over their launches' done signals, which a mid-run
/// snapshot captures while both are still pending.
fn fork_join(n: usize) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut dones = vec![];
    for _ in 0..2 {
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let l = b.launch(start, pe, &[], vec![]);
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        for _ in 0..n {
            ib.ext_op("mac", vec![], vec![]);
        }
        ib.ret(vec![]);
        dones.push(l.done);
    }
    let mut b = OpBuilder::at_end(&mut m, blk);
    let all = b.control_and(dones.clone());
    let any = b.control_or(dones);
    b.await_all(vec![all, any]);
    m
}

/// Captures a mid-run snapshot of `module` and returns the compiled
/// handle plus the snapshot's canonical encoding.
fn seed(module: Module, cut: u64) -> (CompiledModule, Vec<u8>) {
    let compiled =
        CompiledModule::compile(module, SimLibrary::standard()).expect("corpus module compiles");
    let snap = compiled
        .snapshot(
            cut,
            &SimOptions {
                trace: false,
                ..Default::default()
            },
        )
        .expect("corpus snapshot captures");
    let bytes = snap.encode();
    (compiled, bytes)
}

/// One random mutation of an encoded snapshot: truncation, bit flips,
/// overwrites, splices, and region zeroing — hostile input for every
/// layer of the decoder (header, sections, checksum).
fn mutate(rng: &mut Rng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    match rng.below(6) {
        // Truncate at a random byte (including 0 and full length).
        0 => {
            let at = rng.below(bytes.len() + 1);
            bytes.truncate(at);
        }
        // Flip a random bit.
        1 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // Overwrite a random byte (length-prefix and tag corruption).
        2 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                bytes[at] = rng.next() as u8;
            }
        }
        // Splice a burst of random bytes in place.
        3 => {
            let at = rng.below(bytes.len() + 1);
            let burst: Vec<u8> = (0..1 + rng.below(16)).map(|_| rng.next() as u8).collect();
            bytes.splice(at..at, burst);
        }
        // Zero a region (huge-length and null-tag paths).
        4 => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                let end = (at + 1 + rng.below(32)).min(bytes.len());
                bytes[at..end].fill(0);
            }
        }
        // Saturate a region with 0xFF (max-length allocation guards).
        _ => {
            if !bytes.is_empty() {
                let at = rng.below(bytes.len());
                let end = (at + 1 + rng.below(32)).min(bytes.len());
                bytes[at..end].fill(0xFF);
            }
        }
    }
    bytes
}

/// Runs one hostile byte stream through `decode → resume`. Returns an
/// error string when the case panicked or produced an untyped failure.
fn drive(compiled: &CompiledModule, bytes: &[u8]) -> Result<DecodeOutcome, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let opts = SimOptions {
            trace: false,
            ..Default::default()
        };
        match Snapshot::decode(bytes) {
            Ok(snap) => DecodeStep::Decoded(compiled.resume(&snap, &opts)),
            Err(e) => DecodeStep::Rejected(e),
        }
    }));
    match outcome {
        Err(_) => Err("panicked".into()),
        Ok(DecodeStep::Rejected(SimError::Snapshot(_))) => Ok(DecodeOutcome::RejectedTyped),
        Ok(DecodeStep::Rejected(e)) => Err(format!("decode failed with non-Snapshot error: {e}")),
        Ok(DecodeStep::Decoded(Ok(_))) => Ok(DecodeOutcome::Resumed),
        Ok(DecodeStep::Decoded(Err(SimError::Snapshot(_)))) => Ok(DecodeOutcome::RejectedTyped),
        Ok(DecodeStep::Decoded(Err(e))) => {
            Err(format!("resume failed with non-Snapshot error: {e}"))
        }
    }
}

enum DecodeStep {
    Decoded(Result<SimReport, SimError>),
    Rejected(SimError),
}

enum DecodeOutcome {
    RejectedTyped,
    Resumed,
}

/// Feeds ≥1k mutated snapshot streams through `decode → resume`. A panic
/// anywhere, or any failure that is not [`SimError::Snapshot`], fails the
/// test with the offending case number so it can be replayed.
#[test]
fn mutated_snapshots_never_panic() {
    let corpus = [seed(mac_chain(16), 5), seed(affine_double(8), 7)];
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut rejected = 0usize;
    let mut resumed = 0usize;
    for case in 0..1200 {
        let (compiled, base) = &corpus[rng.below(corpus.len())];
        // Stack 1–3 mutations so errors compound.
        let mut bytes = mutate(&mut rng, base);
        for _ in 0..rng.below(3) {
            bytes = mutate(&mut rng, &bytes);
        }
        match drive(compiled, &bytes) {
            Ok(DecodeOutcome::RejectedTyped) => rejected += 1,
            Ok(DecodeOutcome::Resumed) => resumed += 1,
            Err(why) => panic!("fuzz case {case}: {why} ({} bytes)", bytes.len()),
        }
    }
    // The checksum makes typed rejection the overwhelmingly common path;
    // the occasional no-op mutation resumes fine. Both must appear, or
    // the harness isn't exercising what it claims.
    assert!(rejected > 1000, "only {rejected} cases rejected");
    // `truncate(len)` and re-zeroing zero bytes leave the stream intact.
    assert!(resumed > 0, "no mutated stream survived to resume");
}

/// Pure truncation sweep: every prefix of a real snapshot must decode or
/// fail with a typed error. Catches end-of-input handling in the reader.
#[test]
fn truncated_snapshots_never_panic() {
    let (compiled, bytes) = seed(affine_double(8), 3);
    for at in 0..bytes.len() {
        if let Err(why) = drive(&compiled, &bytes[..at]) {
            panic!("snapshot truncated at byte {at}: {why}");
        }
    }
    // The untruncated stream is valid and resumes.
    assert!(matches!(
        drive(&compiled, &bytes),
        Ok(DecodeOutcome::Resumed)
    ));
}

/// Decoding a valid snapshot against the *wrong* module must be a typed
/// rejection at resume (the fingerprint check), never a panic.
#[test]
fn resume_against_wrong_module_is_typed() {
    let (_, bytes) = seed(mac_chain(16), 5);
    let other = CompiledModule::compile(affine_double(8), SimLibrary::standard())
        .expect("corpus module compiles");
    let snap = Snapshot::decode(&bytes).expect("valid stream decodes");
    match other.resume(
        &snap,
        &SimOptions {
            trace: false,
            ..Default::default()
        },
    ) {
        Err(SimError::Snapshot(msg)) => {
            assert!(
                msg.contains("fingerprint") || msg.contains("module"),
                "unhelpful mismatch message: {msg}"
            );
        }
        Err(e) => panic!("wrong-module resume failed with non-Snapshot error: {e}"),
        Ok(_) => panic!("wrong-module resume succeeded"),
    }
}

/// Byte offset of the captured `now` in an encoded snapshot: magic and
/// version (8 bytes), the two cuts (16), the completion flag (1) and the
/// module fingerprint (24). Nine more `u64` counters follow it, the last
/// of which is the scheduler's `seq`.
const NOW_AT: usize = 49;
const SEQ_AT: usize = NOW_AT + 9 * 8;

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// FNV-1a 64, the wire format's trailing checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Rewrites the wake-queue section of an encoded snapshot with `edit`
/// (given the captured `now` and `seq`) and re-seals the checksum, so the
/// stream still decodes and only resume's checks can reject it.
fn edit_wake_queue(
    bytes: &[u8],
    edit: impl FnOnce(u64, u64, &mut Vec<(u64, u64, u32)>),
) -> Vec<u8> {
    let (now, seq) = (u64_at(bytes, NOW_AT), u64_at(bytes, SEQ_AT));
    // The host-memory id: a tag byte, then a `u32` when present.
    let len_at = SEQ_AT + 8 + if bytes[SEQ_AT + 8] == 0 { 1 } else { 5 };
    let n = u64_at(bytes, len_at) as usize;
    let mut wakes: Vec<(u64, u64, u32)> = (0..n)
        .map(|i| {
            let at = len_at + 8 + i * 20;
            let p = u32::from_le_bytes(bytes[at + 16..at + 20].try_into().expect("4 bytes"));
            (u64_at(bytes, at), u64_at(bytes, at + 8), p)
        })
        .collect();
    edit(now, seq, &mut wakes);
    let mut out = bytes[..len_at].to_vec();
    out.extend_from_slice(&(wakes.len() as u64).to_le_bytes());
    for (t, s, p) in wakes {
        out.extend_from_slice(&t.to_le_bytes());
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&p.to_le_bytes());
    }
    out.extend_from_slice(&bytes[len_at + 8 + n * 20..bytes.len() - 8]);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A restored wake queue must name known processors, be due no earlier
/// than the captured time, and carry unique seqs below the captured
/// counter; the scheduler's same-time FIFO pops in `(time, seq)` order only
/// then. Each violation is a typed rejection at resume.
#[test]
fn invalid_wake_queue_entries_are_rejected() {
    let (compiled, bytes) = seed(mac_chain(16), 5);
    let opts = SimOptions {
        trace: false,
        ..Default::default()
    };
    let resume = |bytes: &[u8]| {
        let snap = Snapshot::decode(bytes).expect("re-sealed stream decodes");
        compiled.resume(&snap, &opts)
    };
    // The rewrite itself is faithful: an unedited queue resumes.
    let same = edit_wake_queue(&bytes, |_, _, _| {});
    assert_eq!(same, bytes);
    assert!(resume(&same).is_ok());

    type Edit = fn(u64, u64, &mut Vec<(u64, u64, u32)>);
    let cases: [(&str, Edit, &str); 4] = [
        (
            "unknown processor",
            |_, _, w| w[0].2 = 1000,
            "unknown processor",
        ),
        (
            "due before now",
            |now, _, w| w[0].0 = now - 1,
            "before the captured time",
        ),
        (
            "seq not yet issued",
            |_, seq, w| w[0].1 = seq,
            "not yet issued",
        ),
        (
            "duplicate seq",
            |_, _, w| w.push((w[0].0 + 1, w[0].1, w[0].2)),
            "share a sequence number",
        ),
    ];
    assert!(u64_at(&bytes, NOW_AT) > 0, "the cut must leave now > 0");
    for (name, edit, want) in cases {
        match resume(&edit_wake_queue(&bytes, edit)) {
            Err(SimError::Snapshot(msg)) => {
                assert!(msg.contains(want), "{name}: unexpected message {msg:?}");
            }
            Err(e) => panic!("{name}: non-Snapshot error {e}"),
            Ok(_) => panic!("{name}: resumed"),
        }
    }
}

/// The interpreter steps a loop body's scope from the frame's induction
/// slot, so resume rejects a frame whose loop scope's slot holds no
/// integer.
#[test]
fn non_integer_induction_slot_is_rejected() {
    const LOWER: i64 = 0x5EED_0000;
    let (compiled, bytes) = seed(mac_loop(LOWER, 16), 5);
    let resume = |bytes: &[u8]| {
        let snap = Snapshot::decode(bytes).expect("re-sealed stream decodes");
        compiled.resume(&snap, &SimOptions::default())
    };
    // The environment entry of the induction variable: a presence tag,
    // the `Int` tag and the value.
    let hits: Vec<usize> = (0..bytes.len() - 10)
        .filter(|&i| {
            let v = i64::from_le_bytes(bytes[i + 2..i + 10].try_into().expect("8 bytes"));
            bytes[i..i + 2] == [1, 1] && (LOWER..LOWER + 16).contains(&v)
        })
        .collect();
    let [at] = hits[..] else {
        panic!("expected one induction value in the stream, found {hits:?}")
    };
    // Rebind the slot to `Unit`: its tag 0 and no payload.
    let mut edited = bytes[..at + 1].to_vec();
    edited.push(0);
    edited.extend_from_slice(&bytes[at + 10..]);
    reseal(&mut edited);
    match resume(&edited) {
        Err(SimError::Snapshot(msg)) => {
            assert!(msg.contains("induction"), "unexpected message {msg:?}");
        }
        Err(e) => panic!("non-Snapshot error {e}"),
        Ok(_) => panic!("resumed"),
    }
    // Unedited, the stream resumes.
    assert!(resume(&bytes).is_ok());
}

/// Re-stamps the trailing checksum over a (mutated) stream.
fn reseal(bytes: &mut [u8]) {
    if let Some(body) = bytes.len().checked_sub(8) {
        let checksum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
    }
}

/// Mutated streams re-sealed with a fresh checksum get past decode, so
/// resume's own checks (and the resumed run, under tight limits) see every
/// mutation. Restored counters, clocks and free times near `u64::MAX` once
/// overflowed here. Every outcome must be typed: a rejection at resume, a
/// run error, or a report.
#[test]
fn resealed_snapshots_never_panic() {
    let corpus = [
        seed(mac_chain(16), 5),
        seed(affine_double(8), 7),
        seed(fork_join(16), 5),
    ];
    let opts = SimOptions {
        trace: false,
        limits: RunLimits {
            max_cycles: 1 << 20,
            max_events: 1 << 20,
            max_live_tensor_bytes: 16 << 20,
            wall_deadline: Some(Duration::from_millis(500)),
        },
        ..Default::default()
    };
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    let (mut rejected, mut ran) = (0usize, 0usize);
    for case in 0..3000 {
        let (compiled, base) = &corpus[rng.below(corpus.len())];
        let mut bytes = mutate(&mut rng, base);
        for _ in 0..rng.below(3) {
            bytes = mutate(&mut rng, &bytes);
        }
        reseal(&mut bytes);
        let outcome = catch_unwind(AssertUnwindSafe(|| match Snapshot::decode(&bytes) {
            Ok(snap) => compiled.resume(&snap, &opts).map(drop),
            Err(e) => Err(e),
        }));
        match outcome {
            Err(_) => panic!("re-sealed case {case} panicked ({} bytes)", bytes.len()),
            Ok(Err(SimError::Snapshot(_))) => rejected += 1,
            Ok(_) => ran += 1,
        }
    }
    // Both paths must be exercised: a mutation in a tensor or a clock
    // often still resumes, and one in a tag or length never does.
    assert!(rejected > 300, "only {rejected} cases rejected");
    assert!(ran > 200, "only {ran} cases ran");
}

/// A restored time or counter at 2^62 or above is a typed rejection at
/// resume; just below it, the run resumes and counts on.
#[test]
fn oversized_counters_are_rejected() {
    let (compiled, bytes) = seed(mac_chain(16), 5);
    let opts = SimOptions {
        trace: false,
        limits: RunLimits {
            max_events: u64::MAX,
            ..Default::default()
        },
        ..Default::default()
    };
    let with = |at: usize, v: u64| {
        let mut b = bytes.clone();
        b[at..at + 8].copy_from_slice(&v.to_le_bytes());
        reseal(&mut b);
        let snap = Snapshot::decode(&b).expect("re-sealed stream decodes");
        compiled.resume(&snap, &opts)
    };
    // The counters in stream order: now, horizon, wakes, …, seq.
    for (name, at) in [("now", NOW_AT), ("wakes", NOW_AT + 16), ("seq", SEQ_AT)] {
        match with(at, 1 << 62) {
            Err(SimError::Snapshot(msg)) => {
                assert!(
                    msg.contains("too large"),
                    "{name}: unexpected message {msg:?}"
                );
            }
            Err(e) => panic!("{name}: non-Snapshot error {e}"),
            Ok(_) => panic!("{name}: resumed"),
        }
    }
    let report = with(NOW_AT + 16, (1 << 62) - 1).expect("a counter below the bound resumes");
    assert!(report.events_processed >= 1 << 62);
}

/// Resumes `bytes` re-sealed against `compiled`, returning the message of
/// its snapshot rejection.
fn rejection(compiled: &CompiledModule, mut bytes: Vec<u8>) -> String {
    reseal(&mut bytes);
    let snap = Snapshot::decode(&bytes).expect("re-sealed stream decodes");
    let opts = SimOptions {
        trace: false,
        ..Default::default()
    };
    match compiled.resume(&snap, &opts) {
        Err(SimError::Snapshot(msg)) => msg,
        Err(e) => panic!("non-Snapshot error {e}"),
        Ok(_) => panic!("resumed"),
    }
}

/// Offset just past the record of the component named `name`: its length
/// prefix and bytes. Its origin follows: a presence tag and an op index.
fn after_name(bytes: &[u8], name: &str) -> usize {
    let record = [&(name.len() as u64).to_le_bytes()[..], name.as_bytes()].concat();
    let hits: Vec<usize> = (0..bytes.len() - record.len())
        .filter(|&i| bytes[i..].starts_with(&record))
        .collect();
    let [at] = hits[..] else {
        panic!("expected one component named {name}, found {hits:?}")
    };
    at + record.len()
}

/// A component is rebuilt from the op its origin names, and that op
/// decides what the record holds. A memory re-pointed at the
/// `create_proc` op becomes a processor, whose record ends at its origin,
/// so the memory's state is read as whatever follows and the stream is
/// rejected.
#[test]
fn memory_with_a_create_proc_origin_is_rejected() {
    let (compiled, bytes) = seed(affine_double(8), 7);
    let proc_origin = after_name(&bytes, "ARMr5#1");
    let mem_origin = after_name(&bytes, "SRAM#2");
    assert_eq!(bytes[mem_origin], 1, "the memory records its origin");
    let mut edited = bytes.clone();
    edited.copy_within(proc_origin..proc_origin + 9, mem_origin);
    assert_ne!(edited, bytes, "the two origins differ");
    rejection(&compiled, edited);
}

/// A processor runtime is charged the op costs of its component, so its
/// component must execute: the host's runtime moved onto the memory is a
/// typed rejection.
#[test]
fn runtime_on_a_memory_is_rejected() {
    let (compiled, bytes) = seed(affine_double(8), 7);
    // The processor runtimes follow the wake queue; the first is the
    // host's, opening with its component id 0.
    let len_at = SEQ_AT + 8 + if bytes[SEQ_AT + 8] == 0 { 1 } else { 5 };
    let host = len_at + 8 + u64_at(&bytes, len_at) as usize * 20 + 8;
    assert_eq!(bytes[host..host + 4], 0u32.to_le_bytes());
    let mut edited = bytes.clone();
    edited[host..host + 4].copy_from_slice(&2u32.to_le_bytes());
    let msg = rejection(&compiled, edited);
    assert!(msg.contains("does not execute"), "{msg}");
}

/// A memory's port free times must be as many as its `create_mem` op
/// gives it ports (two by default).
#[test]
fn memory_port_count_must_match_its_op() {
    let (compiled, bytes) = seed(affine_double(8), 7);
    // The origin (9 bytes) and `used_elems` (8) precede the port count.
    let ports = after_name(&bytes, "SRAM#2") + 9 + 8;
    assert_eq!(u64_at(&bytes, ports), 2);
    let mut edited = bytes[..ports].to_vec();
    edited.extend_from_slice(&1u64.to_le_bytes());
    edited.extend_from_slice(&bytes[ports + 16..]);
    let msg = rejection(&compiled, edited);
    assert!(msg.contains("port count"), "{msg}");
}

/// A pending `and` combinator resolves at the latest time its
/// dependencies resolved so far, so a restored one is bounded like any
/// other time. A pending `or` keeps `u64::MAX` there and never reads it:
/// turning it into an `and` by its mode byte is a typed rejection.
#[test]
fn pending_and_combinator_time_is_bounded() {
    let (compiled, bytes) = seed(fork_join(16), 5);
    let opts = SimOptions {
        trace: false,
        ..Default::default()
    };
    let resume = |bytes: &[u8]| {
        let snap = Snapshot::decode(bytes).expect("re-sealed stream decodes");
        compiled.resume(&snap, &opts)
    };
    assert!(resume(&bytes).is_ok(), "the captured stream resumes");
    // The pending `or`: its `u64::MAX` accumulator, then its mode byte.
    let or_state = [[0xff; 8].as_slice(), &[1]].concat();
    let at = bytes
        .windows(or_state.len())
        .position(|w| w == or_state)
        .expect("a pending `or` in the stream")
        + 8;
    let mut flipped = bytes.clone();
    flipped[at] = 0;
    reseal(&mut flipped);
    match resume(&flipped) {
        Err(SimError::Snapshot(msg)) => {
            assert!(msg.contains("too large"), "unexpected message {msg:?}");
        }
        Err(e) => panic!("non-Snapshot error {e}"),
        Ok(_) => panic!("an `and` pending at u64::MAX resumed"),
    }
}
