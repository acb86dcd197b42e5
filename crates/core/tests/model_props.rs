//! Property tests on the device models: schedule queues never double-book,
//! connection statistics conserve bytes, and signal combinators match a
//! reference evaluation over random dependency DAGs.
//!
//! Uses a deterministic xorshift generator instead of `proptest` — the
//! workspace carries no external dependencies. Each property is checked
//! over many seeded random cases; assertion messages include the inputs.

use equeue_core::{AccessKind, Connection, Machine, SignalTable, SramBehavior};
use equeue_dialect::ConnKind;

/// Deterministic xorshift64* PRNG.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

const CASES: usize = 64;

/// Ports never serve two reservations at once: for any sequence of
/// requests, per-port intervals are disjoint and starts never precede
/// the request.
#[test]
fn memory_ports_never_double_book() {
    let mut rng = Rng::new(0x9011A);
    for _ in 0..CASES {
        let ports = rng.range(1, 4) as usize;
        let n = rng.range(1, 40) as usize;
        let requests: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.range(0, 50), rng.range(1, 10)))
            .collect();
        let mut machine = Machine::new();
        let mem = machine.add_memory(
            "SRAM",
            1024,
            32,
            1,
            ports,
            Box::new(SramBehavior::default()),
        );
        let mut granted: Vec<(u64, u64)> = vec![];
        for &(start, dur) in &requests {
            let (actual, finish) = machine.memory_mut(mem).unwrap().reserve(start, dur);
            assert!(actual >= start, "requests = {requests:?}");
            assert_eq!(finish, actual + dur, "requests = {requests:?}");
            granted.push((actual, finish));
        }
        // Overlap count at any instant must not exceed the port count.
        let mut points: Vec<u64> = granted.iter().flat_map(|&(s, f)| [s, f]).collect();
        points.sort_unstable();
        points.dedup();
        for &t in &points {
            let live = granted.iter().filter(|&&(s, f)| s <= t && t < f).count();
            assert!(
                live <= ports,
                "{live} live reservations on {ports} ports at t={t}"
            );
        }
    }
}

/// Connections conserve bytes in their statistics and never overlap
/// transfers on one channel.
#[test]
fn connection_stats_conserve_bytes() {
    let mut rng = Rng::new(0xC023);
    for _ in 0..CASES {
        let bw = rng.range(1, 16);
        let window = rng.bool();
        let n = rng.range(1, 30) as usize;
        let requests: Vec<(u64, u64, bool)> = (0..n)
            .map(|_| (rng.range(0, 40), rng.range(1, 64), rng.bool()))
            .collect();
        let kind = if window {
            ConnKind::Window
        } else {
            ConnKind::Streaming
        };
        let mut conn = Connection::new("c".into(), kind, bw);
        let mut expect_read = 0u64;
        let mut expect_write = 0u64;
        let mut transfers: Vec<(u64, u64, AccessKind)> = vec![];
        for &(start, bytes, is_read) in &requests {
            let dir = if is_read {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let (actual, finish) = conn.reserve(dir, start, bytes);
            transfers.push((actual, finish, dir));
            assert!(actual >= start, "requests = {requests:?}");
            assert_eq!(
                finish - actual,
                bytes.div_ceil(bw),
                "requests = {requests:?}"
            );
            if is_read {
                expect_read += bytes;
            } else {
                expect_write += bytes;
            }
        }
        assert_eq!(conn.bandwidth(AccessKind::Read, 1).bytes, expect_read);
        assert_eq!(conn.bandwidth(AccessKind::Write, 1).bytes, expect_write);
        // Per direction (or globally for Window), transfers are disjoint.
        let check = |dir: AccessKind| {
            let mut spans: Vec<(u64, u64)> = transfers
                .iter()
                .filter(|t| kind == ConnKind::Window || t.2 == dir)
                .map(|t| (t.0, t.1))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                if w[1].0 < w[0].1 {
                    return Err(format!("overlap: {w:?}"));
                }
            }
            Ok(())
        };
        assert!(check(AccessKind::Read).is_ok());
        assert!(check(AccessKind::Write).is_ok());
    }
}

/// Random and/or combinator trees over leaf signals resolve exactly
/// like a reference max/min evaluation — when resolutions arrive in
/// time order, which is what the engine's scheduler guarantees (`or`
/// fires at its first-*resolved* dependency; in time order that is the
/// min-time one).
#[test]
fn signal_dags_match_reference() {
    let mut rng = Rng::new(0xDA6);
    for _ in 0..CASES {
        let leaf_times: Vec<u64> = (0..rng.range(2, 8)).map(|_| rng.range(0, 100)).collect();
        let nodes: Vec<(bool, usize, usize)> = (0..rng.range(1, 8))
            .map(|_| {
                (
                    rng.bool(),
                    rng.range(0, 6) as usize,
                    rng.range(0, 6) as usize,
                )
            })
            .collect();

        let mut table = SignalTable::new();
        let leaves: Vec<_> = leaf_times.iter().map(|_| table.fresh()).collect();

        // Build combinator nodes over earlier signals.
        let mut all = leaves.clone();
        let mut reference: Vec<Option<u64>> = leaf_times.iter().map(|&t| Some(t)).collect();
        let mut spec: Vec<(bool, usize, usize)> = vec![];
        for &(is_and, a, b) in &nodes {
            let a = a % all.len();
            let b = b % all.len();
            let sig = if is_and {
                table.new_and(&[all[a], all[b]])
            } else {
                table.new_or(&[all[a], all[b]])
            };
            all.push(sig);
            spec.push((is_and, a, b));
            reference.push(None);
        }

        // Resolve leaves in ascending time order (ties by index), exactly
        // as the engine's time-ordered scheduler would.
        let mut order: Vec<usize> = (0..leaves.len()).collect();
        order.sort_by_key(|&i| (leaf_times[i], i));
        for &i in &order {
            table.resolve(leaves[i], leaf_times[i], vec![]);
        }

        // Reference evaluation.
        for (i, &(is_and, a, b)) in spec.iter().enumerate() {
            let (ta, tb) = (reference[a].unwrap(), reference[b].unwrap());
            reference[leaves.len() + i] = Some(if is_and { ta.max(tb) } else { ta.min(tb) });
        }

        for (i, &sig) in all.iter().enumerate() {
            assert!(table.is_resolved(sig), "signal {i} unresolved");
            assert_eq!(
                table.resolve_time(sig).unwrap(),
                reference[i].unwrap(),
                "node {i}: leaf_times = {leaf_times:?}, nodes = {nodes:?}"
            );
        }
    }
}

/// Even under adversarial (non-time-ordered) resolution, every
/// combinator eventually resolves — no lost wakeups in the cascade.
#[test]
fn signal_dags_always_resolve() {
    let mut rng = Rng::new(0xA1507);
    for _ in 0..CASES {
        let leaf_count = rng.range(2, 8) as usize;
        let nodes: Vec<(bool, usize, usize)> = (0..rng.range(1, 8))
            .map(|_| {
                (
                    rng.bool(),
                    rng.range(0, 6) as usize,
                    rng.range(0, 6) as usize,
                )
            })
            .collect();
        let resolve_order: Vec<usize> = (0..8).map(|_| rng.range(0, 8) as usize).collect();

        let mut table = SignalTable::new();
        let leaves: Vec<_> = (0..leaf_count).map(|_| table.fresh()).collect();
        let mut all = leaves.clone();
        for &(is_and, a, b) in &nodes {
            let a = a % all.len();
            let b = b % all.len();
            let sig = if is_and {
                table.new_and(&[all[a], all[b]])
            } else {
                table.new_or(&[all[a], all[b]])
            };
            all.push(sig);
        }
        let mut order: Vec<usize> = (0..leaf_count).collect();
        order.sort_by_key(|&i| resolve_order[i % resolve_order.len()]);
        for &i in &order {
            table.resolve(leaves[i], i as u64, vec![]);
        }
        for (i, &sig) in all.iter().enumerate() {
            assert!(table.is_resolved(sig), "signal {i} unresolved");
        }
    }
}

/// Buffer allocation never exceeds capacity and dealloc restores it.
#[test]
fn allocator_respects_capacity() {
    let mut rng = Rng::new(0xA110C);
    for _ in 0..CASES {
        let capacity = rng.range(32, 128) as usize;
        let sizes: Vec<usize> = (0..rng.range(1, 20))
            .map(|_| rng.range(1, 32) as usize)
            .collect();
        let mut machine = Machine::new();
        let mem = machine.add_memory(
            "SRAM",
            capacity,
            32,
            1,
            1,
            Box::new(SramBehavior::default()),
        );
        let mut live: Vec<(equeue_core::BufId, usize)> = vec![];
        let mut used = 0usize;
        for (i, &sz) in sizes.iter().enumerate() {
            match machine.alloc_buffer(mem, vec![sz], 4, true) {
                Ok(id) => {
                    used += sz;
                    assert!(
                        used <= capacity,
                        "allocator over-committed: sizes = {sizes:?}"
                    );
                    live.push((id, sz));
                }
                Err(_) => {
                    assert!(
                        used + sz > capacity,
                        "spurious allocation failure: sizes = {sizes:?}"
                    );
                }
            }
            // Free the oldest buffer every third step.
            if i % 3 == 2 {
                if let Some((id, sz)) = live.first().copied() {
                    machine.dealloc_buffer(id);
                    live.remove(0);
                    used -= sz;
                }
            }
        }
    }
}
