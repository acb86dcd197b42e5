//! The scheduler's queue of pending wakes.
//!
//! The engine pops wakes in `(time, seq)` order, where `seq` is a counter
//! that increases with every push. Most wakes are due at the time the
//! scheduler is already at: a host that issues every launch at cycle 0
//! pushes tens of thousands of them before the first pop. A binary heap
//! pays `O(log n)` per push and pop on those, although their order is
//! simply push order. So [`EventQueue`] keeps two tiers:
//!
//! * wakes due at the queue's current time, in a FIFO of `(seq, proc)`;
//! * every other wake, in a binary heap of `(time, seq, proc)`.
//!
//! `pop` takes whichever head is smaller by `(time, seq)`. Since the FIFO
//! holds one time and its seqs were pushed in increasing order, its front
//! is its minimum, so the pop order is exactly a single heap's whenever
//! seqs are pushed in increasing order — which the engine always does, and
//! snapshot restore checks (`seq`s unique and below the snapshot's
//! counter, restored in ascending order).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Pending wakes `(time, seq, proc)`, popped in `(time, seq)` order.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// The time of every FIFO entry: the time of the last wake popped from
    /// the heap while the FIFO was empty.
    now: u64,
    /// Wakes due at `now`, in push (= `seq`) order.
    fifo: VecDeque<(u64, usize)>,
    /// All other wakes.
    later: BinaryHeap<Reverse<(u64, u64, usize)>>,
}

impl EventQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a wake of `proc` at time `t`. `seq` must exceed every `seq`
    /// pushed before it.
    pub(crate) fn push(&mut self, t: u64, seq: u64, proc: usize) {
        if t == self.now {
            self.fifo.push_back((seq, proc));
        } else {
            self.later.push(Reverse((t, seq, proc)));
        }
    }

    /// The time of the next wake, if any.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        let later = self.later.peek().map(|&Reverse((t, _, _))| t);
        if self.fifo.is_empty() {
            later
        } else {
            Some(later.map_or(self.now, |t| t.min(self.now)))
        }
    }

    /// Removes and returns the smallest wake by `(time, seq)`.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, usize)> {
        let fifo_first = match (self.fifo.front(), self.later.peek()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(&(seq, _)), Some(&Reverse((t, s, _)))) => (self.now, seq) < (t, s),
        };
        if fifo_first {
            let (seq, proc) = self.fifo.pop_front()?;
            Some((self.now, seq, proc))
        } else {
            let Reverse((t, seq, proc)) = self.later.pop()?;
            if self.fifo.is_empty() {
                self.now = t;
            }
            Some((t, seq, proc))
        }
    }

    /// Every pending wake as `(time, seq, proc)`, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64, usize)> + '_ {
        let now = self.now;
        self.fifo
            .iter()
            .map(move |&(seq, proc)| (now, seq, proc))
            .chain(self.later.iter().map(|&Reverse(e)| e))
    }
}

impl FromIterator<(u64, u64, usize)> for EventQueue {
    /// Rebuilds a queue from wakes listed in ascending `(time, seq)` order
    /// (a snapshot's list).
    fn from_iter<I: IntoIterator<Item = (u64, u64, usize)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        for (t, seq, proc) in iter {
            q.push(t, seq, proc);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal xorshift64 so the model test is deterministic and std-only.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    type Model = BinaryHeap<Reverse<(u64, u64, usize)>>;

    /// The queue under test and the single-heap reference, driven
    /// together. `now` is the last popped time, as in the engine, which
    /// never schedules a wake before it.
    struct Pair {
        q: EventQueue,
        model: Model,
        seq: u64,
        now: u64,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                q: EventQueue::new(),
                model: Model::new(),
                seq: 0,
                now: 0,
            }
        }

        fn push(&mut self, t: u64, proc: usize) {
            self.q.push(t, self.seq, proc);
            self.model.push(Reverse((t, self.seq, proc)));
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(u64, u64, usize)> {
            assert_eq!(
                self.q.peek_time(),
                self.model.peek().map(|&Reverse((t, _, _))| t)
            );
            let got = self.q.pop();
            assert_eq!(got, self.model.pop().map(|Reverse(e)| e));
            if let Some((t, _, _)) = got {
                self.now = t;
            }
            got
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert_eq!(self.q.iter().count(), 0);
        }
    }

    #[test]
    fn same_time_burst_pops_in_push_order() {
        // A host issuing every launch at cycle 0, as the IS dataflow does.
        let mut pair = Pair::new();
        for i in 0..25_000 {
            pair.push(0, i % 64);
        }
        // Interleave a few future wakes and same-time pushes mid-drain.
        for i in 0..25_000 {
            pair.pop();
            if i % 1000 == 0 {
                pair.push(pair.now + 3, 7);
                pair.push(pair.now, 9);
            }
        }
        pair.drain();
    }

    #[test]
    fn random_sequences_match_a_binary_heap() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for _ in 0..300 {
            let mut pair = Pair::new();
            for _ in 0..400 {
                match rng.below(10) {
                    // At the current time (the FIFO tier's case).
                    0..=3 => pair.push(pair.now, rng.below(8) as usize),
                    // In the near or far future.
                    4..=5 => pair.push(pair.now + 1 + rng.below(4), rng.below(8) as usize),
                    6 => pair.push(pair.now + rng.below(1000), rng.below(8) as usize),
                    // Pops, some of them on an empty queue.
                    _ => {
                        pair.pop();
                    }
                }
                let mut listed: Vec<_> = pair.q.iter().collect();
                let mut expected: Vec<_> = pair.model.iter().map(|&Reverse(e)| e).collect();
                listed.sort_unstable();
                expected.sort_unstable();
                assert_eq!(listed, expected);
            }
            pair.drain();
        }
    }

    #[test]
    fn rebuilt_from_a_sorted_list_pops_like_the_original() {
        let mut rng = XorShift(0xD1B5_4A32_D192_ED03);
        for _ in 0..100 {
            let mut pair = Pair::new();
            for _ in 0..200 {
                match rng.below(4) {
                    0 => {
                        pair.pop();
                    }
                    1 => pair.push(pair.now + rng.below(5), rng.below(8) as usize),
                    _ => pair.push(pair.now, rng.below(8) as usize),
                }
            }
            // Capture as a snapshot does (sorted), rebuild, keep going.
            let mut listed: Vec<_> = pair.q.iter().collect();
            listed.sort_unstable();
            pair.q = listed.into_iter().collect();
            for _ in 0..200 {
                match rng.below(3) {
                    0 => {
                        pair.pop();
                    }
                    1 => pair.push(pair.now + rng.below(5), rng.below(8) as usize),
                    _ => pair.push(pair.now, rng.below(8) as usize),
                }
            }
            pair.drain();
        }
    }
}
