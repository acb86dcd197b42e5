//! Event signals and their dependency combinators.
//!
//! Every event operation (`launch`, `memcpy`, `control_*`) produces a
//! [`SignalId`]. A signal is *resolved* once its event completes, carrying
//! the completion timestamp and an optional payload (the values passed to
//! `equeue.return`). `control_and`/`control_or` are derived signals that
//! resolve when all/any of their dependencies resolve (§III-D).

use crate::value::{SignalId, SimValue};
use equeue_ir::IdVec;

/// State of one signal. `pub(crate)` so the snapshot codec can serialise
/// and restore the table verbatim.
#[derive(Debug, Clone)]
pub(crate) enum SignalState {
    /// Not yet fired; combinator bookkeeping lives alongside.
    Pending {
        /// For `control_and`: outstanding dependency count.
        remaining: usize,
        /// Latest dependency resolve time seen so far (`and` semantics) or
        /// earliest (`or`).
        time_acc: u64,
        /// Whether this is an `or` combinator (first dep fires it).
        any_mode: bool,
        /// Downstream derived signals to notify on resolution. Most
        /// signals have one or none, which `IdVec` holds inline.
        dependents: IdVec<SignalId>,
    },
    /// Fired at `time` with `payload`.
    Resolved {
        /// Resolution timestamp.
        time: u64,
        /// Values passed to `equeue.return` (empty for most signals).
        payload: Vec<SimValue>,
    },
}

/// The signal table: allocation, combinators, and resolution.
///
/// # Examples
///
/// ```
/// use equeue_core::SignalTable;
/// let mut t = SignalTable::new();
/// let a = t.fresh();
/// let b = t.fresh();
/// let both = t.new_and(&[a, b]);
/// t.resolve(a, 5, vec![]);
/// assert!(!t.is_resolved(both));
/// t.resolve(b, 9, vec![]);
/// assert_eq!(t.resolve_time(both), Some(9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SignalTable {
    pub(crate) signals: Vec<SignalState>,
    /// Signals resolved by the most recent `resolve` cascade. Transient
    /// scratch: only read right after a cascade, so snapshots need not
    /// capture it.
    just_resolved: Vec<SignalId>,
}

impl SignalTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a table from deserialised states (snapshot restore). The
    /// transient `just_resolved` scratch starts empty, matching the
    /// between-events state a snapshot is taken in.
    pub(crate) fn from_states(signals: Vec<SignalState>) -> Self {
        SignalTable {
            signals,
            just_resolved: Vec::new(),
        }
    }

    /// Allocates a fresh unresolved signal (for launches/memcpys).
    pub fn fresh(&mut self) -> SignalId {
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(SignalState::Pending {
            remaining: 1,
            time_acc: 0,
            any_mode: false,
            dependents: IdVec::new(),
        });
        id
    }

    /// Allocates a signal already resolved at `time` (for `control_start`).
    pub fn resolved_at(&mut self, time: u64) -> SignalId {
        let id = SignalId(self.signals.len() as u32);
        self.signals.push(SignalState::Resolved {
            time,
            payload: vec![],
        });
        id
    }

    /// Creates a `control_and` signal over `deps`: resolves when all deps
    /// have, at the max of their times.
    pub fn new_and(&mut self, deps: &[SignalId]) -> SignalId {
        self.new_combinator(deps, false)
    }

    /// Creates a `control_or` signal over `deps`: resolves when the first
    /// dep does, at that dep's time.
    pub fn new_or(&mut self, deps: &[SignalId]) -> SignalId {
        self.new_combinator(deps, true)
    }

    fn new_combinator(&mut self, deps: &[SignalId], any_mode: bool) -> SignalId {
        let id = SignalId(self.signals.len() as u32);
        let mut remaining = 0;
        let mut time_acc = 0u64;
        let mut fired_any: Option<u64> = None;
        for &d in deps {
            match &self.signals[d.0 as usize] {
                SignalState::Resolved { time, .. } => {
                    time_acc = time_acc.max(*time);
                    if fired_any.is_none_or(|t| *time < t) {
                        fired_any = Some(*time);
                    }
                }
                SignalState::Pending { .. } => remaining += 1,
            }
        }
        let state = if any_mode {
            if let Some(t) = fired_any {
                SignalState::Resolved {
                    time: t,
                    payload: vec![],
                }
            } else if remaining == 0 {
                // No deps at all: fire immediately at 0.
                SignalState::Resolved {
                    time: 0,
                    payload: vec![],
                }
            } else {
                SignalState::Pending {
                    remaining: 1,
                    time_acc: u64::MAX,
                    any_mode: true,
                    dependents: IdVec::new(),
                }
            }
        } else if remaining == 0 {
            SignalState::Resolved {
                time: time_acc,
                payload: vec![],
            }
        } else {
            SignalState::Pending {
                remaining,
                time_acc,
                any_mode: false,
                dependents: IdVec::new(),
            }
        };
        let resolved = matches!(state, SignalState::Resolved { .. });
        self.signals.push(state);
        if !resolved {
            for &d in deps {
                if let SignalState::Pending { dependents, .. } = &mut self.signals[d.0 as usize] {
                    dependents.push(id);
                }
            }
        }
        id
    }

    /// Whether `sig` has fired.
    pub fn is_resolved(&self, sig: SignalId) -> bool {
        matches!(self.signals[sig.0 as usize], SignalState::Resolved { .. })
    }

    /// The resolve time, if fired.
    pub fn resolve_time(&self, sig: SignalId) -> Option<u64> {
        match &self.signals[sig.0 as usize] {
            SignalState::Resolved { time, .. } => Some(*time),
            _ => None,
        }
    }

    /// The payload attached at resolution (empty until fired).
    pub fn payload(&self, sig: SignalId) -> &[SimValue] {
        match &self.signals[sig.0 as usize] {
            SignalState::Resolved { payload, .. } => payload,
            _ => &[],
        }
    }

    /// Resolves `sig` at `time` with `payload`, cascading through
    /// combinators. Returns every signal that became resolved (including
    /// `sig`). Resolving an already-resolved signal is a no-op: the first
    /// resolution wins (faulty or adversarial IR can attempt it).
    pub fn resolve(&mut self, sig: SignalId, time: u64, payload: Vec<SimValue>) -> Vec<SignalId> {
        self.resolve_cascade(sig, time, payload).to_vec()
    }

    /// [`SignalTable::resolve`] without the copy: the fired signals are
    /// borrowed from the table's scratch, which the next call reuses.
    pub(crate) fn resolve_cascade(
        &mut self,
        sig: SignalId,
        time: u64,
        payload: Vec<SimValue>,
    ) -> &[SignalId] {
        self.just_resolved.clear();
        self.resolve_inner(sig, time, payload);
        &self.just_resolved
    }

    fn resolve_inner(&mut self, sig: SignalId, time: u64, payload: Vec<SimValue>) {
        let dependents = match &mut self.signals[sig.0 as usize] {
            SignalState::Resolved { .. } => return, // first resolution wins
            SignalState::Pending { dependents, .. } => std::mem::take(dependents),
        };
        self.signals[sig.0 as usize] = SignalState::Resolved { time, payload };
        self.just_resolved.push(sig);
        for dep in dependents {
            let fire = match &mut self.signals[dep.0 as usize] {
                SignalState::Pending {
                    remaining,
                    time_acc,
                    any_mode,
                    ..
                } => {
                    if *any_mode {
                        Some(time)
                    } else {
                        // Saturating: a well-formed table never underflows,
                        // but a restored snapshot is external input.
                        *remaining = remaining.saturating_sub(1);
                        *time_acc = (*time_acc).max(time);
                        if *remaining == 0 {
                            Some(*time_acc)
                        } else {
                            None
                        }
                    }
                }
                SignalState::Resolved { .. } => None, // `or` already fired
            };
            if let Some(t) = fire {
                self.resolve_inner(dep, t, vec![]);
            }
        }
    }

    /// Number of signals allocated.
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// Whether no signals have been allocated.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_and_resolve() {
        let mut t = SignalTable::new();
        let s = t.fresh();
        assert!(!t.is_resolved(s));
        let fired = t.resolve(s, 42, vec![SimValue::Int(7)]);
        assert_eq!(fired, vec![s]);
        assert_eq!(t.resolve_time(s), Some(42));
        assert_eq!(t.payload(s), &[SimValue::Int(7)]);
    }

    #[test]
    fn double_resolve_is_ignored() {
        let mut t = SignalTable::new();
        let s = t.fresh();
        t.resolve(s, 1, vec![SimValue::Int(9)]);
        let fired = t.resolve(s, 2, vec![]);
        assert!(fired.is_empty());
        assert_eq!(t.resolve_time(s), Some(1)); // first resolution wins
        assert_eq!(t.payload(s), &[SimValue::Int(9)]);
    }

    #[test]
    fn and_waits_for_all_and_takes_max() {
        let mut t = SignalTable::new();
        let a = t.fresh();
        let b = t.fresh();
        let and = t.new_and(&[a, b]);
        t.resolve(b, 10, vec![]);
        assert!(!t.is_resolved(and));
        let fired = t.resolve(a, 3, vec![]);
        assert!(fired.contains(&and));
        assert_eq!(t.resolve_time(and), Some(10));
    }

    #[test]
    fn or_fires_on_first() {
        let mut t = SignalTable::new();
        let a = t.fresh();
        let b = t.fresh();
        let or = t.new_or(&[a, b]);
        let fired = t.resolve(a, 5, vec![]);
        assert!(fired.contains(&or));
        assert_eq!(t.resolve_time(or), Some(5));
        // The other dependency resolving later is harmless.
        let fired = t.resolve(b, 9, vec![]);
        assert_eq!(fired, vec![b]);
        assert_eq!(t.resolve_time(or), Some(5));
    }

    #[test]
    fn combinators_over_already_resolved() {
        let mut t = SignalTable::new();
        let a = t.resolved_at(4);
        let b = t.resolved_at(6);
        let and = t.new_and(&[a, b]);
        let or = t.new_or(&[a, b]);
        assert_eq!(t.resolve_time(and), Some(6));
        assert_eq!(t.resolve_time(or), Some(4));
    }

    #[test]
    fn nested_combinators_cascade() {
        let mut t = SignalTable::new();
        let a = t.fresh();
        let b = t.fresh();
        let c = t.fresh();
        let ab = t.new_and(&[a, b]);
        let all = t.new_and(&[ab, c]);
        t.resolve(a, 1, vec![]);
        t.resolve(c, 7, vec![]);
        assert!(!t.is_resolved(all));
        let fired = t.resolve(b, 5, vec![]);
        assert!(fired.contains(&ab));
        assert!(fired.contains(&all));
        assert_eq!(t.resolve_time(all), Some(7));
    }

    #[test]
    fn mixed_resolved_pending_and() {
        let mut t = SignalTable::new();
        let a = t.resolved_at(9);
        let b = t.fresh();
        let and = t.new_and(&[a, b]);
        assert!(!t.is_resolved(and));
        t.resolve(b, 2, vec![]);
        assert_eq!(t.resolve_time(and), Some(9));
    }
}
