//! Fault injection for robustness testing: controlled perturbations of a
//! [`Module`] that exercise the engine's error paths.
//!
//! Each [`Fault`] mutates the IR the way a buggy generator, a bit-flip, or
//! an adversarial input would: renaming ops, dropping operands, zeroing
//! loop steps, inflating external-op latencies, corrupting shapes, or
//! deleting launch bodies. [`apply_faults`] applies a list of faults and
//! reports how many actually landed, so a test matrix can assert both that
//! the perturbation happened and that the resulting failure surfaced as a
//! typed [`crate::SimError`] — never a panic.
//!
//! The harness is differential by construction: applying an empty fault
//! list (or faults whose targets do not exist) leaves the module untouched,
//! so zero-fault injected runs must stay bit-identical to golden runs.
//!
//! # Examples
//!
//! ```
//! use equeue_core::fault::{apply_faults, Fault};
//! use equeue_ir::Module;
//!
//! let mut m = Module::new();
//! // An empty module has no ops: no fault can land.
//! let applied = apply_faults(&mut m, &[Fault::RenameOp { nth: 0, to: "bogus.op".into() }]);
//! assert_eq!(applied, 0);
//! ```

use equeue_ir::{Attr, Module, OpId};

/// One controlled IR perturbation. `nth` counts matching live ops in arena
/// order; a fault whose target does not exist is a no-op (and is not
/// counted by [`apply_faults`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Rename the `nth` live op to `to`: an unknown name executes as
    /// [`crate::SimError::Unsupported`], a known name with the wrong
    /// operand shape as [`crate::SimError::Layout`].
    RenameOp {
        /// Which live op (arena order).
        nth: usize,
        /// The replacement fully-qualified name.
        to: String,
    },
    /// Remove the last operand of the `nth` live op that has operands:
    /// an arity mismatch that decodes to [`crate::SimError::Layout`].
    DropOperand {
        /// Which live op with at least one operand.
        nth: usize,
    },
    /// Set the `step` attribute of the `nth` `affine.for` to zero: a loop
    /// that could never terminate, rejected at decode as
    /// [`crate::SimError::Layout`].
    ZeroLoopStep {
        /// Which `affine.for` op.
        nth: usize,
    },
    /// Override the `cycles` attribute of the `nth` `equeue.op`: perturbs
    /// event delivery times (huge values drive a run into
    /// [`crate::RunLimits::max_cycles`]).
    ExtOpCycles {
        /// Which `equeue.op`.
        nth: usize,
        /// The new cycle count.
        cycles: i64,
    },
    /// Replace the `shape` attribute of the `nth` `equeue.create_mem`:
    /// overflowing or negative dims surface as [`crate::SimError::Layout`]
    /// or [`crate::SimError::Port`].
    CorruptShape {
        /// Which `equeue.create_mem` op.
        nth: usize,
        /// The replacement dims.
        dims: Vec<i64>,
    },
    /// Delete every region of the `nth` live op that has regions: a
    /// body-less `equeue.launch`/`affine.for` decodes to
    /// [`crate::SimError::Layout`].
    DropRegions {
        /// Which live op with at least one region.
        nth: usize,
    },
}

/// Applies each fault in order, returning how many landed on a real target.
///
/// Faults are independent: each re-scans the (already perturbed) module, so
/// a matrix can stack several perturbations in one call.
pub fn apply_faults(module: &mut Module, faults: &[Fault]) -> usize {
    faults.iter().filter(|f| apply_fault(module, f)).count()
}

fn nth_live_op(module: &Module, nth: usize, pred: impl Fn(&Module, OpId) -> bool) -> Option<OpId> {
    module.live_ops().filter(|&id| pred(module, id)).nth(nth)
}

fn apply_fault(module: &mut Module, fault: &Fault) -> bool {
    match fault {
        Fault::RenameOp { nth, to } => {
            let Some(id) = nth_live_op(module, *nth, |_, _| true) else {
                return false;
            };
            module.op_mut(id).name = to.into();
            true
        }
        Fault::DropOperand { nth } => {
            let Some(id) = nth_live_op(module, *nth, |m, id| !m.op(id).operands.is_empty()) else {
                return false;
            };
            module.op_mut(id).operands.pop();
            true
        }
        Fault::ZeroLoopStep { nth } => {
            let Some(id) = nth_live_op(module, *nth, |m, id| m.op(id).name == "affine.for") else {
                return false;
            };
            module.op_mut(id).attrs.set("step", Attr::Int(0));
            true
        }
        Fault::ExtOpCycles { nth, cycles } => {
            let Some(id) = nth_live_op(module, *nth, |m, id| m.op(id).name == "equeue.op") else {
                return false;
            };
            module.op_mut(id).attrs.set("cycles", Attr::Int(*cycles));
            true
        }
        Fault::CorruptShape { nth, dims } => {
            let Some(id) = nth_live_op(module, *nth, |m, id| m.op(id).name == "equeue.create_mem")
            else {
                return false;
            };
            module
                .op_mut(id)
                .attrs
                .set("shape", Attr::IntArray(dims.clone()));
            true
        }
        Fault::DropRegions { nth } => {
            let Some(id) = nth_live_op(module, *nth, |m, id| !m.op(id).regions.is_empty()) else {
                return false;
            };
            module.op_mut(id).regions.clear();
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_without_targets_are_noops() {
        let mut m = Module::new();
        let n = apply_faults(
            &mut m,
            &[
                Fault::RenameOp {
                    nth: 0,
                    to: "x.y".into(),
                },
                Fault::DropOperand { nth: 0 },
                Fault::ZeroLoopStep { nth: 0 },
                Fault::ExtOpCycles { nth: 0, cycles: 9 },
                Fault::CorruptShape {
                    nth: 0,
                    dims: vec![-1],
                },
                Fault::DropRegions { nth: 0 },
            ],
        );
        assert_eq!(n, 0);
    }
}
