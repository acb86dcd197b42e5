//! Fusibility reporter: for every `affine.for`, either "fuses" with the
//! trace length, or a precise decline reason.
//!
//! The verdict is the engine's own: `Plan::build` decides fusion once,
//! from the loop body's structure (imperfect nests, cross-iteration
//! flow, unsupported ops) and from everything else known before the run
//! (non-integer tensors, cache-backed memories, unresolvable buffers).
//! This pass reads that [`FuseVerdict`] and reports it; it re-derives
//! nothing.

use equeue_core::FuseVerdict;
use equeue_ir::OpId;

use crate::{AnalysisCtx, AnalysisReport, Diagnostic, Severity};

/// One loop's report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopReport {
    /// The `affine.for` op.
    pub op: OpId,
    /// Op path of the loop.
    pub location: String,
    /// Static trip count (`None` = non-positive step, a runtime error).
    pub trip_count: Option<u64>,
    /// The engine's fusion verdict.
    pub verdict: FuseVerdict,
}

/// All loops, in prepass (op) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusibilityReport {
    /// Per-loop verdicts.
    pub loops: Vec<LoopReport>,
}

impl FusibilityReport {
    /// Number of loops that fuse.
    pub fn fusible_count(&self) -> usize {
        self.loops
            .iter()
            .filter(|l| matches!(l.verdict, FuseVerdict::Fused { .. }))
            .count()
    }
}

/// The [`Diagnostic::pass`] name of this pass's diagnostics.
const PASS: &str = "fusibility";

/// Runs the fusibility pass: appends its diagnostics to `out` and fills the
/// report section it owns. Never panics.
pub(crate) fn run(ctx: &AnalysisCtx<'_>, out: &mut AnalysisReport) {
    let mut report = FusibilityReport::default();
    for lf in &ctx.facts.loops {
        report.loops.push(LoopReport {
            op: lf.op,
            location: ctx.location(lf.op),
            trip_count: lf.trip_count(),
            verdict: lf.verdict.clone(),
        });
    }

    for l in &report.loops {
        let (code, message) = match &l.verdict {
            FuseVerdict::Fused { insts } => (
                "fuses",
                format!(
                    "fuses: {insts}-instruction trace, trip count {}",
                    l.trip_count
                        .map_or("unknown".to_string(), |t| t.to_string())
                ),
            ),
            FuseVerdict::ZeroTrip => ("zero-trip", "loop never enters".to_string()),
            FuseVerdict::Declined(reason) => ("no-fuse", reason.to_string()),
        };
        out.diagnostics.push(Diagnostic {
            pass: PASS,
            severity: Severity::Info,
            code,
            message,
            location: Some(l.location.clone()),
        });
    }
    out.diagnostics.push(Diagnostic {
        pass: PASS,
        severity: Severity::Info,
        code: "fusibility-summary",
        message: format!(
            "{} of {} affine.for bodies fuse",
            report.fusible_count(),
            report.loops.len()
        ),
        location: None,
    });
    out.fusibility = report;
}
