//! Dead-value and unused-hardware detection.
//!
//! Flags two kinds of waste:
//!
//! * **dead values** — results of side-effect-free ops (`arith.*`,
//!   `affine.load`, `equeue.get_comp`) that nothing uses: computed, timed,
//!   then discarded;
//! * **unused hardware** — processors, memories, connections, and DMA
//!   engines that are created but never referenced. These still elaborate
//!   into the machine model, so they are almost certainly authoring
//!   mistakes (e.g. a swept parameter that disconnected a port).
//!
//! Both are warnings: the program still simulates, just wastefully.

use crate::{AnalysisCtx, AnalysisReport, Diagnostic, Severity};

/// Ops whose only observable effect is their result value.
fn is_pure(name: &str) -> bool {
    name.starts_with("arith.") || name == "affine.load" || name == "equeue.get_comp"
}

/// Hardware-entity creators, with the label used in diagnostics.
fn entity_kind(name: &str) -> Option<&'static str> {
    match name {
        "equeue.create_proc" => Some("processor"),
        "equeue.create_mem" => Some("memory"),
        "equeue.create_connection" => Some("connection"),
        "equeue.create_dma" => Some("dma engine"),
        _ => None,
    }
}

/// The [`Diagnostic::pass`] name of this pass's diagnostics.
const PASS: &str = "dead";

/// Runs the dead pass, appending its diagnostics to `out`. Never panics.
pub(crate) fn run(ctx: &AnalysisCtx<'_>, out: &mut AnalysisReport) {
    let mut dead = 0usize;
    let mut unused = 0usize;
    for op in ctx.module.live_ops() {
        let Some(data) = ctx.op_checked(op) else {
            continue;
        };
        if data.results.is_empty() {
            continue;
        }
        let all_unused = data.results.iter().all(|r| ctx.uses_of(*r).is_empty());
        if !all_unused {
            continue;
        }
        if let Some(kind) = entity_kind(&data.name) {
            unused += 1;
            out.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                code: "unused-port",
                message: format!("{kind} is created but never used"),
                location: Some(ctx.location(op)),
            });
        } else if is_pure(&data.name) {
            dead += 1;
            out.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                code: "dead-value",
                message: format!("result of {} is never used", data.name),
                location: Some(ctx.location(op)),
            });
        }
    }
    out.diagnostics.push(Diagnostic {
        pass: PASS,
        severity: Severity::Info,
        code: "dead-summary",
        message: format!("{dead} dead values, {unused} unused hardware entities"),
        location: None,
    });
}
