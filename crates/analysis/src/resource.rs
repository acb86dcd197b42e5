//! Static resource estimation: upper bounds on live tensor bytes and
//! spawned events, cross-checked against [`equeue_core::RunLimits`].
//!
//! The bounds are sound over-approximations of the runtime counters
//! ([`equeue_core::SimReport::peak_live_tensor_bytes`] and
//! [`equeue_core::SimReport::events_spawned`]):
//!
//! * every allocation site (`equeue.alloc` / `memref.alloc`) contributes
//!   its byte size times the product of enclosing loop trip counts
//!   (deallocations are ignored — peak ≤ total allocated);
//! * every event site (`equeue.launch` / `equeue.memcpy`) contributes its
//!   execution multiplicity the same way.
//!
//! A site whose multiplicity is not statically derivable (unknown loop
//! bounds, non-loop region parents) makes the corresponding bound `None`
//! rather than silently wrong. When a derived bound exceeds a `RunLimits`
//! budget the pass warns: the scenario *may* trip that limit at runtime.

use equeue_ir::OpId;

use crate::{AnalysisCtx, AnalysisReport, Diagnostic, Severity};

/// Static upper bounds; `None` = not derivable for this module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceEstimate {
    /// Upper bound on simultaneously-live tensor bytes.
    pub live_tensor_bytes_bound: Option<u64>,
    /// Upper bound on spawned events (launches + memcpys).
    pub events_bound: Option<u64>,
}

/// Execution multiplicity of `op`: the product of the trip counts of every
/// enclosing `affine.for`/`affine.parallel` across the whole launch-nest
/// chain. `None` when any enclosing construct has no static trip count.
fn multiplicity(ctx: &AnalysisCtx<'_>, op: OpId) -> Option<u64> {
    let mut acc: u64 = 1;
    let mut cur = op;
    for _ in 0..crate::MAX_DEPTH {
        let data = ctx.op_checked(cur)?;
        let block = data.parent_block?;
        if block.index() >= ctx.module.num_blocks() {
            return None;
        }
        let region = ctx.module.block(block).parent_region;
        if region.index() >= ctx.module.num_regions() {
            return None;
        }
        let Some(parent) = ctx.module.region(region).parent_op else {
            return Some(acc); // reached the top region
        };
        let pdata = ctx.op_checked(parent)?;
        match pdata.name.as_str() {
            "affine.for" => {
                let lf = ctx.loop_fact_by_body(block)?;
                acc = acc.checked_mul(lf.trip_count()?)?;
            }
            "affine.parallel" => {
                let lowers = pdata.attrs.int_array("lowers")?.to_vec();
                let uppers = pdata.attrs.int_array("uppers")?.to_vec();
                let steps = pdata.attrs.int_array("steps")?.to_vec();
                if lowers.len() != uppers.len() || lowers.len() != steps.len() {
                    return None;
                }
                for ((&lo, &up), &st) in lowers.iter().zip(&uppers).zip(&steps) {
                    let trips = if lo >= up {
                        0
                    } else if st <= 0 {
                        return None;
                    } else {
                        ((up - lo) as u64).div_ceil(st as u64)
                    };
                    acc = acc.checked_mul(trips)?;
                }
            }
            "equeue.launch" => {
                // The body runs once per spawn of the launch event; keep
                // accumulating the launch op's own multiplicity.
            }
            _ => return None, // unmodelled region parent: no static bound
        }
        cur = parent;
    }
    None
}

/// Byte size of an allocation site from its result type.
fn alloc_bytes(ctx: &AnalysisCtx<'_>, op: OpId) -> Option<u64> {
    let data = ctx.op_checked(op)?;
    let result = *data.results.first()?;
    if result.index() >= ctx.module.num_values() {
        return None;
    }
    let ty = ctx.module.value_type(result);
    let elems = ty.num_elements()? as u64;
    let width = ty.elem_byte_width()? as u64;
    elems.checked_mul(width)
}

/// The [`Diagnostic::pass`] name of this pass's diagnostics.
const PASS: &str = "resource";

/// Runs the resource pass: appends its diagnostics to `out` and fills the
/// report section it owns. Never panics.
pub(crate) fn run(ctx: &AnalysisCtx<'_>, out: &mut AnalysisReport) {
    let mut tensor_bound: Option<u64> = Some(0);
    let mut event_bound: Option<u64> = Some(0);
    let mut opaque_allocs = 0usize;
    let mut opaque_events = 0usize;

    for op in ctx.module.live_ops() {
        let Some(data) = ctx.op_checked(op) else {
            continue;
        };
        match data.name.as_str() {
            "equeue.alloc" | "memref.alloc" => {
                let site = alloc_bytes(ctx, op)
                    .and_then(|b| multiplicity(ctx, op).and_then(|m| b.checked_mul(m)));
                match (tensor_bound, site) {
                    (Some(acc), Some(b)) => tensor_bound = acc.checked_add(b),
                    _ => {
                        tensor_bound = None;
                        opaque_allocs += 1;
                    }
                }
            }
            "equeue.launch" | "equeue.memcpy" => match (event_bound, multiplicity(ctx, op)) {
                (Some(acc), Some(m)) => event_bound = acc.checked_add(m),
                _ => {
                    event_bound = None;
                    opaque_events += 1;
                }
            },
            _ => {}
        }
    }

    let fmt_bound = |b: Option<u64>| b.map_or("unknown".to_string(), |v| v.to_string());
    out.diagnostics.push(Diagnostic {
        pass: PASS,
        severity: Severity::Info,
        code: "resource-summary",
        message: format!(
            "static bounds: live tensor bytes <= {}, events <= {}",
            fmt_bound(tensor_bound),
            fmt_bound(event_bound)
        ),
        location: None,
    });
    if opaque_allocs + opaque_events > 0 {
        out.diagnostics.push(Diagnostic {
            pass: PASS,
            severity: Severity::Warning,
            code: "unbounded-site",
            message: format!(
                "{opaque_allocs} allocation and {opaque_events} event sites have no static multiplicity"
            ),
            location: None,
        });
    }
    if let Some(b) = tensor_bound {
        if b > ctx.limits.max_live_tensor_bytes {
            out.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                code: "limit-risk",
                message: format!(
                    "tensor-byte bound {b} exceeds RunLimits.max_live_tensor_bytes {}",
                    ctx.limits.max_live_tensor_bytes
                ),
                location: None,
            });
        }
    }
    if let Some(b) = event_bound {
        if b > ctx.limits.max_events {
            out.diagnostics.push(Diagnostic {
                pass: PASS,
                severity: Severity::Warning,
                code: "limit-risk",
                message: format!(
                    "event bound {b} exceeds RunLimits.max_events {}",
                    ctx.limits.max_events
                ),
                location: None,
            });
        }
    }

    out.resources = ResourceEstimate {
        live_tensor_bytes_bound: tensor_bound,
        events_bound: event_bound,
    };
}
