//! # equeue-analysis — static analysis over EQueue modules
//!
//! Four passes that inspect a module *before* any cycle is simulated and
//! emit structured, source-located diagnostics. The passes lean on the
//! engine's own layout prepass (via [`equeue_core::PrepassFacts`]) so their
//! claims are about exactly the program the engine would execute.
//!
//! [`analyze_module`] runs them in this order:
//!
//! 1. **deadlock** — a sound completion proof over the launch/connection
//!    graph. `deadlock_free = true` is a *guarantee* (the runtime can never
//!    return `SimError::Deadlock`); `false` means either a proven wait
//!    cycle (Error) or an unprovable case (Warning).
//! 2. **fusibility** — for every `affine.for`, either "fuses" (with trace
//!    length; each level of a fused perfect nest fuses) or the precise
//!    decline reason, exactly as the engine's plan decided it (including
//!    non-integer tensors and cache-backed memories).
//! 3. **dead** — dead values and never-used hardware entities
//!    (processors, memories, connections, DMA engines).
//! 4. **resource** — static upper bounds on live tensor bytes and spawned
//!    events, cross-checked against [`RunLimits`].
//!
//! Analysis is total: it accepts IR that the strict
//! [`equeue_core::CompiledModule::compile`] path rejects (the malformed-IR
//! fuzzer corpus is part of its test suite) and never panics — malformed
//! structure degrades to `Unknown`/`Warning`, not to a crash.
//!
//! ## Example
//!
//! ```
//! use equeue_analysis::analyze_module;
//! use equeue_core::{RunLimits, SimLibrary};
//!
//! let module = equeue_gen::scenarios::matmul_affine(4);
//! let report = analyze_module(&module, &SimLibrary::standard(), &RunLimits::default());
//! assert!(report.deadlock_free);
//! assert_eq!(report.fusibility.fusible_count(), 3); // one perfect nest, three levels
//! println!("{}", report.to_text());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Analysis must never panic, even on fuzzer-malformed IR.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::HashMap;
use std::fmt;

use equeue_core::{analyze_facts, CompiledModule, PrepassFacts, RunLimits, SimLibrary};
use equeue_ir::{BlockId, Module, OpId, ValueId};

mod dead;
mod deadlock;
mod fusibility;
mod render;
mod resource;

pub use fusibility::{FusibilityReport, LoopReport};
pub use resource::ResourceEstimate;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational finding (summaries, per-item reports).
    Info,
    /// Suspicious but not definitely wrong, or a claim analysis cannot
    /// prove either way.
    Warning,
    /// A definite problem: the program is malformed or provably misbehaves.
    Error,
}

impl Severity {
    /// Lower-case display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One structured, source-located diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Name of the pass that produced this diagnostic.
    pub pass: &'static str,
    /// Severity.
    pub severity: Severity,
    /// Stable machine-readable code (`"static-deadlock"`, `"dead-value"`).
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
    /// Op path within the module (`"equeue.launch@op5/affine.for@op9"`),
    /// when the finding anchors to an op.
    pub location: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}",
            self.severity.as_str(),
            self.code,
            self.message
        )?;
        if let Some(loc) = &self.location {
            write!(f, " (at {loc})")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Analysis context
// ---------------------------------------------------------------------------

/// Shared read-only state handed to every pass: the module, the engine's
/// prepass facts, run limits to cross-check against, and pre-computed
/// op-path / use maps.
pub struct AnalysisCtx<'m> {
    /// The module under analysis.
    pub module: &'m Module,
    /// The engine layout prepass's loop facts and fusion verdicts
    /// (lenient: malformed ops decline fusion, they are not errors).
    pub facts: PrepassFacts,
    /// Limits the resource pass cross-checks its bounds against.
    pub limits: RunLimits,
    op_paths: Vec<Option<String>>,
    uses: HashMap<ValueId, Vec<(OpId, usize)>>,
    loop_by_body: HashMap<usize, usize>,
}

/// Depth cap for all recursive walks: fuzzer-mutated IR may contain
/// region/capture chains the arena invariants no longer bound.
pub(crate) const MAX_DEPTH: usize = 128;

impl<'m> AnalysisCtx<'m> {
    /// Builds the context: runs the lenient prepass and pre-computes op
    /// paths and the use map.
    pub fn new(module: &'m Module, library: &SimLibrary, limits: RunLimits) -> Self {
        let facts = analyze_facts(module, library);
        let mut op_paths = vec![None; module.num_ops()];
        build_paths(
            module,
            module.top_block(),
            &mut String::new(),
            &mut op_paths,
            0,
        );
        let loop_by_body = facts
            .loops
            .iter()
            .enumerate()
            .map(|(i, l)| (l.body.index(), i))
            .collect();
        AnalysisCtx {
            module,
            facts,
            limits,
            op_paths,
            uses: module.collect_uses(),
            loop_by_body,
        }
    }

    /// The op's path within the module: its enclosing region-owning ops
    /// joined with `/`, each as `name@opN`. Falls back to `opN` for ops the
    /// path walk could not reach (detached or malformed).
    pub fn location(&self, op: OpId) -> String {
        match self.op_paths.get(op.index()).and_then(|p| p.clone()) {
            Some(p) => p,
            None => format!("{op}"),
        }
    }

    /// Uses of `value` as `(op, operand index)` pairs; empty if unused.
    pub fn uses_of(&self, value: ValueId) -> &[(OpId, usize)] {
        self.uses.get(&value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The loop-fact index for an `affine.for` *body* block.
    pub fn loop_fact_by_body(&self, body: BlockId) -> Option<&equeue_core::LoopFact> {
        self.loop_by_body
            .get(&body.index())
            .map(|&i| &self.facts.loops[i])
    }

    /// Bounds-checked op lookup (skips erased and out-of-range ids).
    pub fn op_checked(&self, op: OpId) -> Option<&equeue_ir::Operation> {
        if op.index() >= self.module.num_ops() {
            return None;
        }
        let data = self.module.op(op);
        (!data.erased).then_some(data)
    }
}

/// Depth-first path construction over the region tree. Uses an explicit
/// depth cap instead of trusting arena invariants (fuzzer-mutated modules).
fn build_paths(
    module: &Module,
    block: BlockId,
    prefix: &mut String,
    out: &mut Vec<Option<String>>,
    depth: usize,
) {
    if depth > MAX_DEPTH || block.index() >= module.num_blocks() {
        return;
    }
    for &op in &module.block(block).ops {
        if op.index() >= module.num_ops() {
            continue;
        }
        let data = module.op(op);
        if data.erased {
            continue;
        }
        let seg = format!("{}@{op}", data.name);
        let path = if prefix.is_empty() {
            seg.clone()
        } else {
            format!("{prefix}/{seg}")
        };
        if let Some(slot) = out.get_mut(op.index()) {
            if slot.is_none() {
                *slot = Some(path.clone());
            } else {
                // Already visited via another parent: the region tree is
                // not a tree (malformed IR) — stop descending here.
                continue;
            }
        }
        for &region in &data.regions {
            if region.index() >= module.num_regions() {
                continue;
            }
            for &b in &module.region(region).blocks {
                let saved = prefix.len();
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(&seg);
                build_paths(module, b, prefix, out, depth + 1);
                prefix.truncate(saved);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Report and entry points
// ---------------------------------------------------------------------------

/// Aggregate result of an analysis run: diagnostics plus the structured
/// artifacts individual passes fill in.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// All diagnostics, in pass order (deterministic).
    pub diagnostics: Vec<Diagnostic>,
    /// Per-loop fusibility verdicts (fusibility pass).
    pub fusibility: FusibilityReport,
    /// Static resource upper bounds (resource pass).
    pub resources: ResourceEstimate,
    /// `true` only when the deadlock pass *proved* every event completes.
    /// A scenario with this set can never return `SimError::Deadlock` at
    /// runtime.
    pub deadlock_free: bool,
}

impl AnalysisReport {
    /// Number of `Error`-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning`-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Deterministic plain-text rendering (golden-snapshot format).
    pub fn to_text(&self) -> String {
        render::to_text(self)
    }

    /// Deterministic JSON rendering (no external serializer; keys in fixed
    /// order).
    pub fn to_json(&self) -> String {
        render::to_json(self)
    }
}

/// Runs the four passes over a module **leniently**: malformed IR yields
/// typed diagnostics, never a panic or an error return. This is the entry
/// point `simcheck` and the fuzzer harness use.
pub fn analyze_module(module: &Module, library: &SimLibrary, limits: &RunLimits) -> AnalysisReport {
    let ctx = AnalysisCtx::new(module, library, *limits);
    let mut report = AnalysisReport::default();
    deadlock::run(&ctx, &mut report);
    fusibility::run(&ctx, &mut report);
    dead::run(&ctx, &mut report);
    resource::run(&ctx, &mut report);
    report
}

/// Runs the four passes over an already-compiled (strictly validated)
/// module, with default run limits.
pub fn analyze(compiled: &CompiledModule) -> AnalysisReport {
    analyze_module(compiled.module(), compiled.library(), &RunLimits::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_through_launch_captures() {
        let module = equeue_gen::scenarios::matmul_affine(4);
        let lib = SimLibrary::standard();
        let ctx = AnalysisCtx::new(&module, &lib, RunLimits::default());
        // Every affine.load buffer in the loop body must resolve to the
        // single create_mem through the launch capture chain.
        let mut loads = 0;
        module.walk(|op| {
            let data = ctx.module.op(op);
            if data.name == "affine.load" {
                loads += 1;
                let buf = data.operands[0];
                assert!(matches!(
                    equeue_dialect::buffer_origin(ctx.module, buf),
                    equeue_dialect::BufferOrigin::Mem(_)
                ));
            }
        });
        assert!(loads >= 3);
    }

    #[test]
    fn locations_are_paths() {
        let module = equeue_gen::scenarios::matmul_linalg(4);
        let lib = SimLibrary::standard();
        let ctx = AnalysisCtx::new(&module, &lib, RunLimits::default());
        let mut seen_nested = false;
        module.walk(|op| {
            if ctx.module.op(op).name == "linalg.matmul" {
                let loc = ctx.location(op);
                assert!(loc.starts_with("equeue.launch@"), "{loc}");
                assert!(loc.contains("/linalg.matmul@"), "{loc}");
                seen_nested = true;
            }
        });
        assert!(seen_nested);
    }
}
