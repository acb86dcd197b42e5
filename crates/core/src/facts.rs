//! Prepass facts — a read-only, analysis-friendly view of the layout
//! prepass.
//!
//! The same prepass that makes execution fast ([`crate::CompiledModule`])
//! also decides, before any cycle runs, which `affine.for` bodies fuse and
//! why the rest decline. [`analyze_facts`] packages those verdicts into
//! plain public data ([`PrepassFacts`]) so the static-analysis crate
//! (`equeue-analysis`) and its `simcheck` binary read the engine's own
//! decision instead of re-deriving it. It builds the plan **leniently**:
//! it accepts IR that [`crate::CompiledModule::compile`] rejects, so the
//! analyzer can diagnose fuzzer-malformed modules.

use crate::fused::FuseDecline;
use crate::library::SimLibrary;
use crate::plan::{OpCode, Plan};
use equeue_ir::{BlockId, Module, OpId};

/// Whether (and how) an `affine.for` body compiled to a fused trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuseVerdict {
    /// Compiled to a straight-line trace of `insts` instructions, and
    /// every condition of the fused backend known before the run holds.
    /// The runtime preflight still guards live machine state, and an entry
    /// contended by another pending event takes the interpreter for that
    /// step.
    Fused {
        /// Trace length in instructions.
        insts: usize,
    },
    /// `Plan::build` declined the loop, with the precise reason.
    Declined(FuseDecline),
    /// The loop never enters (`lower >= upper`); no trace was attempted.
    ZeroTrip,
}

/// One `affine.for` op: static bounds plus the fusion verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopFact {
    /// The `affine.for` op.
    pub op: OpId,
    /// The body block.
    pub body: BlockId,
    /// Inclusive lower bound.
    pub lower: i64,
    /// Exclusive upper bound.
    pub upper: i64,
    /// Step.
    pub step: i64,
    /// The fusion verdict.
    pub verdict: FuseVerdict,
}

impl LoopFact {
    /// Static trip count: `0` for never-entered loops, `None` when the
    /// step is non-positive (a runtime error if executed).
    pub fn trip_count(&self) -> Option<u64> {
        if self.lower >= self.upper {
            return Some(0);
        }
        if self.step <= 0 {
            return None;
        }
        let span = (self.upper - self.lower) as u64;
        let step = self.step as u64;
        Some(span.div_ceil(step))
    }
}

/// Everything the layout prepass statically decides about a module's
/// loops, in op order (deterministic across runs and thread counts — the
/// prepass is a pure function of the module and library).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PrepassFacts {
    /// `affine.for` loops with fusion verdicts.
    pub loops: Vec<LoopFact>,
}

/// Builds [`PrepassFacts`] by running the layout prepass leniently:
/// malformed ops only ever decline fusion, so the analyzer can report on
/// IR that [`crate::CompiledModule::compile`] rejects. Never panics.
pub fn analyze_facts(module: &Module, library: &SimLibrary) -> PrepassFacts {
    let plan = Plan::build(module, library);
    let mut facts = PrepassFacts::default();
    for op in module.live_ops() {
        let Some(&OpCode::For { bounds, body, .. }) =
            plan.ops.get(op.index()).map(|info| &info.code)
        else {
            continue;
        };
        let (lower, upper, step) = plan.for_bounds(bounds);
        let verdict = if lower >= upper {
            FuseVerdict::ZeroTrip
        } else {
            match plan.fusion.get(body.index()) {
                Some(Some(Ok(f))) => FuseVerdict::Fused {
                    insts: f.inst_count(),
                },
                Some(Some(Err(d))) => FuseVerdict::Declined(d.clone()),
                // A body block outside the block table (malformed IR past
                // the fuzzer's reach): treat as malformed.
                _ => FuseVerdict::Declined(FuseDecline::Malformed),
            }
        };
        facts.loops.push(LoopFact {
            op,
            body,
            lower,
            upper,
            step,
            verdict,
        });
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_dialect::{kinds, AffineBuilder, ArithBuilder, EqueueBuilder};
    use equeue_ir::{OpBuilder, Type};

    fn loop_module(n: i64) -> Module {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[64], 32, 4);
        let buf = b.alloc(mem, &[64], Type::I32);
        let start = b.control_start();
        let l = b.launch(start, pe, &[buf], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let (_, bi, i) = ib.affine_for(0, n, 1);
            {
                let mut kb = OpBuilder::at_end(ib.module_mut(), bi);
                let v = kb.affine_load(l.body_args[0], vec![i]);
                let w = kb.addi(v, v);
                kb.affine_store(w, l.body_args[0], vec![i]);
                kb.affine_yield();
            }
            let mut ib = OpBuilder::at_end(&mut m, l.body);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        m
    }

    #[test]
    fn facts_report_fused_loop_and_components() {
        let facts = analyze_facts(&loop_module(8), &SimLibrary::standard());
        assert_eq!(facts.loops.len(), 1);
        assert_eq!(facts.loops[0].trip_count(), Some(8));
        assert!(matches!(
            facts.loops[0].verdict,
            FuseVerdict::Fused { insts } if insts >= 4
        ));
    }

    #[test]
    fn zero_trip_loop_reports_zero_trip() {
        let facts = analyze_facts(&loop_module(0), &SimLibrary::standard());
        assert_eq!(facts.loops.len(), 1);
        assert_eq!(facts.loops[0].verdict, FuseVerdict::ZeroTrip);
        assert_eq!(facts.loops[0].trip_count(), Some(0));
    }

    /// A launch whose body is `for i { for j { v[i][j] = v[i][j] } }`, with
    /// a constant before the inner loop when `imperfect`.
    fn nest_module(imperfect: bool) -> Module {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::ARM_R5);
        let mem = b.create_mem(kinds::SRAM, &[64], 32, 4);
        let buf = b.alloc(mem, &[8, 8], Type::I32);
        let start = b.control_start();
        let l = b.launch(start, pe, &[buf], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let (_, bi, i) = ib.affine_for(0, 8, 1);
            let mut ib2 = OpBuilder::at_end(ib.module_mut(), bi);
            if imperfect {
                ib2.const_int(1, Type::I32);
            }
            let (_, bj, j) = ib2.affine_for(0, 8, 1);
            {
                let mut kb = OpBuilder::at_end(ib2.module_mut(), bj);
                let v = kb.affine_load(l.body_args[0], vec![i, j]);
                kb.affine_store(v, l.body_args[0], vec![i, j]);
                kb.affine_yield();
            }
            let mut ib2 = OpBuilder::at_end(&mut m, bi);
            ib2.affine_yield();
            let mut ib = OpBuilder::at_end(&mut m, l.body);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);
        m
    }

    #[test]
    fn perfect_nest_fuses_at_every_level() {
        let facts = analyze_facts(&nest_module(false), &SimLibrary::standard());
        assert_eq!(facts.loops.len(), 2);
        // Both levels report the innermost body's trace.
        for l in &facts.loops {
            assert_eq!(l.verdict, FuseVerdict::Fused { insts: 3 }, "{l:?}");
        }
    }

    #[test]
    fn imperfect_nest_fuses_only_its_inner_loop() {
        let facts = analyze_facts(&nest_module(true), &SimLibrary::standard());
        assert_eq!(facts.loops.len(), 2);
        // Loops are in op order: the outer one first.
        assert_eq!(
            facts.loops[0].verdict,
            FuseVerdict::Declined(FuseDecline::ImperfectNest)
        );
        assert_eq!(facts.loops[1].verdict, FuseVerdict::Fused { insts: 3 });
    }
}
