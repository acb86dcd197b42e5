//! `--parallel-to-equeue` (§V-9) and `--lower-extraction` (§V-10).
//!
//! `ParallelToEqueue` converts an `affine.parallel` into genuinely
//! concurrent `equeue.launch` events — one per iteration point — joined by
//! a `control_and` tree and an `await`, reproducing the paper's `par_for`
//! pattern (§VI-B-1).
//!
//! `LowerExtraction` unrolls vector-form component references
//! (`equeue.get_comp_vec`, which names several children at once) into
//! individual `equeue.get_comp` ops, so each unrolled launch can target its
//! own processing element.

use equeue_ir::{Attr, IrError, IrResult, Module, OpBuilder, OpId, Pass, Type, ValueId};
use std::collections::HashMap;

/// Converts `affine.parallel` loops into per-iteration `equeue.launch`
/// events on a round-robin assignment over the given processors.
#[derive(Debug, Clone)]
pub struct ParallelToEqueue {
    procs: Vec<ValueId>,
}

impl ParallelToEqueue {
    /// Distributes iterations over `procs` (values of `!equeue.proc` type).
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty.
    pub fn new(procs: Vec<ValueId>) -> Self {
        assert!(!procs.is_empty(), "need at least one processor");
        ParallelToEqueue { procs }
    }
}

impl Pass for ParallelToEqueue {
    fn name(&self) -> &str {
        "parallel-to-equeue"
    }

    fn run(&mut self, module: &mut Module) -> IrResult<()> {
        for par in module.find_all("affine.parallel") {
            self.lower_one(module, par)?;
        }
        Ok(())
    }
}

impl ParallelToEqueue {
    fn lower_one(&self, module: &mut Module, par: OpId) -> IrResult<()> {
        let attrs = module.op(par).attrs.clone();
        let lowers = attrs
            .int_array("lowers")
            .ok_or_else(|| IrError::pass("parallel-to-equeue", "missing lowers"))?
            .to_vec();
        let uppers = attrs.int_array("uppers").unwrap_or(&[]).to_vec();
        let steps = attrs.int_array("steps").unwrap_or(&[]).to_vec();
        if lowers.len() != uppers.len() || lowers.len() != steps.len() {
            return Err(IrError::pass("parallel-to-equeue", "malformed bounds"));
        }
        let region = module.op(par).regions[0];
        let body = module.region(region).blocks[0];
        let ivs = module.block(body).args.clone();

        // Enumerate the iteration space.
        let mut points: Vec<Vec<i64>> = vec![vec![]];
        for d in 0..lowers.len() {
            let mut next = vec![];
            for p in &points {
                let mut v = lowers[d];
                while v < uppers[d] {
                    let mut q = p.clone();
                    q.push(v);
                    next.push(q);
                    v += steps[d];
                }
            }
            points = next;
        }

        let (Some(parent), Some(at)) = (module.op(par).parent_block, module.op_index_in_block(par))
        else {
            unreachable!("the pass only rewrites attached ops")
        };
        let mut b = OpBuilder::at(module, parent, at);
        let start = b
            .op("equeue.control_start")
            .result(Type::Signal)
            .finish_value();

        let mut dones: Vec<ValueId> = vec![];
        for (i, point) in points.iter().enumerate() {
            let proc = self.procs[i % self.procs.len()];
            // Fresh launch body; ivs map to constants inside it.
            let region2 = module.new_region(None);
            let body2 = module.new_block(region2, vec![]);
            let mut value_map: HashMap<ValueId, ValueId> = HashMap::new();
            {
                let mut ib = OpBuilder::at_end(module, body2);
                for (iv, val) in ivs.iter().zip(point) {
                    let c = ib
                        .op("arith.constant")
                        .attr("value", *val)
                        .result(Type::Index)
                        .finish_value();
                    value_map.insert(*iv, c);
                }
            }
            // Clone body ops (minus the yield) into the launch body.
            let src_ops: Vec<OpId> = module.block(body).ops.to_vec();
            for op in src_ops {
                if module.op(op).erased || module.op(op).name == "affine.yield" {
                    continue;
                }
                let cloned = module.clone_op(op, &mut value_map);
                module.append_op(body2, cloned);
            }
            {
                let mut ib = OpBuilder::at_end(module, body2);
                ib.op("equeue.return").finish();
            }
            let mut lb = OpBuilder::at(module, parent, at + 1 + i);
            let launch = lb
                .op("equeue.launch")
                .operand(start)
                .operand(proc)
                .result(Type::Signal)
                .region(region2)
                .finish();
            dones.push(module.result(launch, 0));
        }

        // Join: control_and over all launches, then await (the par_for
        // barrier of §VI-B-1).
        let insert_after = at + 1 + dones.len();
        let mut jb = OpBuilder::at(module, parent, insert_after);
        let all = jb
            .op("equeue.control_and")
            .operands(dones.iter().copied())
            .result(Type::Signal)
            .finish_value();
        jb.op("equeue.await").operand(all).finish();

        module.erase_op(par);
        Ok(())
    }
}

/// Unrolls `equeue.get_comp_vec` (one op naming N children, producing N
/// component results) into N `equeue.get_comp` ops.
#[derive(Debug, Default, Clone, Copy)]
pub struct LowerExtraction;

impl Pass for LowerExtraction {
    fn name(&self) -> &str {
        "lower-extraction"
    }

    fn run(&mut self, module: &mut Module) -> IrResult<()> {
        for op in module.find_all("equeue.get_comp_vec") {
            let names: Vec<String> = match module.op(op).attrs.get("names") {
                Some(Attr::StrArray(v)) => v.clone(),
                _ => {
                    return Err(IrError::pass(
                        "lower-extraction",
                        "get_comp_vec needs a 'names' string array",
                    ))
                }
            };
            let comp = module.op(op).operands[0];
            let results = module.op(op).results.clone();
            if names.len() != results.len() {
                return Err(IrError::pass(
                    "lower-extraction",
                    "get_comp_vec result count must match names",
                ));
            }
            for (name, old) in names.iter().zip(results.iter()) {
                let ty = module.value_type(*old).clone();
                let mut b = OpBuilder::before(module, op);
                let new = b
                    .op("equeue.get_comp")
                    .attr("name", name.as_str())
                    .operand(comp)
                    .result(ty)
                    .finish();
                let nv = module.result(new, 0);
                module.replace_all_uses(*old, nv);
            }
            module.erase_op(op);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_core::simulate;
    use equeue_dialect::{kinds, standard_registry, AffineBuilder, EqueueBuilder};
    use equeue_ir::verify_module;

    #[test]
    fn parallel_becomes_concurrent_launches() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let procs: Vec<ValueId> = (0..4).map(|_| b.create_proc(kinds::MAC)).collect();
        let (_, body, _ivs) = b.affine_parallel(vec![0, 0], vec![2, 2], vec![1, 1]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), body);
            ib.ext_op("mac", vec![], vec![]);
            ib.affine_yield();
        }
        ParallelToEqueue::new(procs).run(&mut m).unwrap();
        assert!(m.find_first("affine.parallel").is_none());
        assert_eq!(m.find_all("equeue.launch").len(), 4);
        assert_eq!(m.find_all("equeue.control_and").len(), 1);
        verify_module(&m, &standard_registry()).unwrap();
        // 4 iterations on 4 PEs in parallel: 1 cycle.
        let report = simulate(&m).unwrap();
        assert_eq!(report.cycles, 1);
    }

    #[test]
    fn parallel_round_robin_serialises_on_fewer_procs() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let procs: Vec<ValueId> = (0..2).map(|_| b.create_proc(kinds::MAC)).collect();
        let (_, body, _) = b.affine_parallel(vec![0], vec![4], vec![1]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), body);
            ib.ext_op("mac", vec![], vec![]);
            ib.affine_yield();
        }
        ParallelToEqueue::new(procs).run(&mut m).unwrap();
        // 4 iterations over 2 PEs: 2 cycles.
        let report = simulate(&m).unwrap();
        assert_eq!(report.cycles, 2);
    }

    #[test]
    fn lower_extraction_unrolls() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let p0 = b.create_proc(kinds::MAC);
        let p1 = b.create_proc(kinds::MAC);
        let comp = b.create_comp(&["PE0", "PE1"], vec![p0, p1]);
        let vec_op = b
            .op("equeue.get_comp_vec")
            .attr("names", Attr::StrArray(vec!["PE0".into(), "PE1".into()]))
            .operand(comp)
            .results(vec![Type::Proc, Type::Proc])
            .finish();
        let r0 = m.result(vec_op, 0);
        let mut b = OpBuilder::at_end(&mut m, blk);
        let start = b.control_start();
        let l = b.launch(start, r0, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.ret(vec![]);
        }
        LowerExtraction.run(&mut m).unwrap();
        assert!(m.find_first("equeue.get_comp_vec").is_none());
        assert_eq!(m.find_all("equeue.get_comp").len(), 2);
        verify_module(&m, &standard_registry()).unwrap();
        simulate(&m).unwrap();
    }
}
