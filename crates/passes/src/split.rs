//! `--split-launch` (§V-6): split a launch block in two, threading values
//! defined in the head and used in the tail through launch results and
//! captures. The systolic lowering uses this to separate the read/compute
//! stage from the write stage.

use equeue_dialect::launch_view;
use equeue_ir::{IrError, IrResult, Module, OpBuilder, OpId, Pass, Type, ValueId};
use std::collections::HashMap;

/// Splits the `index`-th op boundary of a given launch body.
#[derive(Debug, Clone, Copy)]
pub struct SplitLaunch {
    launch: OpId,
    at: usize,
}

impl SplitLaunch {
    /// Splits `launch`'s body so ops `[at..]` move to a new dependent
    /// launch on the same processor.
    pub fn new(launch: OpId, at: usize) -> Self {
        SplitLaunch { launch, at }
    }
}

impl Pass for SplitLaunch {
    fn name(&self) -> &str {
        "split-launch"
    }

    fn run(&mut self, module: &mut Module) -> IrResult<()> {
        let launch = self.launch;
        if module.op(launch).name != "equeue.launch" {
            return Err(IrError::pass(self.name(), "target is not an equeue.launch"));
        }
        let (body, proc) = launch_view(module, launch)
            .map(|view| (view.body, view.proc))
            .map_err(|e| IrError::pass(self.name(), e))?;
        let body_ops: Vec<OpId> = module.block(body).ops.to_vec();
        if self.at == 0 || self.at >= body_ops.len() {
            return Err(IrError::pass(self.name(), "split point out of range"));
        }
        // Tail ops (excluding the original terminator, which stays with the
        // tail's new launch).
        let head_ops = &body_ops[..self.at];
        let tail_ops: Vec<OpId> = body_ops[self.at..].to_vec();

        // Values defined in the head and used in the tail must thread
        // through: they become extra results of launch 1 and captures of
        // launch 2.
        let head_results: Vec<ValueId> = head_ops
            .iter()
            .flat_map(|&o| module.op(o).results.clone())
            .collect();
        let mut threaded: Vec<ValueId> = vec![];
        for &t in &tail_ops {
            let mut nested = vec![t];
            nested.extend(
                module
                    .op(t)
                    .regions
                    .iter()
                    .flat_map(|&r| module.region_ops(r)),
            );
            for op in nested {
                for v in &module.op(op).operands {
                    if head_results.contains(v) && !threaded.contains(v) {
                        threaded.push(*v);
                    }
                }
            }
        }

        // Rebuild the head terminator: return old results + threaded values.
        let Some(&old_ret) = body_ops.last() else {
            unreachable!("launch bodies end with a terminator")
        };
        let is_ret = module.op(old_ret).name == "equeue.return";
        let old_ret_operands = if is_ret {
            module.op(old_ret).operands.to_vec()
        } else {
            vec![]
        };

        // Detach tail ops into a fresh region.
        let region2 = module.new_region(None);
        let arg_types: Vec<Type> = threaded
            .iter()
            .map(|&v| module.value_type(v).clone())
            .collect();
        let body2 = module.new_block(region2, arg_types);
        for &op in &tail_ops {
            module.detach_op(op);
            module.append_op(body2, op);
        }
        // Remap threaded values to block args inside the tail.
        let args2 = module.block(body2).args.clone();
        let remap: HashMap<ValueId, ValueId> = threaded
            .iter()
            .copied()
            .zip(args2.iter().copied())
            .collect();
        for op in module.region_ops(region2) {
            let operands = module.op(op).operands.clone();
            for (i, v) in operands.iter().enumerate() {
                if let Some(&nv) = remap.get(v) {
                    module.set_operand(op, i, nv);
                }
            }
        }

        // Head terminator: return threaded values.
        {
            let mut hb = OpBuilder::at_end(module, body);
            hb.op("equeue.return")
                .operands(threaded.iter().copied())
                .finish();
        }

        // Extend launch 1 with extra results for the threaded values.
        // Simplest faithful encoding: rebuild launch 1 with the same
        // operands/region plus new result types.
        let l1_data = module.op(launch).clone();
        let mut result_types: Vec<Type> = l1_data
            .results
            .iter()
            .map(|&r| module.value_type(r).clone())
            .collect();
        result_types.extend(threaded.iter().map(|&v| module.value_type(v).clone()));
        let region1 = l1_data.regions[0];
        // Detach region from old op so the new op can own it.
        let new_l1 = module.create_op(
            "equeue.launch",
            l1_data.operands.clone(),
            result_types,
            l1_data.attrs.clone(),
            vec![region1],
        );
        let (Some(at_idx), Some(parent)) = (
            module.op_index_in_block(launch),
            module.op(launch).parent_block,
        ) else {
            unreachable!("the pass only rewrites attached launches")
        };
        // Replace old results with the new op's.
        for (i, &old) in l1_data.results.iter().enumerate() {
            let new = module.result(new_l1, i);
            module.replace_all_uses(old, new);
        }
        module.detach_op(launch);
        module.op_mut(launch).regions.clear(); // region moved to new_l1
        module.op_mut(launch).erased = true;
        module.insert_op(parent, at_idx, new_l1);

        let done1 = module.result(new_l1, 0);
        let n_old = l1_data.results.len();
        let threaded_results: Vec<ValueId> = (0..threaded.len())
            .map(|i| module.result(new_l1, n_old + i))
            .collect();

        // Launch 2 on the same proc, dep = done1, captures = threaded vals.
        let old_ret_types: Vec<Type> = old_ret_operands
            .iter()
            .map(|v| module.value_type(*v).clone())
            .collect();
        let mut b = OpBuilder::after(module, new_l1);
        let mut result_types2 = vec![Type::Signal];
        result_types2.extend(old_ret_types);
        let mut spec = b
            .op("equeue.launch")
            .operand(done1)
            .operand(proc)
            .operands(threaded_results.iter().copied());
        for t in result_types2 {
            spec = spec.result(t);
        }
        let _launch2 = spec.region(region2).finish();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_core::simulate;
    use equeue_dialect::{kinds, standard_registry, ArithBuilder, EqueueBuilder};
    use equeue_ir::verify_module;

    #[test]
    fn split_threads_values() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let l = b.launch(start, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            let x = ib.const_int(5, Type::I32);
            let y = ib.const_int(2, Type::I32);
            let s = ib.addi(x, y); // head: computes s
            let t = ib.muli(s, s); // tail will use s and t
            let _u = ib.addi(t, s);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);

        // Split after the addi (3 ops into the body).
        SplitLaunch::new(l.op, 3).run(&mut m).unwrap();
        let launches = m.find_all("equeue.launch");
        assert_eq!(launches.len(), 2);
        // Launch 2 depends on launch 1's done.
        let l2 = launches[1];
        assert_eq!(m.op(l2).operands[0], m.result(launches[0], 0));
        // s is threaded: launch 1 has an extra result captured by launch 2.
        assert_eq!(m.op(launches[0]).results.len(), 2);
        assert_eq!(m.op(l2).operands.len(), 3); // dep, proc, capture
        verify_module(&m, &standard_registry()).unwrap();
        let report = simulate(&m).unwrap();
        // addi(1) in launch1; muli(1)+addi(1) in launch2 = 3 cycles.
        assert_eq!(report.cycles, 3);
    }

    #[test]
    fn split_rejects_bad_index() {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let start = b.control_start();
        let l = b.launch(start, pe, &[], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.ret(vec![]);
        }
        assert!(SplitLaunch::new(l.op, 0).run(&mut m).is_err());
        assert!(SplitLaunch::new(l.op, 99).run(&mut m).is_err());
    }
}
