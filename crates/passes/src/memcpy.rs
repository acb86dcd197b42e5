//! The memcpy family of passes (§V-4, §V-5, §V-7):
//!
//! * [`InsertMemcpy`] — add a DMA copy from one buffer to another before
//!   the first launch, rechaining that launch's dependency.
//! * [`MemcpyToLaunch`] — desugar an `equeue.memcpy` into an equivalent
//!   `equeue.launch` on the DMA whose body reads then writes.
//! * [`MergeMemcpyLaunch`] — fold a memcpy into the launch that depends on
//!   it, when the launch accesses the same buffer.

use equeue_dialect::{memcpy_view, read_view, write_view};
use equeue_ir::{IrError, IrResult, Module, OpBuilder, Pass, Type, ValueId};

/// Inserts `%done = equeue.memcpy(%start, src, dst, dma)` before the first
/// `equeue.launch` and makes that launch depend on `%done` (§V-4).
#[derive(Debug, Clone, Copy)]
pub struct InsertMemcpy {
    src: ValueId,
    dst: ValueId,
    dma: ValueId,
}

impl InsertMemcpy {
    /// Copies `src` into `dst` using `dma`.
    pub fn new(src: ValueId, dst: ValueId, dma: ValueId) -> Self {
        InsertMemcpy { src, dst, dma }
    }
}

impl Pass for InsertMemcpy {
    fn name(&self) -> &str {
        "mem-copy"
    }

    fn run(&mut self, module: &mut Module) -> IrResult<()> {
        let launch = module
            .find_first("equeue.launch")
            .ok_or_else(|| IrError::pass("mem-copy", "no equeue.launch to rechain"))?;
        let (src, dst, dma) = (self.src, self.dst, self.dma);
        let mut b = OpBuilder::before(module, launch);
        let start = b
            .op("equeue.control_start")
            .result(Type::Signal)
            .finish_value();
        let done = b
            .op("equeue.memcpy")
            .attr("segments", vec![1, 1, 1, 1, 0])
            .operands([start, src, dst, dma])
            .result(Type::Signal)
            .finish_value();
        module.set_operand(launch, 0, done);
        Ok(())
    }
}

/// Rewrites every `equeue.memcpy` into a `launch` on its DMA engine whose
/// body is `read(src); write(dst)` (§V-5). The desugared form serialises
/// the two legs, so it is a slightly conservative model of the same copy.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemcpyToLaunch;

impl Pass for MemcpyToLaunch {
    fn name(&self) -> &str {
        "memcpy-to-launch"
    }

    fn run(&mut self, module: &mut Module) -> IrResult<()> {
        for op in module.find_all("equeue.memcpy") {
            let view = memcpy_view(module, op).map_err(|e| IrError::pass(self.name(), e))?;
            let buf_ty = module.value_type(view.src).clone();
            let elem = buf_ty.elem().cloned().unwrap_or(Type::Any);
            let n = buf_ty.num_elements().unwrap_or(1);
            let data_ty = if n <= 1 {
                elem
            } else {
                match buf_ty.shape() {
                    Some(s) => Type::tensor(s.to_vec(), elem),
                    None => unreachable!("n > 1 implies a shaped buffer"),
                }
            };

            let region = module.new_region(None);
            let body = module.new_block(
                region,
                vec![buf_ty.clone(), module.value_type(view.dst).clone()],
            );
            let (arg_src, arg_dst) = {
                let args = &module.block(body).args;
                (args[0], args[1])
            };
            {
                let mut ib = OpBuilder::at_end(module, body);
                let data = ib
                    .op("equeue.read")
                    .attr("segments", vec![1, 0, 0])
                    .operand(arg_src)
                    .result(data_ty)
                    .finish_value();
                ib.op("equeue.write")
                    .attr("segments", vec![1, 1, 0, 0])
                    .operand(data)
                    .operand(arg_dst)
                    .finish();
                ib.op("equeue.return").finish();
            }
            let old_done = module.result(op, 0);
            let mut b = OpBuilder::before(module, op);
            let launch = b
                .op("equeue.launch")
                .operand(view.dep)
                .operand(view.dma)
                .operand(view.src)
                .operand(view.dst)
                .result(Type::Signal)
                .region(region)
                .finish();
            let new_done = module.result(launch, 0);
            module.replace_all_uses(old_done, new_done);
            module.erase_op(op);
        }
        Ok(())
    }
}

/// Folds a memcpy into the launch that depends on it when the launch body
/// accesses the copy's destination buffer (§V-7): the launch's dependency
/// reverts to the memcpy's, the body gains a leading whole-buffer
/// `read(src)`+`write(dst)`, and the memcpy disappears.
#[derive(Debug, Default, Clone, Copy)]
pub struct MergeMemcpyLaunch;

impl Pass for MergeMemcpyLaunch {
    fn name(&self) -> &str {
        "merge-memcpy-launch"
    }

    fn run(&mut self, module: &mut Module) -> IrResult<()> {
        for mc in module.find_all("equeue.memcpy") {
            let view = match memcpy_view(module, mc) {
                Ok(v) => v,
                Err(_) => continue,
            };
            let done = module.result(mc, 0);
            // Find a launch whose dep is this memcpy's done and whose body
            // touches dst (directly or via captures).
            let mut target = None;
            for l in module.find_all("equeue.launch") {
                if module.op(l).operands.first() != Some(&done) {
                    continue;
                }
                let lv = match equeue_dialect::launch_view(module, l) {
                    Ok(v) => v,
                    Err(_) => continue,
                };
                let mut touches = lv.captures.contains(&view.dst);
                let body_ops = module.region_ops(module.op(l).regions[0]);
                for &bo in &body_ops {
                    let name = &module.op(bo).name;
                    if name == "equeue.read" {
                        if let Ok(rv) = read_view(module, bo) {
                            touches |= rv.buffer == view.dst;
                        }
                    } else if name == "equeue.write" {
                        if let Ok(wv) = write_view(module, bo) {
                            touches |= wv.buffer == view.dst;
                        }
                    }
                }
                if touches {
                    target = Some(l);
                    break;
                }
            }
            let Some(launch) = target else { continue };

            // Rechain the launch to the memcpy's dependency.
            module.set_operand(launch, 0, view.dep);
            // Prepend read(src); write(dst) to the body.
            let body = module.region(module.op(launch).regions[0]).blocks[0];
            let buf_ty = module.value_type(view.src).clone();
            let elem = buf_ty.elem().cloned().unwrap_or(Type::Any);
            let n = buf_ty.num_elements().unwrap_or(1);
            let data_ty = if n <= 1 {
                elem
            } else {
                match buf_ty.shape() {
                    Some(s) => Type::tensor(s.to_vec(), elem),
                    None => unreachable!("n > 1 implies a shaped buffer"),
                }
            };
            {
                let mut ib = OpBuilder::at(module, body, 0);
                let data = ib
                    .op("equeue.read")
                    .attr("segments", vec![1, 0, 0])
                    .operand(view.src)
                    .result(data_ty)
                    .finish_value();
                ib.op("equeue.write")
                    .attr("segments", vec![1, 1, 0, 0])
                    .operand(data)
                    .operand(view.dst)
                    .finish();
            }
            // Any other user of the memcpy's done now uses the launch done.
            let launch_done = module.result(launch, 0);
            module.replace_all_uses(done, launch_done);
            // …except the launch's own dependency, restored above.
            module.set_operand(launch, 0, view.dep);
            module.erase_op(mc);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use equeue_core::simulate;
    use equeue_dialect::{kinds, standard_registry, EqueueBuilder};
    use equeue_ir::verify_module;

    fn base_module() -> (Module, ValueId, ValueId, ValueId, ValueId) {
        let mut m = Module::new();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let pe = b.create_proc(kinds::MAC);
        let sram = b.create_mem(kinds::SRAM, &[4096], 32, 4);
        let reg = b.create_mem(kinds::REGISTER, &[64], 32, 1);
        let dma = b.create_dma();
        let src = b.alloc(sram, &[16], Type::I32);
        let dst = b.alloc(reg, &[16], Type::I32);
        (m, pe, dma, src, dst)
    }

    #[test]
    fn insert_memcpy_rechains_launch() {
        let (mut m, pe, dma, src, dst) = base_module();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let start = b.control_start();
        let l = b.launch(start, pe, &[dst], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.read(l.body_args[0], None);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);

        InsertMemcpy::new(src, dst, dma).run(&mut m).unwrap();
        let mc = m.find_first("equeue.memcpy").unwrap();
        let launch = m.find_first("equeue.launch").unwrap();
        assert_eq!(m.op(launch).operands[0], m.result(mc, 0));
        verify_module(&m, &standard_registry()).unwrap();
        simulate(&m).unwrap();
    }

    #[test]
    fn memcpy_to_launch_desugars() {
        let (mut m, _pe, dma, src, dst) = base_module();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let start = b.control_start();
        let done = b.memcpy(start, src, dst, dma, None);
        b.await_all(vec![done]);

        MemcpyToLaunch.run(&mut m).unwrap();
        assert!(m.find_first("equeue.memcpy").is_none());
        let launch = m.find_first("equeue.launch").unwrap();
        let body_ops = m.region_ops(m.op(launch).regions[0]);
        let names: Vec<&str> = body_ops.iter().map(|&o| m.op(o).name.as_str()).collect();
        assert_eq!(names, vec!["equeue.read", "equeue.write", "equeue.return"]);
        verify_module(&m, &standard_registry()).unwrap();
        let report = simulate(&m).unwrap();
        // 16 elems from 4-bank SRAM = 4 read cycles, register write free.
        assert_eq!(report.cycles, 4);
    }

    #[test]
    fn merge_memcpy_into_launch() {
        let (mut m, pe, dma, src, dst) = base_module();
        let blk = m.top_block();
        let mut b = OpBuilder::at_end(&mut m, blk);
        let start = b.control_start();
        let cp_done = b.memcpy(start, src, dst, dma, None);
        let l = b.launch(cp_done, pe, &[dst], vec![]);
        {
            let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
            ib.read(l.body_args[0], None);
            ib.ret(vec![]);
        }
        let done = l.done;
        let mut b = OpBuilder::at_end(&mut m, blk);
        b.await_all(vec![done]);

        MergeMemcpyLaunch.run(&mut m).unwrap();
        assert!(m.find_first("equeue.memcpy").is_none());
        let launch = m.find_first("equeue.launch").unwrap();
        // Dep restored to the memcpy's original dependency (control_start).
        let dep = m.op(launch).operands[0];
        let cs = m.find_first("equeue.control_start").unwrap();
        assert_eq!(dep, m.result(cs, 0));
        // Body gained the copy.
        let body_ops = m.region_ops(m.op(launch).regions[0]);
        assert_eq!(m.op(body_ops[0]).name, "equeue.read");
        assert_eq!(m.op(body_ops[1]).name, "equeue.write");
        verify_module(&m, &standard_registry()).unwrap();
        simulate(&m).unwrap();
    }
}
