//! Extending the simulator library with a custom component — the worked
//! example of §IV-D: "To introduce a cache component … the user only needs
//! to override a method called getReadOrWriteCycles."
//!
//! Here we register a custom scratchpad-with-cache memory kind and show
//! how access locality changes simulated time without touching the engine.
//!
//! Run with: `cargo run --example custom_cache`

use equeue::prelude::*;
use equeue::sim::{MemSpec, MemoryBehavior};

/// A toy "streaming cache": even-indexed lines hit, odd ones miss — enough
/// to show arbitrary user-defined timing. Real users would wrap
/// `equeue::sim::CacheBehavior` (a set-associative LRU model) instead.
#[derive(Debug)]
struct ParityCache {
    hit: u64,
    miss: u64,
}

impl MemoryBehavior for ParityCache {
    fn access_cycles(
        &mut self,
        _kind: equeue::sim::AccessKind,
        addr: usize,
        elems: usize,
        _banks: u32,
    ) -> u64 {
        let mut total = 0;
        for a in addr..addr + elems.max(1) {
            total += if a % 2 == 0 { self.hit } else { self.miss };
        }
        total
    }

    fn model_name(&self) -> &str {
        "ParityCache"
    }
}

fn parity_cache_factory(spec: &MemSpec) -> Result<Box<dyn MemoryBehavior>, String> {
    let cycles = |name: &str, default: i64| {
        let v = spec.attrs.int(name).unwrap_or(default);
        u32::try_from(v)
            .map(u64::from)
            .map_err(|_| format!("ParityCache {name} must be in 0..=4294967295, got {v}"))
    };
    Ok(Box::new(ParityCache {
        hit: cycles("hit_cycles", 1)?,
        miss: cycles("miss_cycles", 20)?,
    }))
}

fn program(mem_kind: &str) -> Module {
    let mut m = Module::new();
    let blk = m.top_block();
    let mut b = OpBuilder::at_end(&mut m, blk);
    let pe = b.create_proc(kinds::ARM_R5);
    let mem = b
        .op("equeue.create_mem")
        .attr("kind", mem_kind)
        .attr("shape", vec![64i64])
        .attr("data_bits", 32i64)
        .attr("banks", 1i64)
        .attr("miss_cycles", 20i64)
        .result(Type::Mem)
        .finish_value();
    let buf = b.alloc(mem, &[8], Type::I32);
    let start = b.control_start();
    let l = b.launch(start, pe, &[buf], vec![]);
    {
        let mut ib = OpBuilder::at_end(b.module_mut(), l.body);
        // Eight single-element reads at addresses 0..8.
        for i in 0..8 {
            let idx = ib.const_index(i);
            ib.read_indexed(l.body_args[0], vec![idx], None);
        }
        ib.ret(vec![]);
    }
    let done = l.done;
    let mut b = OpBuilder::at_end(&mut m, blk);
    b.await_all(vec![done]);
    m
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Stock SRAM: 8 reads × 1 cycle.
    let sram = simulate(&program(kinds::SRAM))?;
    println!("SRAM            : {} cycles", sram.cycles);

    // 2. The built-in set-associative LRU cache (first touches miss).
    let builtin = simulate(&program(kinds::CACHE))?;
    println!(
        "built-in Cache  : {} cycles (cold misses dominate)",
        builtin.cycles
    );

    // 3. A fully custom component registered in the simulator library —
    //    no engine changes, exactly the extension story of §IV-D.
    let mut lib = SimLibrary::standard();
    lib.register_mem_factory("ParityCache", parity_cache_factory);
    let custom = simulate_with(&program("ParityCache"), &lib, &SimOptions::default())?;
    println!(
        "ParityCache     : {} cycles (4 hits + 4 misses)",
        custom.cycles
    );

    assert_eq!(sram.cycles, 8);
    assert_eq!(custom.cycles, 4 + 4 * 20);
    assert!(builtin.cycles > sram.cycles);
    Ok(())
}
