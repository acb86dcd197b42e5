//! The simulator library: extensible operation functions and component
//! factories (§IV-D).
//!
//! The engine consults a [`SimLibrary`] for
//!
//! * **external op implementations** — cycle counts for `equeue.op`
//!   signatures like `"mac4"` (§III-E);
//! * **processor profiles** — per-kind op timing (`ARMr5`, `MAC`,
//!   `AIEngine`, …), resolved into op costs when registered;
//! * **memory factories** — mapping `create_mem` kind strings to
//!   [`MemoryBehavior`](crate::machine::MemoryBehavior) instances, so users
//!   can introduce custom components (e.g. a cache) without touching the
//!   engine.

use crate::machine::{
    CacheBehavior, DramBehavior, HotCycles, MemoryBehavior, ProcProfile, RegisterBehavior,
    SramBehavior,
};
use crate::SimError;
use equeue_ir::AttrMap;
use std::collections::HashMap;

/// The largest cycle cost the library accepts: a stock memory model's
/// timing attribute, or an op cost of a registered processor profile.
/// Larger costs could overflow the clock.
pub const MAX_CYCLE_COST: u64 = u32::MAX as u64;

/// The largest `sets`, `ways` or `line_elems` of the stock cache model,
/// which allocates a tag stack per set.
pub const MAX_CACHE_GEOMETRY: usize = 1 << 16;

/// Description of a `create_mem` op handed to a memory factory.
#[derive(Debug, Clone)]
pub struct MemSpec {
    /// Kind string.
    pub kind: String,
    /// Capacity in elements.
    pub capacity_elems: usize,
    /// Bits per element.
    pub data_bits: u32,
    /// Banks.
    pub banks: u32,
    /// The op's full attribute dictionary, for custom parameters.
    pub attrs: AttrMap,
}

/// Factory for memory timing models. An attribute it cannot model is an
/// error message: compiling runs every `equeue.create_mem` through its
/// factory, so the op becomes a [`SimError::Layout`]. Execution and
/// snapshot resume build the memory with the same factory.
pub type MemFactory = fn(&MemSpec) -> Result<Box<dyn MemoryBehavior>, String>;

/// An external operation implementation (for `equeue.op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtOp {
    /// Cycles the op occupies its processor.
    pub cycles: u64,
}

/// The extensible simulator library.
///
/// # Examples
///
/// Registering a custom external op and looking it up:
///
/// ```
/// use equeue_core::SimLibrary;
/// let mut lib = SimLibrary::standard();
/// lib.register_ext_op("fft8", 4);
/// assert_eq!(lib.ext_op("fft8").unwrap().cycles, 4);
/// assert_eq!(lib.ext_op("mac4").unwrap().cycles, 1); // built in
/// ```
pub struct SimLibrary {
    ext_ops: HashMap<String, ExtOp>,
    /// The op costs of each registered processor kind.
    proc_costs: HashMap<String, HotCycles>,
    mem_factories: HashMap<String, MemFactory>,
    energy_pj: HashMap<String, f64>,
}

impl std::fmt::Debug for SimLibrary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimLibrary")
            .field("ext_ops", &self.ext_ops.len())
            .field("proc_costs", &self.proc_costs.keys().collect::<Vec<_>>())
            .field(
                "mem_factories",
                &self.mem_factories.keys().collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Integer attribute `name` of `spec` (`default` when absent) in
/// `lo..=hi`.
fn mem_attr(spec: &MemSpec, name: &str, default: i64, (lo, hi): (u64, u64)) -> Result<u64, String> {
    let v = spec.attrs.int(name).unwrap_or(default);
    let ok = u64::try_from(v).ok().filter(|u| (lo..=hi).contains(u));
    ok.ok_or_else(|| format!("create_mem {name} must be in {lo}..={hi}, got {v}"))
}

const CYCLES: (u64, u64) = (0, MAX_CYCLE_COST);
const GEOMETRY: (u64, u64) = (1, MAX_CACHE_GEOMETRY as u64);

fn sram_factory(spec: &MemSpec) -> Result<Box<dyn MemoryBehavior>, String> {
    let cycles_per_access = mem_attr(spec, "cycles_per_access", 1, CYCLES)?;
    Ok(Box::new(SramBehavior { cycles_per_access }))
}

fn register_factory(_spec: &MemSpec) -> Result<Box<dyn MemoryBehavior>, String> {
    Ok(Box::new(RegisterBehavior))
}

fn dram_factory(spec: &MemSpec) -> Result<Box<dyn MemoryBehavior>, String> {
    Ok(Box::new(DramBehavior {
        latency: mem_attr(spec, "latency", 10, CYCLES)?,
        cycles_per_access: mem_attr(spec, "cycles_per_access", 2, CYCLES)?,
    }))
}

fn cache_factory(spec: &MemSpec) -> Result<Box<dyn MemoryBehavior>, String> {
    let geometry =
        |name, default| Ok::<_, String>(mem_attr(spec, name, default, GEOMETRY)? as usize);
    Ok(Box::new(CacheBehavior::new(
        geometry("sets", 16)?,
        geometry("ways", 4)?,
        geometry("line_elems", 8)?,
        mem_attr(spec, "hit_cycles", 1, CYCLES)?,
        mem_attr(spec, "miss_cycles", 10, CYCLES)?,
    )))
}

impl SimLibrary {
    /// The standard library: SRAM/Register/DRAM/Cache memories, the AI
    /// Engine intrinsics `mul4`/`mac4` plus a scalar `mac`, and one op per
    /// cycle on every processor kind (those of [`equeue_dialect::kinds`]
    /// included) until a profile is registered for it.
    pub fn standard() -> Self {
        let mut lib = SimLibrary {
            ext_ops: HashMap::new(),
            proc_costs: HashMap::new(),
            mem_factories: HashMap::new(),
            energy_pj: HashMap::new(),
        };
        // First-order per-access energy (picojoules), ordered as the paper
        // describes: registers cheapest, SRAM costlier, DRAM costliest.
        for (kind, pj) in [
            ("Register", 0.05),
            ("SRAM", 1.0),
            ("Cache", 1.2),
            ("DRAM", 20.0),
            ("HostMem", 0.0),
        ] {
            lib.energy_pj.insert(kind.to_string(), pj);
        }
        // External ops (§III-E): mul4/mac4 compute 4 lanes × 2 ops in one
        // cycle on the AI Engine (§VII-C); a scalar mac is one cycle on a
        // MAC PE.
        lib.register_ext_op("mac", 1);
        lib.register_ext_op("mul4", 1);
        lib.register_ext_op("mac4", 1);

        lib.mem_factories.insert("SRAM".into(), sram_factory);
        lib.mem_factories
            .insert("Register".into(), register_factory);
        lib.mem_factories.insert("DRAM".into(), dram_factory);
        lib.mem_factories.insert("Cache".into(), cache_factory);
        lib
    }

    /// Registers (or overrides) an external op implementation.
    pub fn register_ext_op(&mut self, signature: &str, cycles: u64) {
        self.ext_ops.insert(signature.to_string(), ExtOp { cycles });
    }

    /// Looks up an external op by signature.
    pub fn ext_op(&self, signature: &str) -> Option<ExtOp> {
        self.ext_ops.get(signature).copied()
    }

    /// Registers (or overrides) the timing of processor kind `kind`. Its
    /// op costs are read from `profile` now; see [`ProcProfile::per_op`]
    /// for the names that count.
    /// Fails, registering nothing, when one exceeds [`MAX_CYCLE_COST`].
    pub fn register_proc_profile(
        &mut self,
        kind: &str,
        profile: ProcProfile,
    ) -> Result<(), SimError> {
        let costs = HotCycles::from_profile(&profile);
        if let Some(c) = costs.iter().find(|&c| c > MAX_CYCLE_COST) {
            let msg = format!("processor kind '{kind}' costs {c} > {MAX_CYCLE_COST} cycles");
            return Err(SimError::Unsupported(msg));
        }
        self.proc_costs.insert(kind.to_string(), costs);
        Ok(())
    }

    /// The op costs of processor kind `kind`. A kind nobody registered,
    /// the standard ones included, issues one op per cycle.
    pub(crate) fn proc_costs(&self, kind: &str) -> HotCycles {
        self.proc_costs
            .get(kind)
            .copied()
            .unwrap_or(HotCycles::uniform(1))
    }

    /// Registers (or overrides) a memory factory for `kind` — the §IV-D
    /// extension point.
    pub fn register_mem_factory(&mut self, kind: &str, factory: MemFactory) {
        self.mem_factories.insert(kind.to_string(), factory);
    }

    /// Builds the timing model for a memory spec; unknown kinds fall back
    /// to SRAM behaviour. Fails with the factory's message.
    pub fn make_memory(&self, spec: &MemSpec) -> Result<Box<dyn MemoryBehavior>, String> {
        let factory = self.mem_factories.get(&spec.kind).copied();
        factory.unwrap_or(sram_factory)(spec)
    }

    /// Per-access energy for a memory kind in picojoules (an `energy_pj`
    /// attribute on `create_mem` overrides this; unknown kinds cost SRAM
    /// energy).
    pub fn energy_per_access(&self, kind: &str) -> f64 {
        self.energy_pj.get(kind).copied().unwrap_or(1.0)
    }

    /// Registers (or overrides) the per-access energy for a memory kind.
    pub fn register_energy(&mut self, kind: &str, pj_per_access: f64) {
        self.energy_pj.insert(kind.to_string(), pj_per_access);
    }
}

impl Default for SimLibrary {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::BinOp;
    use crate::machine::AccessKind;

    fn spec(kind: &str) -> MemSpec {
        MemSpec {
            kind: kind.into(),
            capacity_elems: 1024,
            data_bits: 32,
            banks: 4,
            attrs: AttrMap::new(),
        }
    }

    #[test]
    fn standard_ops_present() {
        let lib = SimLibrary::standard();
        for sig in ["mac", "mul4", "mac4"] {
            assert_eq!(lib.ext_op(sig).unwrap().cycles, 1, "{sig}");
        }
        assert!(lib.ext_op("unknown").is_none());
    }

    #[test]
    fn profiles_make_events_free() {
        let mut lib = SimLibrary::standard();
        // Standard and unknown kinds issue one op per cycle.
        assert_eq!(lib.proc_costs("ARMr5"), HotCycles::uniform(1));
        assert_eq!(lib.proc_costs("Weird"), HotCycles::uniform(1));
        // A profile resolves to the eleven op costs the engine charges;
        // an entry for an event op, which no processor is charged for,
        // leaves no trace.
        let mut p = ProcProfile::uniform(2);
        p.per_op.insert("arith.muli".into(), 5);
        p.per_op.insert("affine.store".into(), 0);
        p.per_op.insert("equeue.launch".into(), 50);
        lib.register_proc_profile("MAC", p).unwrap();
        let mut want = HotCycles::uniform(2);
        want.arith[BinOp::Muli as usize] = 5;
        want.store = 0;
        assert_eq!(lib.proc_costs("MAC"), want);
    }

    #[test]
    fn factories_dispatch_by_kind() {
        let lib = SimLibrary::standard();
        let mut sram = lib.make_memory(&spec("SRAM")).unwrap();
        assert_eq!(sram.model_name(), "SRAM");
        assert_eq!(sram.access_cycles(AccessKind::Read, 0, 4, 4), 1);
        let mut reg = lib.make_memory(&spec("Register")).unwrap();
        assert_eq!(reg.access_cycles(AccessKind::Read, 0, 4, 4), 0);
        let dram = lib.make_memory(&spec("DRAM")).unwrap();
        assert_eq!(dram.model_name(), "DRAM");
        let cache = lib.make_memory(&spec("Cache")).unwrap();
        assert_eq!(cache.model_name(), "Cache");
        // Unknown kind falls back to SRAM behaviour.
        let fallback = lib.make_memory(&spec("Scratchpad")).unwrap();
        assert_eq!(fallback.model_name(), "SRAM");
    }

    #[test]
    fn custom_factory_and_ext_op() {
        fn slow(_: &MemSpec) -> Result<Box<dyn MemoryBehavior>, String> {
            Ok(Box::new(DramBehavior {
                latency: 99,
                cycles_per_access: 1,
            }))
        }
        let mut lib = SimLibrary::standard();
        lib.register_mem_factory("Slow", slow);
        let mut m = lib.make_memory(&spec("Slow")).unwrap();
        assert_eq!(m.access_cycles(AccessKind::Read, 0, 1, 1), 100);
        lib.register_ext_op("fir32", 16);
        assert_eq!(lib.ext_op("fir32").unwrap().cycles, 16);
    }

    #[test]
    fn stock_factories_bound_their_attributes() {
        let lib = SimLibrary::standard();
        let make = |kind: &str, attr: &str, v: i64| {
            let mut s = spec(kind);
            s.attrs.set(attr, v);
            lib.make_memory(&s).map(|m| m.model_name().to_string())
        };
        let max_cost = MAX_CYCLE_COST as i64;
        for (kind, attr) in [
            ("SRAM", "cycles_per_access"),
            ("DRAM", "latency"),
            ("DRAM", "cycles_per_access"),
            ("Cache", "hit_cycles"),
            ("Cache", "miss_cycles"),
        ] {
            assert_eq!(make(kind, attr, 0).unwrap(), kind);
            assert_eq!(make(kind, attr, max_cost).unwrap(), kind);
            for bad in [-1, max_cost + 1] {
                let msg = make(kind, attr, bad).unwrap_err();
                assert!(msg.contains(&format!("{attr} must be in 0..=")), "{msg}");
            }
        }
        let max_geometry = MAX_CACHE_GEOMETRY as i64;
        for attr in ["sets", "ways", "line_elems"] {
            assert_eq!(make("Cache", attr, max_geometry).unwrap(), "Cache");
            for bad in [0, max_geometry + 1] {
                let msg = make("Cache", attr, bad).unwrap_err();
                assert!(msg.contains(&format!("{attr} must be in 1..=")), "{msg}");
            }
        }
    }

    #[test]
    fn mem_attrs_feed_factories() {
        let lib = SimLibrary::standard();
        let mut s = spec("Cache");
        s.attrs.set("miss_cycles", 50i64);
        s.attrs.set("sets", 2i64);
        let mut c = lib.make_memory(&s).unwrap();
        // First access must miss with the configured penalty.
        assert_eq!(c.access_cycles(AccessKind::Read, 0, 1, 1), 50);
    }
}
