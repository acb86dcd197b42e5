//! Registration of every dialect op into an [`DialectRegistry`].

use crate::{affine, arith, equeue, linalg};
use equeue_ir::{DialectRegistry, OpTraits};

const PURE: OpTraits = OpTraits {
    is_terminator: false,
    is_pure: true,
};
const TERM: OpTraits = OpTraits {
    is_terminator: true,
    is_pure: false,
};
const PLAIN: OpTraits = OpTraits {
    is_terminator: false,
    is_pure: false,
};

/// Registers the arith, affine, linalg, and equeue dialects into `reg`.
pub fn register_into(reg: &mut DialectRegistry) {
    // arith ----------------------------------------------------------------
    reg.register_op("arith.constant", PURE, Some(arith::verify_constant));
    for name in [
        "arith.addi",
        "arith.subi",
        "arith.muli",
        "arith.divi",
        "arith.remi",
        "arith.addf",
        "arith.mulf",
    ] {
        reg.register_op(name, PURE, Some(arith::verify_binary));
    }
    reg.register_op("arith.cmpi", PURE, Some(arith::verify_cmpi));
    reg.register_op("arith.select", PURE, None);

    // affine / memref --------------------------------------------------------
    reg.register_op("memref.alloc", PLAIN, None);
    reg.register_op("memref.dealloc", PLAIN, None);
    reg.register_op("affine.for", PLAIN, Some(affine::verify_for));
    reg.register_op("affine.parallel", PLAIN, Some(affine::verify_parallel));
    reg.register_op("affine.load", PLAIN, Some(affine::verify_load));
    reg.register_op("affine.store", PLAIN, Some(affine::verify_store));
    reg.register_op("affine.yield", TERM, None);

    // linalg -----------------------------------------------------------------
    reg.register_op("linalg.conv2d", PLAIN, Some(linalg::verify_conv2d));
    reg.register_op("linalg.matmul", PLAIN, Some(linalg::verify_matmul));
    reg.register_op("linalg.fill", PLAIN, Some(linalg::verify_fill));

    // equeue structure --------------------------------------------------------
    reg.register_op(
        "equeue.create_proc",
        PLAIN,
        Some(equeue::verify_create_proc),
    );
    reg.register_op("equeue.create_mem", PLAIN, Some(equeue::verify_create_mem));
    reg.register_op("equeue.create_dma", PLAIN, None);
    reg.register_op("equeue.create_comp", PLAIN, Some(equeue::verify_comp));
    reg.register_op("equeue.add_comp", PLAIN, Some(equeue::verify_comp));
    reg.register_op("equeue.get_comp", PLAIN, Some(equeue::verify_get_comp));
    reg.register_op(
        "equeue.create_connection",
        PLAIN,
        Some(equeue::verify_create_connection),
    );

    // equeue data movement ------------------------------------------------------
    reg.register_op("equeue.alloc", PLAIN, Some(equeue::verify_alloc));
    reg.register_op("equeue.dealloc", PLAIN, None);
    reg.register_op("equeue.read", PLAIN, Some(equeue::verify_read));
    reg.register_op("equeue.write", PLAIN, Some(equeue::verify_write));

    // equeue control -----------------------------------------------------------
    reg.register_op("equeue.memcpy", PLAIN, Some(equeue::verify_memcpy));
    reg.register_op("equeue.launch", PLAIN, Some(equeue::verify_launch));
    reg.register_op("equeue.control_start", PLAIN, Some(equeue::verify_control));
    reg.register_op("equeue.control_and", PLAIN, Some(equeue::verify_control));
    reg.register_op("equeue.control_or", PLAIN, Some(equeue::verify_control));
    reg.register_op("equeue.await", PLAIN, Some(equeue::verify_await));
    reg.register_op("equeue.return", TERM, None);
    reg.register_op("equeue.op", PLAIN, Some(equeue::verify_ext_op));
}

/// Builds a registry with every dialect registered.
///
/// # Examples
///
/// ```
/// let reg = equeue_dialect::standard_registry();
/// assert!(reg.knows("equeue.launch"));
/// assert!(reg.traits("equeue.return").is_terminator);
/// ```
pub fn standard_registry() -> DialectRegistry {
    let mut reg = DialectRegistry::new();
    register_into(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_populated() {
        let reg = standard_registry();
        assert!(reg.len() > 25);
        for name in [
            "arith.constant",
            "affine.for",
            "linalg.conv2d",
            "equeue.create_proc",
            "equeue.launch",
            "equeue.read",
            "equeue.op",
        ] {
            assert!(reg.knows(name), "{name} missing");
        }
    }

    #[test]
    fn traits_are_sensible() {
        let reg = standard_registry();
        assert!(reg.traits("arith.addi").is_pure);
        assert!(reg.traits("equeue.return").is_terminator);
        assert!(reg.traits("affine.yield").is_terminator);
    }
}
