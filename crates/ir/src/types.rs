//! The type system of the IR.
//!
//! Types follow MLIR's builtin type vocabulary (integers, floats, `index`,
//! `memref`, `tensor`) plus the EQueue dialect types that describe hardware
//! entities: processors, memories, DMA engines, component hierarchies,
//! connections, buffers, and event signals.
//!
//! Types are small, cheaply clonable values. Recursive positions (`memref`,
//! `tensor`, `buffer` element types) are boxed.

use std::fmt;

/// A type attached to every SSA [`Value`](crate::module::Module).
///
/// # Examples
///
/// ```
/// use equeue_ir::Type;
/// let t = Type::memref(vec![4, 4], Type::F32);
/// assert_eq!(t.to_string(), "memref<4x4xf32>");
/// assert!(t.is_shaped());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// 1-bit integer (boolean).
    I1,
    /// 8-bit signless integer.
    I8,
    /// 16-bit signless integer.
    I16,
    /// 32-bit signless integer.
    I32,
    /// 64-bit signless integer.
    I64,
    /// 32-bit IEEE-754 float.
    F32,
    /// 64-bit IEEE-754 float.
    F64,
    /// Platform-width index type used by loop bounds and subscripts.
    Index,
    /// The unit type for ops with no meaningful result.
    None,
    /// A ranked memory buffer at the Affine level: `memref<4x4xf32>`.
    MemRef {
        /// Dimension sizes, outermost first.
        shape: Vec<usize>,
        /// Element type.
        elem: Box<Type>,
    },
    /// A ranked immutable tensor at the Linalg level: `tensor<8x8xi32>`.
    Tensor {
        /// Dimension sizes, outermost first.
        shape: Vec<usize>,
        /// Element type.
        elem: Box<Type>,
    },
    /// An EQueue event dependency: `!equeue.signal`.
    ///
    /// Signals are produced by event operations (`launch`, `memcpy`,
    /// `control_*`) and consumed as dependencies.
    Signal,
    /// A processor component: `!equeue.proc`.
    Proc,
    /// A memory component: `!equeue.mem`.
    Mem,
    /// A DMA component (a processor specialised for data movement):
    /// `!equeue.dma`.
    Dma,
    /// A composite component grouping sub-components: `!equeue.comp`.
    Comp,
    /// A bandwidth-constrained connection: `!equeue.conn`.
    Conn,
    /// A buffer allocated inside a memory component:
    /// `!equeue.buffer<64xi32>`.
    Buffer {
        /// Number of elements per dimension.
        shape: Vec<usize>,
        /// Element type.
        elem: Box<Type>,
    },
    /// Wildcard used by generic ops such as `equeue.op`; matches anything.
    Any,
}

impl Type {
    /// Builds a `memref` type with the given shape and element type.
    ///
    /// # Examples
    ///
    /// ```
    /// # use equeue_ir::Type;
    /// assert_eq!(Type::memref(vec![2], Type::I32).to_string(), "memref<2xi32>");
    /// ```
    pub fn memref(shape: Vec<usize>, elem: Type) -> Type {
        Type::MemRef {
            shape,
            elem: Box::new(elem),
        }
    }

    /// Builds a `tensor` type with the given shape and element type.
    pub fn tensor(shape: Vec<usize>, elem: Type) -> Type {
        Type::Tensor {
            shape,
            elem: Box::new(elem),
        }
    }

    /// Builds an `!equeue.buffer` type with the given shape and element type.
    pub fn buffer(shape: Vec<usize>, elem: Type) -> Type {
        Type::Buffer {
            shape,
            elem: Box::new(elem),
        }
    }

    /// Returns `true` for integer types (including `i1` and `index`).
    pub fn is_integer(&self) -> bool {
        matches!(
            self,
            Type::I1 | Type::I8 | Type::I16 | Type::I32 | Type::I64 | Type::Index
        )
    }

    /// Returns `true` for floating-point types.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Returns `true` for shaped types (`memref`, `tensor`, `buffer`).
    pub fn is_shaped(&self) -> bool {
        matches!(
            self,
            Type::MemRef { .. } | Type::Tensor { .. } | Type::Buffer { .. }
        )
    }

    /// Returns `true` for EQueue hardware-entity types.
    pub fn is_component(&self) -> bool {
        matches!(self, Type::Proc | Type::Mem | Type::Dma | Type::Comp)
    }

    /// The shape of a shaped type, or `None` otherwise.
    pub fn shape(&self) -> Option<&[usize]> {
        match self {
            Type::MemRef { shape, .. }
            | Type::Tensor { shape, .. }
            | Type::Buffer { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// The element type of a shaped type, or `None` otherwise.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::MemRef { elem, .. } | Type::Tensor { elem, .. } | Type::Buffer { elem, .. } => {
                Some(elem)
            }
            _ => None,
        }
    }

    /// Total number of elements of a shaped type (product of dims), or
    /// `None` for unshaped types. A zero-dimensional shaped type has one
    /// element.
    pub fn num_elements(&self) -> Option<usize> {
        self.shape().map(|s| s.iter().product())
    }

    /// Bit width of scalar types; `None` for aggregates and markers.
    ///
    /// `index` is modelled as 64 bits wide.
    pub fn bit_width(&self) -> Option<usize> {
        match self {
            Type::I1 => Some(1),
            Type::I8 => Some(8),
            Type::I16 => Some(16),
            Type::I32 | Type::F32 => Some(32),
            Type::I64 | Type::F64 | Type::Index => Some(64),
            _ => None,
        }
    }

    /// Size in bytes of one element of this type (scalars) or of the element
    /// type (shaped types), rounded up to whole bytes.
    pub fn elem_byte_width(&self) -> Option<usize> {
        let scalar = match self {
            t if t.is_shaped() => t.elem()?,
            t => t,
        };
        scalar.bit_width().map(|b| b.div_ceil(8))
    }

    /// Whether `self` is compatible with `other` for operand/result checking:
    /// equal, or either side is [`Type::Any`].
    pub fn matches(&self, other: &Type) -> bool {
        self == other || matches!(self, Type::Any) || matches!(other, Type::Any)
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn shaped(
            f: &mut fmt::Formatter<'_>,
            kind: &str,
            shape: &[usize],
            elem: &Type,
        ) -> fmt::Result {
            write!(f, "{kind}<")?;
            for d in shape {
                write!(f, "{d}x")?;
            }
            write!(f, "{elem}>")
        }
        match self {
            Type::I1 => write!(f, "i1"),
            Type::I8 => write!(f, "i8"),
            Type::I16 => write!(f, "i16"),
            Type::I32 => write!(f, "i32"),
            Type::I64 => write!(f, "i64"),
            Type::F32 => write!(f, "f32"),
            Type::F64 => write!(f, "f64"),
            Type::Index => write!(f, "index"),
            Type::None => write!(f, "none"),
            Type::MemRef { shape, elem } => shaped(f, "memref", shape, elem),
            Type::Tensor { shape, elem } => shaped(f, "tensor", shape, elem),
            Type::Signal => write!(f, "!equeue.signal"),
            Type::Proc => write!(f, "!equeue.proc"),
            Type::Mem => write!(f, "!equeue.mem"),
            Type::Dma => write!(f, "!equeue.dma"),
            Type::Comp => write!(f, "!equeue.comp"),
            Type::Conn => write!(f, "!equeue.conn"),
            Type::Buffer { shape, elem } => shaped(f, "!equeue.buffer", shape, elem),
            Type::Any => write!(f, "!equeue.any"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_display() {
        assert_eq!(Type::I32.to_string(), "i32");
        assert_eq!(Type::F64.to_string(), "f64");
        assert_eq!(Type::Index.to_string(), "index");
        assert_eq!(Type::Signal.to_string(), "!equeue.signal");
    }

    #[test]
    fn shaped_display() {
        assert_eq!(
            Type::memref(vec![4, 4], Type::F32).to_string(),
            "memref<4x4xf32>"
        );
        assert_eq!(Type::tensor(vec![], Type::I64).to_string(), "tensor<i64>");
        assert_eq!(
            Type::buffer(vec![64], Type::I32).to_string(),
            "!equeue.buffer<64xi32>"
        );
    }

    #[test]
    fn shape_accessors() {
        let t = Type::buffer(vec![8, 2], Type::I16);
        assert_eq!(t.shape(), Some(&[8usize, 2][..]));
        assert_eq!(t.elem(), Some(&Type::I16));
        assert_eq!(t.num_elements(), Some(16));
        assert_eq!(t.elem_byte_width(), Some(2));
        assert!(t.is_shaped());
        assert!(!t.is_component());
    }

    #[test]
    fn bit_widths() {
        assert_eq!(Type::I1.bit_width(), Some(1));
        assert_eq!(Type::I1.elem_byte_width(), Some(1));
        assert_eq!(Type::I64.bit_width(), Some(64));
        assert_eq!(Type::Proc.bit_width(), None);
    }

    #[test]
    fn any_matches_everything() {
        assert!(Type::Any.matches(&Type::I32));
        assert!(Type::I32.matches(&Type::Any));
        assert!(Type::I32.matches(&Type::I32));
        assert!(!Type::I32.matches(&Type::I64));
    }

    #[test]
    fn component_predicate() {
        for t in [Type::Proc, Type::Mem, Type::Dma, Type::Comp] {
            assert!(t.is_component());
        }
        assert!(!Type::Conn.is_component());
        assert!(!Type::Signal.is_component());
    }
}
