//! Runtime values carried through a simulation.
//!
//! The EQueue engine is a *functional* simulator: reads and writes move real
//! data through buffers so that tests can check computation results (e.g. a
//! convolution's output feature map) against references, in addition to
//! timing.
//!
//! Tensor payloads are **copy-on-write**: [`TensorData`] holds its elements
//! behind an [`Arc`], so cloning a [`Tensor`] (or a [`SimValue::Tensor`]) is
//! a reference-count bump, not a data copy. The engine clones values on
//! every read and every launch-env capture, which made deep tensor copies
//! the dominant cost of tensor-heavy simulations. Writers call
//! [`Arc::make_mut`] on the payload, which copies only when it is actually
//! shared.

use std::fmt;
use std::sync::Arc;

/// Identifies a hardware component instance in the elaborated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub u32);

/// Identifies a buffer allocated inside a memory component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub u32);

/// Identifies a connection instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnId(pub u32);

/// Identifies an event signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

/// Tensor payload: a shaped block of integers or floats, copy-on-write.
///
/// Cloning is an `Arc` bump; mutation goes through [`Arc::make_mut`], which
/// deep-copies only when the payload is shared.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorData {
    /// Integer elements.
    Int(Arc<Vec<i64>>),
    /// Float elements.
    Float(Arc<Vec<f64>>),
}

impl TensorData {
    /// An integer payload from explicit data.
    pub fn from_ints(v: Vec<i64>) -> Self {
        TensorData::Int(Arc::new(v))
    }

    /// A float payload from explicit data.
    pub fn from_floats(v: Vec<f64>) -> Self {
        TensorData::Float(Arc::new(v))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            TensorData::Int(v) => v.len(),
            TensorData::Float(v) => v.len(),
        }
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The integer elements, if this is an [`TensorData::Int`].
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            TensorData::Int(v) => Some(v),
            TensorData::Float(_) => None,
        }
    }
}

impl From<Vec<i64>> for TensorData {
    fn from(v: Vec<i64>) -> Self {
        TensorData::from_ints(v)
    }
}

impl From<Vec<f64>> for TensorData {
    fn from(v: Vec<f64>) -> Self {
        TensorData::from_floats(v)
    }
}

/// A shaped runtime tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    /// Dimension sizes, outermost first.
    pub shape: Vec<usize>,
    /// Flattened row-major elements.
    pub data: TensorData,
}

impl Tensor {
    /// An all-zero integer tensor of the given shape.
    pub fn zeros_int(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: TensorData::from_ints(vec![0; n]),
        }
    }

    /// An all-zero float tensor of the given shape.
    pub fn zeros_float(shape: Vec<usize>) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape,
            data: TensorData::from_floats(vec![0.0; n]),
        }
    }

    /// An integer tensor from explicit data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_int(shape: Vec<usize>, data: Vec<i64>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape/data mismatch"
        );
        Tensor {
            shape,
            data: TensorData::from_ints(data),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major flat index for `indices`, or a diagnostic when the
    /// subscript rank does not match the tensor's rank or an index is out
    /// of range.
    pub fn try_flatten_index(&self, indices: &[usize]) -> Result<usize, String> {
        if indices.len() != self.shape.len() {
            return Err(format!(
                "rank mismatch: {} subscripts for a rank-{} tensor",
                indices.len(),
                self.shape.len()
            ));
        }
        let mut flat = 0usize;
        for (i, (&idx, &dim)) in indices.iter().zip(&self.shape).enumerate() {
            if idx >= dim {
                return Err(format!("index {idx} out of range for dim {i} (size {dim})"));
            }
            flat = flat * dim + idx;
        }
        Ok(flat)
    }
}

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum SimValue {
    /// Absence of a value.
    Unit,
    /// Integer scalar (also used for `i1` and `index`).
    Int(i64),
    /// Float scalar.
    Float(f64),
    /// Shaped data.
    Tensor(Tensor),
    /// An event signal.
    Signal(SignalId),
    /// A hardware component (processor, memory, DMA, composite).
    Component(CompId),
    /// A buffer inside a memory.
    Buffer(BufId),
    /// A connection.
    Connection(ConnId),
    /// A not-yet-available extra result of a `launch`: resolves to the
    /// payload of `signal` at position `index` once the launch completes.
    Deferred {
        /// The launch's done signal.
        signal: SignalId,
        /// Payload position.
        index: usize,
    },
}

impl SimValue {
    /// The integer payload, if this is an [`SimValue::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            SimValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload (or a widened int).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            SimValue::Float(v) => Some(*v),
            SimValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }
}

impl fmt::Display for SimValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimValue::Unit => write!(f, "unit"),
            SimValue::Int(v) => write!(f, "{v}"),
            SimValue::Float(v) => write!(f, "{v}"),
            SimValue::Tensor(t) => write!(f, "tensor{:?}[{} elems]", t.shape, t.len()),
            SimValue::Signal(s) => write!(f, "signal#{}", s.0),
            SimValue::Component(c) => write!(f, "comp#{}", c.0),
            SimValue::Buffer(b) => write!(f, "buffer#{}", b.0),
            SimValue::Connection(c) => write!(f, "conn#{}", c.0),
            SimValue::Deferred { signal, index } => {
                write!(f, "deferred(signal#{}, {index})", signal.0)
            }
        }
    }
}

impl From<i64> for SimValue {
    fn from(v: i64) -> Self {
        SimValue::Int(v)
    }
}

impl From<f64> for SimValue {
    fn from(v: f64) -> Self {
        SimValue::Float(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_constructors() {
        let t = Tensor::zeros_int(vec![2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.data, TensorData::from_ints(vec![0; 6]));
        let t = Tensor::zeros_float(vec![4]);
        assert_eq!(t.len(), 4);
        let t = Tensor::from_int(vec![2, 2], vec![1, 2, 3, 4]);
        assert_eq!(t.try_flatten_index(&[1, 0]), Ok(2));
        assert_eq!(t.try_flatten_index(&[0, 1]), Ok(1));
        let err = |ix: &[usize]| t.try_flatten_index(ix).unwrap_err();
        assert!(err(&[2, 0]).contains("out of range"));
        assert!(err(&[0]).contains("rank mismatch"));
    }

    #[test]
    fn tensor_clone_is_copy_on_write() {
        let a = Tensor::from_int(vec![4], vec![1, 2, 3, 4]);
        let mut b = a.clone();
        // The clone shares storage until written.
        match (&a.data, &b.data) {
            (TensorData::Int(x), TensorData::Int(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
        if let TensorData::Int(v) = &mut b.data {
            Arc::make_mut(v)[0] = 99;
        }
        assert_eq!(a.data.as_ints().unwrap(), &[1, 2, 3, 4]);
        assert_eq!(b.data.as_ints().unwrap(), &[99, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn tensor_shape_mismatch_panics() {
        Tensor::from_int(vec![2, 2], vec![1, 2, 3]);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(SimValue::Int(3).as_int(), Some(3));
        assert_eq!(SimValue::Int(3).as_float(), Some(3.0));
        assert_eq!(SimValue::Float(2.5).as_float(), Some(2.5));
        assert_eq!(SimValue::Buffer(BufId(1)).as_int(), None);
    }

    #[test]
    fn display_nonempty() {
        for v in [
            SimValue::Unit,
            SimValue::Int(1),
            SimValue::Float(1.0),
            SimValue::Tensor(Tensor::zeros_int(vec![2])),
            SimValue::Signal(SignalId(0)),
        ] {
            assert!(!v.to_string().is_empty());
        }
    }
}
