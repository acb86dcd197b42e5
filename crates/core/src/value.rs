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
//! [`TensorData::make_ints_mut`] / [`TensorData::make_floats_mut`] (thin
//! wrappers over [`Arc::make_mut`]), which copy only when the payload is
//! actually shared.

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
/// Cloning is an `Arc` bump; mutation goes through
/// [`TensorData::make_ints_mut`] / [`TensorData::make_floats_mut`], which
/// deep-copy only when the payload is shared.
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

    /// Mutable integer elements (copy-on-write: clones the backing vector
    /// only when shared), if this is an [`TensorData::Int`].
    pub fn make_ints_mut(&mut self) -> Option<&mut Vec<i64>> {
        match self {
            TensorData::Int(v) => Some(Arc::make_mut(v)),
            TensorData::Float(_) => None,
        }
    }

    /// Mutable float elements (copy-on-write), if this is a
    /// [`TensorData::Float`].
    pub fn make_floats_mut(&mut self) -> Option<&mut Vec<f64>> {
        match self {
            TensorData::Float(v) => Some(Arc::make_mut(v)),
            TensorData::Int(_) => None,
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

    /// Row-major flat index for `indices`.
    ///
    /// # Panics
    ///
    /// Panics if the subscript rank does not match the tensor's rank or an
    /// index is out of range.
    pub fn flatten_index(&self, indices: &[usize]) -> usize {
        match self.try_flatten_index(indices) {
            Ok(flat) => flat,
            Err(e) => panic!("{e}"),
        }
    }

    /// Row-major flat index for `indices`, or a diagnostic when the
    /// subscript rank does not match the tensor's rank or an index is out
    /// of range. The fallible twin of [`Tensor::flatten_index`], used on
    /// paths fed by untrusted IR.
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

    /// The buffer id, if this is a [`SimValue::Buffer`].
    pub fn as_buffer(&self) -> Option<BufId> {
        match self {
            SimValue::Buffer(b) => Some(*b),
            _ => None,
        }
    }

    /// The component id, if this is a [`SimValue::Component`].
    pub fn as_component(&self) -> Option<CompId> {
        match self {
            SimValue::Component(c) => Some(*c),
            _ => None,
        }
    }

    /// The signal id, if this is a [`SimValue::Signal`].
    pub fn as_signal(&self) -> Option<SignalId> {
        match self {
            SimValue::Signal(s) => Some(*s),
            _ => None,
        }
    }

    /// Size in bytes this value occupies when transferred, assuming
    /// `elem_bytes` per scalar element.
    pub fn transfer_bytes(&self, elem_bytes: usize) -> usize {
        match self {
            SimValue::Tensor(t) => t.len() * elem_bytes,
            SimValue::Int(_) | SimValue::Float(_) => elem_bytes,
            _ => 0,
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
        assert_eq!(t.flatten_index(&[1, 0]), 2);
        assert_eq!(t.flatten_index(&[0, 1]), 1);
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
        b.data.make_ints_mut().unwrap()[0] = 99;
        assert_eq!(a.data.as_ints().unwrap(), &[1, 2, 3, 4]);
        assert_eq!(b.data.as_ints().unwrap(), &[99, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn tensor_shape_mismatch_panics() {
        Tensor::from_int(vec![2, 2], vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tensor_index_out_of_range_panics() {
        let t = Tensor::zeros_int(vec![2, 2]);
        t.flatten_index(&[2, 0]);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(SimValue::Int(3).as_int(), Some(3));
        assert_eq!(SimValue::Int(3).as_float(), Some(3.0));
        assert_eq!(SimValue::Float(2.5).as_float(), Some(2.5));
        assert_eq!(SimValue::Buffer(BufId(1)).as_buffer(), Some(BufId(1)));
        assert_eq!(SimValue::Signal(SignalId(2)).as_signal(), Some(SignalId(2)));
        assert_eq!(
            SimValue::Component(CompId(4)).as_component(),
            Some(CompId(4))
        );
        assert_eq!(SimValue::Int(3).as_buffer(), None);
    }

    #[test]
    fn transfer_bytes() {
        assert_eq!(SimValue::Int(1).transfer_bytes(4), 4);
        let t = SimValue::Tensor(Tensor::zeros_int(vec![8]));
        assert_eq!(t.transfer_bytes(4), 32);
        assert_eq!(SimValue::Unit.transfer_bytes(4), 0);
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
