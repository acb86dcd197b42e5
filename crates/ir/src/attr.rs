//! Operation attributes: compile-time constant metadata attached to ops.
//!
//! Attributes mirror MLIR's attribute dictionary: every operation carries a
//! sorted map from names to [`Attr`] values. Attributes encode things such as
//! component kinds (`"SRAM"`), shapes, bandwidths, and loop bounds.

use crate::inline::Name;
use crate::types::Type;
use std::fmt;

/// A single attribute value.
///
/// # Examples
///
/// ```
/// use equeue_ir::Attr;
/// let a = Attr::Int(42);
/// assert_eq!(a.as_int(), Some(42));
/// assert_eq!(a.to_string(), "42");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// A unit marker whose presence alone carries meaning.
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A string.
    Str(String),
    /// A homogeneous array of integers (shapes, bounds, steps).
    IntArray(Vec<i64>),
    /// An array of strings (e.g. sub-component names).
    StrArray(Vec<String>),
    /// A heterogeneous array of attributes.
    Array(Vec<Attr>),
    /// A type used as an attribute (e.g. element types).
    Ty(Type),
}

impl Attr {
    /// The integer payload, if this is an [`Attr::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The float payload for [`Attr::Float`] (or a lossless view of an int).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attr::Float(v) => Some(*v),
            Attr::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is an [`Attr::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Attr::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is an [`Attr::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attr::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer-array payload, if this is an [`Attr::IntArray`].
    pub fn as_int_array(&self) -> Option<&[i64]> {
        match self {
            Attr::IntArray(v) => Some(v),
            _ => None,
        }
    }

    /// The string-array payload, if this is an [`Attr::StrArray`].
    pub fn as_str_array(&self) -> Option<&[String]> {
        match self {
            Attr::StrArray(v) => Some(v),
            _ => None,
        }
    }

    /// The type payload, if this is an [`Attr::Ty`].
    pub fn as_type(&self) -> Option<&Type> {
        match self {
            Attr::Ty(t) => Some(t),
            _ => None,
        }
    }

    /// An integer array viewed as `usize` dims; `None` if any entry is
    /// negative or this is not an integer array.
    pub fn as_shape(&self) -> Option<Vec<usize>> {
        let ints = self.as_int_array()?;
        ints.iter()
            .map(|&v| usize::try_from(v).ok())
            .collect::<Option<Vec<_>>>()
    }
}

impl From<i64> for Attr {
    fn from(v: i64) -> Self {
        Attr::Int(v)
    }
}

impl From<usize> for Attr {
    fn from(v: usize) -> Self {
        Attr::Int(v as i64)
    }
}

impl From<bool> for Attr {
    fn from(v: bool) -> Self {
        Attr::Bool(v)
    }
}

impl From<f64> for Attr {
    fn from(v: f64) -> Self {
        Attr::Float(v)
    }
}

impl From<&str> for Attr {
    fn from(v: &str) -> Self {
        Attr::Str(v.to_string())
    }
}

impl From<String> for Attr {
    fn from(v: String) -> Self {
        Attr::Str(v)
    }
}

impl From<Vec<i64>> for Attr {
    fn from(v: Vec<i64>) -> Self {
        Attr::IntArray(v)
    }
}

impl From<Type> for Attr {
    fn from(v: Type) -> Self {
        Attr::Ty(v)
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attr::Unit => write!(f, "unit"),
            Attr::Bool(v) => write!(f, "{v}"),
            Attr::Int(v) => write!(f, "{v}"),
            Attr::Float(v) => {
                // Keep a trailing ".0" so floats round-trip through the parser.
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Attr::Str(s) => write!(f, "{:?}", s),
            Attr::IntArray(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Attr::StrArray(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x:?}")?;
                }
                write!(f, "]")
            }
            Attr::Array(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Attr::Ty(t) => write!(f, "{t}"),
        }
    }
}

/// A sorted attribute dictionary, keyed by attribute name.
///
/// Entries live in one `Vec` kept sorted by key bytes (the order of `str`,
/// and of the `BTreeMap<String, Attr>` this replaced), so iteration and
/// printing are deterministic, which the parser/printer round-trip tests
/// rely on. Lookups are binary searches. Keys are [`Name`]s, so an op with
/// a few short keys costs one allocation for its whole dictionary.
///
/// # Examples
///
/// ```
/// use equeue_ir::{Attr, AttrMap};
/// let mut attrs = AttrMap::new();
/// attrs.set("banks", 4i64);
/// assert_eq!(attrs.int("banks"), Some(4));
/// assert!(attrs.get("ports").is_none());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrMap {
    entries: Vec<(Name, Attr)>,
}

impl AttrMap {
    /// Creates an empty attribute dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Position of key `name` in `entries`, or where it would be inserted.
    fn find(&self, name: &[u8]) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(k, _)| k.as_bytes().cmp(name))
    }

    /// Inserts an attribute, replacing any previous value for `name`.
    pub fn set(&mut self, name: &str, value: impl Into<Attr>) -> &mut Self {
        self.insert(Name::from(name), value.into());
        self
    }

    fn insert(&mut self, name: Name, value: Attr) {
        match self.find(name.as_bytes()) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => {
                // Grow 1, 2, 4, … rather than `Vec`'s first step of 4:
                // most ops carry one or two attributes.
                let n = self.entries.len();
                if n == self.entries.capacity() {
                    self.entries.reserve_exact(n.max(1));
                }
                self.entries.insert(i, (name, value));
            }
        }
    }

    /// Removes an attribute, returning the previous value if present.
    pub fn remove(&mut self, name: &str) -> Option<Attr> {
        let i = self.find(name.as_bytes()).ok()?;
        Some(self.entries.remove(i).1)
    }

    /// Looks up an attribute by name.
    pub fn get(&self, name: &str) -> Option<&Attr> {
        let i = self.find(name.as_bytes()).ok()?;
        Some(&self.entries[i].1)
    }

    /// Whether an attribute with `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.find(name.as_bytes()).is_ok()
    }

    /// Shortcut: the integer payload of attribute `name`.
    pub fn int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Attr::as_int)
    }

    /// Shortcut: the string payload of attribute `name`.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Attr::as_str)
    }

    /// Shortcut: the float payload of attribute `name`.
    pub fn float(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Attr::as_float)
    }

    /// Shortcut: the integer-array payload of attribute `name`.
    pub fn int_array(&self, name: &str) -> Option<&[i64]> {
        self.get(name).and_then(Attr::as_int_array)
    }

    /// Shortcut: attribute `name` interpreted as a shape (`Vec<usize>`).
    pub fn shape(&self, name: &str) -> Option<Vec<usize>> {
        self.get(name).and_then(Attr::as_shape)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Attr)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }
}

impl FromIterator<(String, Attr)> for AttrMap {
    /// Later duplicates of a key replace earlier ones.
    fn from_iter<T: IntoIterator<Item = (String, Attr)>>(iter: T) -> Self {
        let mut m = AttrMap::new();
        m.extend(iter);
        m
    }
}

impl Extend<(String, Attr)> for AttrMap {
    /// Later duplicates of a key replace earlier ones.
    fn extend<T: IntoIterator<Item = (String, Attr)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.insert(Name::from(k), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Attr::from(3i64), Attr::Int(3));
        assert_eq!(Attr::from(true), Attr::Bool(true));
        assert_eq!(Attr::from("hi"), Attr::Str("hi".into()));
        assert_eq!(Attr::from(vec![1i64, 2]), Attr::IntArray(vec![1, 2]));
        assert_eq!(Attr::from(2.5f64), Attr::Float(2.5));
        assert_eq!(Attr::from(7usize), Attr::Int(7));
    }

    #[test]
    fn accessors() {
        assert_eq!(Attr::Int(5).as_int(), Some(5));
        assert_eq!(Attr::Int(5).as_float(), Some(5.0));
        assert_eq!(Attr::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Attr::Bool(false).as_bool(), Some(false));
        assert_eq!(Attr::Int(5).as_str(), None);
        assert_eq!(Attr::IntArray(vec![2, 3]).as_shape(), Some(vec![2, 3]));
        assert_eq!(Attr::IntArray(vec![-1]).as_shape(), None);
    }

    #[test]
    fn display_round_trip_shapes() {
        assert_eq!(Attr::Int(-7).to_string(), "-7");
        assert_eq!(Attr::Float(2.0).to_string(), "2.0");
        assert_eq!(Attr::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(Attr::IntArray(vec![1, 2, 3]).to_string(), "[1, 2, 3]");
        assert_eq!(
            Attr::StrArray(vec!["a".into(), "b".into()]).to_string(),
            "[\"a\", \"b\"]"
        );
    }

    #[test]
    fn attr_map_basics() {
        let mut m = AttrMap::new();
        assert!(m.is_empty());
        m.set("kind", "SRAM").set("banks", 4i64);
        assert_eq!(m.len(), 2);
        assert_eq!(m.str("kind"), Some("SRAM"));
        assert_eq!(m.int("banks"), Some(4));
        assert!(m.contains("kind"));
        m.remove("kind");
        assert!(!m.contains("kind"));
    }

    #[test]
    fn attr_map_iterates_sorted() {
        let mut m = AttrMap::new();
        m.set("z", 1i64);
        m.set("a", 2i64);
        let keys: Vec<_> = m.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["a", "z"]);
    }

    #[test]
    fn attr_map_orders_keys_like_a_btree_map() {
        use std::collections::BTreeMap;
        // Keys across the 22-byte inline boundary, inserted in reverse and
        // with duplicates: the last write wins and iteration is in byte
        // order, as with the `BTreeMap<String, _>` the map once was.
        let keys = [
            "zeta",
            "a_key_that_is_longer_than_22_bytes",
            "a_key_of_exactly_22_by",
            "B",
            "b",
            "é",
            "a",
            "zeta",
        ];
        let mut m = AttrMap::new();
        let mut model = BTreeMap::new();
        for (i, k) in keys.iter().enumerate() {
            m.set(k, i as i64);
            model.insert(k.to_string(), Attr::Int(i as i64));
        }
        let got: Vec<_> = m.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        let want: Vec<_> = model.clone().into_iter().collect();
        assert_eq!(got, want);
        assert_eq!(m.int("zeta"), Some(7));
        assert_eq!(m, model.into_iter().collect::<AttrMap>());
        assert_eq!(m.remove("b"), Some(Attr::Int(4)));
        assert_eq!(m.remove("b"), None);
        assert!(m.contains("B") && !m.contains("b"));
    }

    #[test]
    fn attr_map_collect_and_extend() {
        let mut m: AttrMap = vec![("x".to_string(), Attr::Int(1))].into_iter().collect();
        m.extend(vec![("y".to_string(), Attr::Int(2))]);
        assert_eq!(m.int("x"), Some(1));
        assert_eq!(m.int("y"), Some(2));
    }
}
