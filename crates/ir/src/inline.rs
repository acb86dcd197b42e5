//! Small inline containers for the op, block and region records of a
//! [`Module`].
//!
//! A generated module holds hundreds of thousands of operations, and most
//! of them have a short name, a couple of short attribute keys and at most
//! four operands, results or regions; most blocks hold a few ops. Storing
//! each of those in its own heap block costs several allocations per op to
//! build and as many frees to drop. [`Name`] and [`IdVec`] keep the common
//! case inside the record and spill to the heap only past a fixed
//! capacity. Both dereference to
//! the plain `str` / slice they hold, so code that reads an op's name or
//! operand list is written exactly as it would be against `String` and
//! `Vec`.
//!
//! [`Module`]: crate::Module

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Longest text a [`Name`] stores without a heap allocation, in bytes.
const NAME_INLINE: usize = 22;

/// An op name or attribute key: immutable UTF-8 text.
///
/// Text of up to 22 bytes is stored inside the value; longer text is one
/// `Box<str>`. Either way a `Name` is 24 bytes, the size of a `String`.
/// It dereferences to `str`, and equality, ordering, hashing, `Display`
/// and `Debug` are exactly those of the `str` it holds, so sorting by
/// `Name` sorts by text.
///
/// # Examples
///
/// ```
/// use equeue_ir::Name;
/// let n = Name::from("equeue.launch");
/// assert_eq!(n, "equeue.launch");
/// assert!(n.starts_with("equeue."));
/// assert_eq!(format!("{n:?}"), "\"equeue.launch\"");
/// ```
#[derive(Clone)]
pub struct Name(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Inline { len: u8, bytes: [u8; NAME_INLINE] },
    Heap(Box<str>),
}

impl Name {
    /// The text as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Inline bytes are always copied from a `&str` prefix of full
            // length, so they are valid UTF-8 and the fallback is dead.
            NameRepr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..*len as usize]).unwrap_or_default()
            }
            NameRepr::Heap(s) => s,
        }
    }

    /// The text as bytes. Unlike [`Name::as_str`] this needs no UTF-8
    /// check, so comparisons go through it.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            NameRepr::Inline { len, bytes } => &bytes[..*len as usize],
            NameRepr::Heap(s) => s.as_bytes(),
        }
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        if s.len() <= NAME_INLINE {
            let mut bytes = [0; NAME_INLINE];
            bytes[..s.len()].copy_from_slice(s.as_bytes());
            Name(NameRepr::Inline {
                len: s.len() as u8,
                bytes,
            })
        } else {
            Name(NameRepr::Heap(s.into()))
        }
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name::from(s.as_str())
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        if s.len() <= NAME_INLINE {
            Name::from(s.as_str())
        } else {
            Name(NameRepr::Heap(s.into_boxed_str()))
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Byte-wise, like `str`.
    fn cmp(&self, other: &Name) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// How many ids an [`IdVec`] stores without a heap allocation.
const IDS_INLINE: usize = 4;

/// A growable list of small `Copy` ids (operands, results, regions,
/// block arguments and block contents).
///
/// Up to four ids are stored inside the value; the fifth moves the list to
/// a boxed slice, which doubles when full, and the list stays there. The
/// boxed slice and a `u32` length keep an `IdVec` of 4-byte ids at 24
/// bytes, the size of a `Vec`. It dereferences to `[T]` and offers the
/// `Vec` mutators IR code uses. Equality and `Debug` are those of the
/// slice, and an `IdVec` compares equal to a `Vec` or array with the same
/// contents.
///
/// # Examples
///
/// ```
/// use equeue_ir::IdVec;
/// let mut v: IdVec<u32> = IdVec::new();
/// v.extend([1, 2, 3, 4, 5]);
/// v.retain(|&x| x % 2 == 1);
/// assert_eq!(v, [1, 3, 5]);
/// assert_eq!(v.iter().sum::<u32>(), 9);
/// ```
#[derive(Clone)]
pub struct IdVec<T>(IdRepr<T>);

/// The ids are `ids[..len]`; the rest of `ids` is spare capacity, filled
/// with copies of some id. An empty list that never held an id is an
/// empty `Heap`, which allocates nothing.
#[derive(Clone)]
enum IdRepr<T> {
    Inline { len: u32, ids: [T; IDS_INLINE] },
    Heap { len: u32, ids: Box<[T]> },
}

impl<T: Copy> IdVec<T> {
    /// An empty list; allocates nothing.
    pub fn new() -> Self {
        IdVec(IdRepr::Heap {
            len: 0,
            ids: Box::new([]),
        })
    }

    fn raw(&self) -> (usize, &[T]) {
        match &self.0 {
            IdRepr::Inline { len, ids } => (*len as usize, ids),
            IdRepr::Heap { len, ids } => (*len as usize, ids),
        }
    }

    fn raw_mut(&mut self) -> (&mut u32, &mut [T]) {
        match &mut self.0 {
            IdRepr::Inline { len, ids } => (len, ids),
            IdRepr::Heap { len, ids } => (len, ids),
        }
    }

    /// The ids as a slice.
    pub fn as_slice(&self) -> &[T] {
        let (len, ids) = self.raw();
        &ids[..len]
    }

    /// The ids as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        let (len, ids) = self.raw_mut();
        &mut ids[..*len as usize]
    }

    /// Makes room for one more id: a full list moves to a buffer of twice
    /// the capacity (at least the inline four), spare slots set to `fill`.
    fn reserve_one(&mut self, fill: T) {
        let (len, ids) = self.raw();
        if len < ids.len() {
            return;
        }
        assert!(
            len < u32::MAX as usize,
            "an IdVec holds at most u32::MAX ids"
        );
        self.0 = if len == 0 {
            IdRepr::Inline {
                len: 0,
                ids: [fill; IDS_INLINE],
            }
        } else {
            let mut grown = vec![fill; 2 * len].into_boxed_slice();
            grown[..len].copy_from_slice(&ids[..len]);
            IdRepr::Heap {
                len: len as u32,
                ids: grown,
            }
        };
    }

    /// Appends `id`.
    pub fn push(&mut self, id: T) {
        self.insert(self.len(), id);
    }

    /// Removes and returns the last id, or `None` if the list is empty.
    pub fn pop(&mut self) -> Option<T> {
        let (len, ids) = self.raw_mut();
        *len = len.checked_sub(1)?;
        Some(ids[*len as usize])
    }

    /// Inserts `id` at `index`, shifting later ids right.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, id: T) {
        let n = self.len();
        assert!(index <= n, "insertion index {index} out of range (len {n})");
        self.reserve_one(id);
        let (len, ids) = self.raw_mut();
        ids.copy_within(index..n, index + 1);
        ids[index] = id;
        *len += 1;
    }

    /// Removes and returns the id at `index`, shifting later ids left.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn remove(&mut self, index: usize) -> T {
        let n = self.len();
        assert!(index < n, "removal index {index} out of range (len {n})");
        let (len, ids) = self.raw_mut();
        let id = ids[index];
        ids.copy_within(index + 1..n, index);
        *len -= 1;
        id
    }

    /// Keeps only the ids for which `keep` returns `true`, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let (len, ids) = self.raw_mut();
        let mut kept = 0;
        for i in 0..*len as usize {
            if keep(&ids[i]) {
                ids[kept] = ids[i];
                kept += 1;
            }
        }
        *len = kept as u32;
    }

    /// Removes every id.
    pub fn clear(&mut self) {
        *self.raw_mut().0 = 0;
    }
}

impl<T: Copy> Default for IdVec<T> {
    fn default() -> Self {
        IdVec::new()
    }
}

impl<T: Copy> Deref for IdVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy> DerefMut for IdVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy> From<Vec<T>> for IdVec<T> {
    /// Short lists move inline (the `Vec` is freed); longer ones keep
    /// the `Vec`'s buffer.
    fn from(v: Vec<T>) -> Self {
        match u32::try_from(v.len()) {
            Ok(len) if v.len() > IDS_INLINE => IdVec(IdRepr::Heap {
                len,
                ids: v.into_boxed_slice(),
            }),
            _ => v.into_iter().collect(),
        }
    }
}

impl<T: Copy> FromIterator<T> for IdVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = IdVec::new();
        v.extend(iter);
        v
    }
}

impl<T: Copy> Extend<T> for IdVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for id in iter {
            self.push(id);
        }
    }
}

impl<'a, T: Copy> IntoIterator for &'a IdVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<'a, T: Copy> IntoIterator for &'a mut IdVec<T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_mut_slice().iter_mut()
    }
}

/// By-value iterator over an [`IdVec`]'s ids.
#[derive(Debug, Clone)]
pub struct IdVecIntoIter<T: Copy> {
    ids: IdVec<T>,
    next: usize,
}

impl<T: Copy> Iterator for IdVecIntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let id = self.ids.get(self.next).copied()?;
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.ids.len() - self.next;
        (left, Some(left))
    }
}

impl<T: Copy> ExactSizeIterator for IdVecIntoIter<T> {}

impl<T: Copy> IntoIterator for IdVec<T> {
    type Item = T;
    type IntoIter = IdVecIntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        IdVecIntoIter { ids: self, next: 0 }
    }
}

impl<T: Copy + PartialEq> PartialEq for IdVec<T> {
    fn eq(&self, other: &IdVec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq> Eq for IdVec<T> {}

impl<T: Copy + PartialEq> PartialEq<Vec<T>> for IdVec<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq<[T; N]> for IdVec<T> {
    fn eq(&self, other: &[T; N]) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + PartialEq> PartialEq<IdVec<T>> for Vec<T> {
    fn eq(&self, other: &IdVec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + fmt::Debug> fmt::Debug for IdVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<H: Hash + ?Sized>(x: &H) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    /// Minimal xorshift64 so the model test is deterministic and std-only.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[test]
    fn id_vec_matches_vec_model() {
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut spills = 0;
        for _ in 0..200 {
            let mut ids: IdVec<u32> = IdVec::new();
            let mut model: Vec<u32> = Vec::new();
            for _ in 0..60 {
                let x = rng.next() as u32 % 16;
                // Bias towards growth so lists cross the 4 → 5 boundary
                // both ways.
                match rng.below(9) {
                    0..=2 => {
                        ids.push(x);
                        model.push(x);
                    }
                    3 => assert_eq!(ids.pop(), model.pop()),
                    4 => {
                        let i = rng.below(model.len() + 1);
                        ids.insert(i, x);
                        model.insert(i, x);
                    }
                    5 if !model.is_empty() => {
                        let i = rng.below(model.len());
                        assert_eq!(ids.remove(i), model.remove(i));
                    }
                    6 => {
                        ids.retain(|&y| y % 3 != x % 3);
                        model.retain(|&y| y % 3 != x % 3);
                    }
                    7 if rng.below(4) == 0 => {
                        ids.clear();
                        model.clear();
                    }
                    _ => {
                        let n = rng.below(4);
                        ids.extend((0..n as u32).map(|k| k + x));
                        model.extend((0..n as u32).map(|k| k + x));
                    }
                }
                if model.len() > IDS_INLINE {
                    spills += 1;
                }
                assert_eq!(ids.as_slice(), model.as_slice());
                assert_eq!(ids, model);
                assert_eq!(ids, IdVec::from(model.clone()));
                assert_eq!(format!("{ids:?}"), format!("{model:?}"));
                assert_eq!(ids.clone().into_iter().collect::<Vec<_>>(), model);
            }
        }
        assert!(spills > 1000, "the model test must exercise spilled lists");
    }

    #[test]
    fn id_vec_spills_on_the_fifth_id() {
        let mut v: IdVec<u32> = IdVec::new();
        assert!(matches!(&v.0, IdRepr::Heap { len: 0, ids } if ids.is_empty()));
        v.extend([1, 2, 3, 4]);
        assert!(matches!(v.0, IdRepr::Inline { len: 4, .. }));
        v.push(5);
        assert!(matches!(&v.0, IdRepr::Heap { len: 5, ids } if ids.len() == 8));
        assert_eq!(v.pop(), Some(5));
        assert_eq!(v, [1, 2, 3, 4]);
        assert!(matches!(
            IdVec::from(vec![1u32; 4]).0,
            IdRepr::Inline { .. }
        ));
        assert!(matches!(
            IdVec::from(vec![1u32; 5]).0,
            IdRepr::Heap { len: 5, .. }
        ));
        for x in &mut v {
            *x *= 10;
        }
        assert_eq!(v, vec![10, 20, 30, 40]);
    }

    #[test]
    fn name_behaves_like_str_at_the_inline_boundary() {
        // Lengths 0, 22 (last inline), 23 and 24 (heap), plus two-byte and
        // three-byte characters straddling byte 22.
        let texts: Vec<String> = vec![
            String::new(),
            "a".repeat(22),
            "a".repeat(23),
            "a".repeat(24),
            format!("{}é", "a".repeat(20)),  // 22 bytes, inline
            format!("{}é", "a".repeat(21)),  // 23 bytes, heap
            format!("{}€", "a".repeat(19)),  // 22 bytes, inline
            format!("{}€", "a".repeat(20)),  // 23 bytes, heap
            format!("{}€b", "a".repeat(19)), // 23 bytes, heap
            "equeue.create_connection".to_string(),
            "equeue.launch".to_string(),
            "a".repeat(21) + "b",
        ];
        for t in &texts {
            let n = Name::from(t.as_str());
            assert_eq!(&*n, t.as_str());
            assert_eq!(n.len(), t.len());
            assert_eq!(n, t.as_str());
            assert_eq!(Name::from(t.clone()), n);
            assert_eq!(hash_of(&n), hash_of(t.as_str()));
            assert_eq!(n.to_string(), *t);
            assert_eq!(format!("{n:?}"), format!("{t:?}"));
            assert_eq!(
                matches!(n.0, NameRepr::Inline { .. }),
                t.len() <= NAME_INLINE,
                "{t:?}"
            );
        }
        for a in &texts {
            for b in &texts {
                let (na, nb) = (Name::from(a.as_str()), Name::from(b.as_str()));
                assert_eq!(na.cmp(&nb), a.as_str().cmp(b.as_str()), "{a:?} vs {b:?}");
                assert_eq!(na == nb, a == b);
                assert_eq!(na == b.as_str(), a == b);
            }
        }
    }
}
