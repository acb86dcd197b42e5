//! A small multiplicative hasher for the parser's maps and the dialect
//! registry.
//!
//! The parser's SSA scope and type cache and the registry's op table are
//! keyed by short strings, which std's SipHash spends most of its time
//! setting up for. This is the add-multiply hash rustc uses for its own
//! tables: not DoS-resistant, which IR text the user feeds to their own
//! tools does not need, and several times cheaper on short keys. The final
//! rotation moves the product's well-mixed high bits down to where the
//! table picks its bucket; without it, names that differ only in their
//! last bytes (`%841`, `%842`, …) crowd into a few buckets.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Add-multiply over 8-byte words.
#[derive(Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_keyed_by_short_names_work() {
        let mut m: FxHashMap<&str, usize> = FxHashMap::default();
        let names: Vec<String> = (0..1000).map(|i| format!("v{i}")).collect();
        for (i, n) in names.iter().enumerate() {
            m.insert(n, i);
        }
        assert_eq!(m.len(), 1000);
        assert!(names.iter().enumerate().all(|(i, n)| m[n.as_str()] == i));
        assert_eq!(m.get("v1000"), None);
    }

    #[test]
    fn trailing_bytes_change_the_hash() {
        let h = |s: &str| {
            let mut h = FxHasher::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_ne!(h("abcdefgh1"), h("abcdefgh2"));
        assert_ne!(h("a"), h("b"));
    }
}
