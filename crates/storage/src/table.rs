//! Ordered posting-list tables: the B-tree-indexed relations every
//! indexing scheme in §6.2.1 stores its postings in, with byte accounting
//! for the Figure 6(b) index-size comparison.

use crate::codec::{Codec, DecodeError};
use bytes::BytesMut;
use std::collections::BTreeMap;

/// Charged per B-tree entry: key slot + child pointers amortized, the same
/// constant for every indexing scheme so comparisons stay fair.
pub const BTREE_ENTRY_OVERHEAD: usize = 16;

/// An ordered multi-map (key → list of rows): the posting-list tables
/// (`W`, `E`, `P`) of §6.2.1.
#[derive(Debug, Clone, Default)]
pub struct MultiMap<K: Ord + Clone, V> {
    map: BTreeMap<K, Vec<V>>,
    rows: usize,
    approx_bytes: usize,
}

impl<K: Ord + Clone, V> MultiMap<K, V> {
    pub fn new() -> Self {
        MultiMap {
            map: BTreeMap::new(),
            rows: 0,
            approx_bytes: 0,
        }
    }

    /// Append a row under `key`, accounting `row_bytes`.
    pub fn push(&mut self, key: K, value: V, row_bytes: usize) {
        self.map.entry(key).or_default().push(value);
        self.rows += 1;
        self.approx_bytes += row_bytes;
    }

    /// The posting list for `key` (empty slice when absent).
    pub fn get(&self, key: &K) -> &[V] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn contains_key(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&K, &Vec<V>)> {
        self.map.iter()
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.map.len()
    }

    /// Total number of rows across all keys.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes + self.map.len() * BTREE_ENTRY_OVERHEAD
    }
}

/// Posting-list tables serialize in key order (deterministic bytes for
/// identical contents); the byte accounting is persisted so a reloaded
/// index reports the same footprint it did when built.
impl<K: Ord + Clone + Codec, V: Codec> Codec for MultiMap<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.map.len() as u32).encode(buf);
        for (k, v) in &self.map {
            k.encode(buf);
            v.encode(buf);
        }
        (self.rows as u64).encode(buf);
        (self.approx_bytes as u64).encode(buf);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = u32::decode(input)? as usize;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(input)?;
            let v = Vec::<V>::decode(input)?;
            map.insert(k, v);
        }
        Ok(MultiMap {
            map,
            rows: u64::decode(input)? as usize,
            approx_bytes: u64::decode(input)? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multimap_posting_lists() {
        let mut m: MultiMap<String, u32> = MultiMap::new();
        m.push("ate".into(), 1, 8);
        m.push("ate".into(), 2, 8);
        m.push("pie".into(), 3, 8);
        assert_eq!(m.get(&"ate".to_string()), &[1, 2]);
        assert_eq!(m.get(&"nope".to_string()), &[] as &[u32]);
        assert_eq!(m.num_keys(), 2);
        assert_eq!(m.num_rows(), 3);
        assert!(m.approx_bytes() >= 24);
    }

    #[test]
    fn multimap_codec_round_trip() {
        let mut m: MultiMap<String, u32> = MultiMap::new();
        m.push("ate".into(), 1, 8);
        m.push("ate".into(), 2, 8);
        m.push("pie".into(), 3, 8);
        let back = MultiMap::<String, u32>::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.get(&"ate".to_string()), m.get(&"ate".to_string()));
        assert_eq!(back.num_keys(), m.num_keys());
        assert_eq!(back.num_rows(), m.num_rows());
        assert_eq!(back.approx_bytes(), m.approx_bytes());
    }

    #[test]
    fn multimap_iteration_is_ordered() {
        let mut m: MultiMap<u32, u32> = MultiMap::new();
        for k in [5, 1, 3] {
            m.push(k, k * 10, 4);
        }
        let keys: Vec<u32> = m.keys().copied().collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }
}
