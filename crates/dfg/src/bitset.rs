//! Dense bitsets over DFG node indices.
//!
//! Candidate ISE subgraphs, reachability rows and scheduling ready sets are
//! all sets of nodes of one (small) basic-block DFG, so a dense `u64`-block
//! bitset is both the fastest and the simplest representation. All set
//! algebra used by the convexity and port analyses is provided here.

use crate::graph::NodeId;

const BITS: usize = 64;

/// A dense set of [`NodeId`]s backed by `u64` blocks.
///
/// A `NodeSet` has a fixed *universe size* (the number of nodes of the DFG it
/// refers to), established at construction. Binary operations panic when the
/// universe sizes differ, which catches cross-graph mix-ups early.
///
/// # Example
///
/// ```
/// use isex_dfg::{NodeSet, NodeId};
///
/// let mut s = NodeSet::new(10);
/// s.insert(NodeId::new(3));
/// s.insert(NodeId::new(7));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(NodeId::new(3)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![NodeId::new(3), NodeId::new(7)]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct NodeSet {
    blocks: Vec<u64>,
    universe: usize,
}

impl NodeSet {
    /// Creates an empty set over a universe of `universe` nodes.
    pub fn new(universe: usize) -> Self {
        NodeSet {
            blocks: vec![0; universe.div_ceil(BITS)],
            universe,
        }
    }

    /// Creates a set containing every node of the universe.
    pub fn full(universe: usize) -> Self {
        let mut s = NodeSet::new(universe);
        for i in 0..universe {
            s.insert(NodeId::new(i as u32));
        }
        s
    }

    /// Returns the universe size this set was created with.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Inserts a node; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the universe.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let idx = id.index();
        assert!(
            idx < self.universe,
            "node {idx} outside universe {}",
            self.universe
        );
        let (b, m) = (idx / BITS, 1u64 << (idx % BITS));
        let fresh = self.blocks[b] & m == 0;
        self.blocks[b] |= m;
        fresh
    }

    /// Removes a node; returns `true` if it was present.
    pub fn remove(&mut self, id: NodeId) -> bool {
        let idx = id.index();
        if idx >= self.universe {
            return false;
        }
        let (b, m) = (idx / BITS, 1u64 << (idx % BITS));
        let present = self.blocks[b] & m != 0;
        self.blocks[b] &= !m;
        present
    }

    /// Returns `true` if the node is in the set.
    pub fn contains(&self, id: NodeId) -> bool {
        let idx = id.index();
        idx < self.universe && self.blocks[idx / BITS] & (1u64 << (idx % BITS)) != 0
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no node.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes every node from the set.
    pub fn clear(&mut self) {
        self.blocks.iter_mut().for_each(|b| *b = 0);
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    pub fn union_with(&mut self, other: &NodeSet) {
        self.check(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        self.check(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= b;
        }
    }

    /// In-place difference: removes every node of `other` from `self`.
    ///
    /// # Panics
    ///
    /// Panics if the universe sizes differ.
    pub fn difference_with(&mut self, other: &NodeSet) {
        self.check(other);
        for (a, b) in self.blocks.iter_mut().zip(&other.blocks) {
            *a &= !b;
        }
    }

    /// Returns the union of `self` and `other` as a new set.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns the intersection of `self` and `other` as a new set.
    pub fn intersection(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns `self \ other` as a new set.
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Returns `true` if the two sets share at least one node.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        self.check(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .any(|(a, b)| a & b != 0)
    }

    /// Returns `true` if every node of `self` is in `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        self.check(other);
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the nodes of the set in ascending index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }

    /// Returns the smallest node in the set, if any.
    pub fn first(&self) -> Option<NodeId> {
        self.iter().next()
    }

    /// The raw `u64` blocks backing the set, low indices first.
    ///
    /// Two sets over the same universe are equal iff their words are equal,
    /// which makes the words a canonical fingerprint of the membership —
    /// the hot-path evaluation cache keys on them directly instead of
    /// iterating members.
    pub fn as_words(&self) -> &[u64] {
        &self.blocks
    }

    fn check(&self, other: &NodeSet) {
        assert_eq!(
            self.universe, other.universe,
            "bitset universe mismatch: {} vs {}",
            self.universe, other.universe
        );
    }
}

impl serde::Serialize for NodeSet {
    /// Serialises as `(universe, [member indices])`.
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let members: Vec<u32> = self.iter().map(|n| n.index() as u32).collect();
        (self.universe as u64, members).serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for NodeSet {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let (universe, members): (u64, Vec<u32>) = serde::Deserialize::deserialize(deserializer)?;
        let mut set = NodeSet::new(universe as usize);
        for m in members {
            if m as usize >= set.universe {
                return Err(serde::de::Error::custom(format!(
                    "member {m} outside universe {universe}"
                )));
            }
            if !set.insert(NodeId::new(m)) {
                return Err(serde::de::Error::custom(format!("duplicate member {m}")));
            }
        }
        Ok(set)
    }
}

impl std::fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|n| n.index()))
            .finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Collects node ids into a set whose universe is just large enough to
    /// hold the largest id. Prefer [`NodeSet::new`] with the DFG size when
    /// the set will be combined with other sets of the same graph.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let universe = ids.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        let mut s = NodeSet::new(universe);
        for id in ids {
            s.insert(id);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

/// Iterator over the nodes of a [`NodeSet`], produced by [`NodeSet::iter`].
pub struct Iter<'a> {
    set: &'a NodeSet,
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(NodeId::new((self.block * BITS + bit) as u32));
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

impl<'a> IntoIterator for &'a NodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(n(0)));
        assert!(s.insert(n(64)));
        assert!(s.insert(n(129)));
        assert!(!s.insert(n(64)), "second insert reports already-present");
        assert!(s.contains(n(0)) && s.contains(n(64)) && s.contains(n(129)));
        assert!(!s.contains(n(1)));
        assert_eq!(s.len(), 3);
        assert!(s.remove(n(64)));
        assert!(!s.remove(n(64)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_algebra() {
        let mut a = NodeSet::new(100);
        let mut b = NodeSet::new(100);
        for i in 0..50 {
            a.insert(n(i));
        }
        for i in 25..75 {
            b.insert(n(i));
        }
        assert_eq!(a.union(&b).len(), 75);
        assert_eq!(a.intersection(&b).len(), 25);
        assert_eq!(a.difference(&b).len(), 25);
        assert!(a.intersects(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersection(&b).is_subset(&b));
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut s = NodeSet::new(200);
        let picks = [3u32, 63, 64, 65, 127, 128, 199];
        for &i in &picks {
            s.insert(n(i));
        }
        let out: Vec<u32> = s.iter().map(|x| x.index() as u32).collect();
        assert_eq!(out, picks);
    }

    #[test]
    fn empty_and_full() {
        let s = NodeSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let f = NodeSet::full(67);
        assert_eq!(f.len(), 67);
        assert!(f.contains(n(66)));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universe_panics() {
        let a = NodeSet::new(10);
        let b = NodeSet::new(20);
        let _ = a.union(&b);
    }

    #[test]
    fn from_iterator_sizes_universe() {
        let s: NodeSet = [n(2), n(9)].into_iter().collect();
        assert_eq!(s.universe(), 10);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut s = NodeSet::full(12);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn words_are_a_canonical_fingerprint() {
        let mut a = NodeSet::new(130);
        let mut b = NodeSet::new(130);
        for &i in &[0u32, 64, 129] {
            a.insert(n(i));
            b.insert(n(i));
        }
        assert_eq!(a.as_words(), b.as_words());
        assert_eq!(a.as_words().len(), 3, "130 nodes span three u64 words");
        b.remove(n(64));
        assert_ne!(a.as_words(), b.as_words());
        b.insert(n(64));
        assert_eq!(a.as_words(), b.as_words(), "membership round-trips");
    }
}
