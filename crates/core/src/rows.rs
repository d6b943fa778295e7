//! Fixed-width bit rows: the set type of the ACO round's hot loop.
//!
//! A round's node sets (the ready set, group members, virtual subgraphs,
//! component summaries, the legality-repair frontier) and its per-node
//! rows (producers, consumers, live-ins, descendants, ancestors) are
//! `[u64; W]` words, with `W` fixed for the whole round. Set algebra on a
//! row is then `W` word operations with no length check and no heap
//! behind it. `W` is chosen once per round from the larger of the node
//! and live-in counts ([`width_words`]); the round code is generic over it
//! and compiled once per width.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign};

use isex_dfg::{NodeId, NodeSet, Operand, Reachability};

use crate::exgraph::ExGraph;

/// The widest row, in 64-bit words.
pub(crate) const MAX_WORDS: usize = 64;

/// The most nodes (or live-in values) a round's rows can hold.
const MAX_BITS: usize = 64 * MAX_WORDS;

/// The widest row whose operations are inlined at every use. Wider rows
/// (blocks of more than 256 nodes) call one out-of-line loop per
/// operation instead, which keeps the code of the four wide instances of
/// the round small.
const INLINE_WORDS: usize = 4;

/// The row width, in words, of a round over `g`: the smallest of 1, 2, 4,
/// 8, 16, 32 and 64 words that holds every node and every live-in value.
///
/// # Panics
///
/// Panics, naming the limit, if `g` has more than [`MAX_BITS`] nodes or
/// live-in values.
pub(crate) fn width_words(g: &ExGraph) -> usize {
    let bits = g.len().max(g.live_in_count());
    assert!(
        bits <= MAX_BITS,
        "block too wide to explore: {} nodes and {} live-in values, \
         but a round's bit rows hold at most {MAX_BITS}",
        g.len(),
        g.live_in_count()
    );
    bits.div_ceil(64).max(1).next_power_of_two()
}

/// A set of node (or live-in) indices below `64 * W`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row<const W: usize>([u64; W]);

impl<const W: usize> Default for Row<W> {
    fn default() -> Self {
        Row([0; W])
    }
}

impl<const W: usize> std::fmt::Debug for Row<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.ones()).finish()
    }
}

impl<const W: usize> Row<W> {
    /// The set `{i}`.
    pub(crate) fn single(i: usize) -> Self {
        let mut row = Self::default();
        row.insert(i);
        row
    }

    /// The members of `set`, whose universe is at most `64 * W`.
    pub(crate) fn from_node_set(set: &NodeSet) -> Self {
        let words = set.as_words();
        let mut row = Self::default();
        row.0[..words.len()].copy_from_slice(words);
        row
    }

    /// The members as a [`NodeSet`] over `universe` nodes.
    pub(crate) fn to_node_set(self, universe: usize) -> NodeSet {
        let mut set = NodeSet::new(universe);
        for i in self.ones() {
            set.insert(NodeId::new(i as u32));
        }
        set
    }

    /// Whether `i` is a member.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1 << (i % 64)) != 0
    }

    /// Adds `i`.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) {
        self.0[i / 64] &= !(1 << (i % 64));
    }

    /// Adds `i` when `on`, removes it otherwise.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, on: bool) {
        if on {
            self.insert(i);
        } else {
            self.remove(i);
        }
    }

    /// The number of members.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        if W > INLINE_WORDS {
            return wide::len(&self.0);
        }
        let mut n = 0;
        for w in self.0 {
            n += w.count_ones() as usize;
        }
        n
    }

    /// Whether the set is empty.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        if W > INLINE_WORDS {
            return wide::is_empty(&self.0);
        }
        self.0.iter().all(|&w| w == 0)
    }

    /// Whether `self ∩ other` is non-empty.
    #[inline]
    pub(crate) fn intersects(&self, other: &Self) -> bool {
        if W > INLINE_WORDS {
            return wide::intersects(&self.0, &other.0);
        }
        (0..W).any(|i| self.0[i] & other.0[i] != 0)
    }

    /// `self ∖ other`.
    #[inline]
    pub(crate) fn and_not(mut self, other: Self) -> Self {
        if W > INLINE_WORDS {
            wide::and_not(&mut self.0, &other.0);
            return self;
        }
        for i in 0..W {
            self.0[i] &= !other.0[i];
        }
        self
    }

    /// The members, ascending.
    #[inline]
    pub(crate) fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.0,
            w: 0,
            bits: self.0[0],
        }
    }
}

impl<const W: usize> BitOr for Row<W> {
    type Output = Self;
    #[inline]
    fn bitor(mut self, rhs: Self) -> Self {
        self |= rhs;
        self
    }
}

impl<const W: usize> BitOrAssign for Row<W> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        if W > INLINE_WORDS {
            return wide::or(&mut self.0, &rhs.0);
        }
        for i in 0..W {
            self.0[i] |= rhs.0[i];
        }
    }
}

impl<const W: usize> BitAnd for Row<W> {
    type Output = Self;
    #[inline]
    fn bitand(mut self, rhs: Self) -> Self {
        self &= rhs;
        self
    }
}

impl<const W: usize> BitAndAssign for Row<W> {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        if W > INLINE_WORDS {
            return wide::and(&mut self.0, &rhs.0);
        }
        for i in 0..W {
            self.0[i] &= rhs.0[i];
        }
    }
}

/// The operations of rows wider than [`INLINE_WORDS`], one loop each.
mod wide {
    #[inline(never)]
    pub(super) fn len(a: &[u64]) -> usize {
        a.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[inline(never)]
    pub(super) fn is_empty(a: &[u64]) -> bool {
        a.iter().all(|&w| w == 0)
    }

    #[inline(never)]
    pub(super) fn intersects(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(x, y)| x & y != 0)
    }

    #[inline(never)]
    pub(super) fn or(a: &mut [u64], b: &[u64]) {
        a.iter_mut().zip(b).for_each(|(x, y)| *x |= y);
    }

    #[inline(never)]
    pub(super) fn and(a: &mut [u64], b: &[u64]) {
        a.iter_mut().zip(b).for_each(|(x, y)| *x &= y);
    }

    #[inline(never)]
    pub(super) fn and_not(a: &mut [u64], b: &[u64]) {
        a.iter_mut().zip(b).for_each(|(x, y)| *x &= !y);
    }
}

/// The members of a [`Row`], ascending.
pub(crate) struct Ones<'a> {
    words: &'a [u64],
    w: usize,
    bits: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.bits == 0 {
            self.w += 1;
            self.bits = *self.words.get(self.w)?;
        }
        let b = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.w * 64 + b)
    }
}

/// The rows of one round's graph, built once when the round starts and
/// shared by the ant walk, the merit update and candidate extraction.
///
/// Per node: its distinct producers and consumers, the distinct live-in
/// values it reads, and its strict descendants and ancestors; and the set
/// of live-out nodes. For a set `S` with producer union `E` and live-in
/// union `L`, `IN(S) = |E ∖ S| + |L|`, and a member is an output when it
/// is live out or has a consumer outside `S` (§4.2, the counting rules of
/// [`isex_dfg::ports::demand`]). `S` is convex when no node outside it is
/// both a descendant and an ancestor of members
/// ([`isex_dfg::convex::is_convex`]). Port demand and convexity are thus
/// ORs of rows and `count_ones`, with no operand list read.
pub(crate) struct RoundRows<const W: usize> {
    prod: Vec<Row<W>>,
    cons: Vec<Row<W>>,
    live_ins: Vec<Row<W>>,
    desc: Vec<Row<W>>,
    anc: Vec<Row<W>>,
    live_out: Row<W>,
}

impl<const W: usize> RoundRows<W> {
    /// Builds the rows of `g`, whose reachability is `reach`.
    ///
    /// # Panics
    ///
    /// Panics if `g` has more than `64 * W` nodes or live-in values.
    pub(crate) fn new(g: &ExGraph, reach: &Reachability) -> Self {
        let k = g.len();
        assert!(
            k.max(g.live_in_count()) <= 64 * W,
            "rows of {W} words cannot hold the graph"
        );
        let mut rows = RoundRows {
            prod: vec![Row::default(); k],
            cons: vec![Row::default(); k],
            live_ins: vec![Row::default(); k],
            desc: Vec::with_capacity(k),
            anc: Vec::with_capacity(k),
            live_out: Row::default(),
        };
        for (n, node) in g.iter() {
            let i = n.index();
            for op in node.operands() {
                match *op {
                    Operand::Node(p) => {
                        rows.prod[i].insert(p.index());
                        rows.cons[p.index()].insert(i);
                    }
                    Operand::LiveIn(v) => rows.live_ins[i].insert(v.index()),
                    Operand::Const(_) => {}
                }
            }
            rows.live_out.set(i, node.is_live_out());
            rows.desc.push(Row::from_node_set(reach.descendants(n)));
            rows.anc.push(Row::from_node_set(reach.ancestors(n)));
        }
        rows
    }

    /// The distinct producers of node `i`.
    #[inline]
    pub(crate) fn prod(&self, i: usize) -> Row<W> {
        self.prod[i]
    }

    /// The distinct consumers of node `i`.
    #[inline]
    pub(crate) fn cons(&self, i: usize) -> Row<W> {
        self.cons[i]
    }

    /// The distinct live-in values node `i` reads.
    #[inline]
    pub(crate) fn live_ins(&self, i: usize) -> Row<W> {
        self.live_ins[i]
    }

    /// The strict descendants of node `i`.
    #[inline]
    pub(crate) fn desc(&self, i: usize) -> Row<W> {
        self.desc[i]
    }

    /// The strict ancestors of node `i`.
    #[inline]
    pub(crate) fn anc(&self, i: usize) -> Row<W> {
        self.anc[i]
    }

    /// Whether node `i` is live out of the block.
    #[inline]
    pub(crate) fn is_live_out(&self, i: usize) -> bool {
        self.live_out.contains(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_algebra_matches_node_set() {
        let mut a = Row::<4>::default();
        let mut b = Row::<4>::default();
        for i in [0, 63, 64, 130, 255] {
            a.insert(i);
        }
        for i in [1, 63, 130, 200] {
            b.insert(i);
        }
        assert_eq!(a.ones().collect::<Vec<_>>(), [0, 63, 64, 130, 255]);
        assert_eq!((a & b).ones().collect::<Vec<_>>(), [63, 130]);
        assert_eq!(a.and_not(b).ones().collect::<Vec<_>>(), [0, 64, 255]);
        assert_eq!((a | b).len(), 7);
        assert!(a.intersects(&b));
        assert_eq!(a.ones().next(), Some(0));
        let set = a.to_node_set(256);
        assert_eq!(Row::<4>::from_node_set(&set), a);
        a.remove(0);
        assert_eq!(a.ones().next(), Some(63));
        assert!(Row::<2>::default().is_empty());
        assert_eq!(Row::<2>::default().ones().next(), None);
    }
}
