//! LRU stack processing over code-block traces.
//!
//! Both locality models maintain a recency stack while scanning the trace
//! (the paper's §II-F "Stack Processing"). The paper implements the stack as
//! a linked list with a hash table for O(1) lookup, modelled on the Linux
//! kernel's page bookkeeping — which makes every *distance query* a linear
//! walk. [`LruStack`] keeps that linked list (it is what makes recency
//! iteration — the "w-window" of the affinity analyzer and the 2C window of
//! TRG construction — O(w)), but answers distance queries with an
//! Olken-style engine instead of a walk:
//!
//! * a dense id → *stamp* index maps every resident block to the timestamp
//!   slot of its most recent access, and
//! * a Fenwick (binary indexed) tree over stamp slots counts resident
//!   blocks per slot, so the number of distinct blocks accessed since a
//!   block's previous access — Mattson's reuse distance over a trimmed
//!   trace — is one prefix-sum query.
//!
//! Stamps grow with the trace, not with the block universe, so the engine
//! *compacts*: when the stamp space is exhausted it renumbers the resident
//! blocks `len-1..0` in recency order (one walk of the linked list) and
//! rebuilds the tree. The stamp space is sized at twice the block capacity,
//! so compaction runs at most once per `capacity` accesses and the
//! amortized cost per access stays O(log B) for B distinct blocks.
//!
//! The previous walk-based implementation is kept, bit-for-bit compatible,
//! as `clop_oracle::NaiveLruStack`: it is the oracle for the differential
//! test harness (`crates/trace/tests/differential.rs`).
//!
//! Supported queries:
//!
//! * `access(block)` → the block's LRU *stack distance* (the number of
//!   distinct blocks touched since its previous access), while moving the
//!   block to the top — O(log B),
//! * `depth(block)` → the same count without promoting — O(log B),
//! * iteration over the top `w` entries in recency order — O(w).

use crate::trace::BlockId;

const NIL: u32 = u32::MAX;

/// Stamp sentinel for blocks not currently on the stack.
const NO_STAMP: usize = usize::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    prev: u32,
    next: u32,
}

/// A Fenwick (binary indexed) tree counting occupied stamp slots; all
/// operations are O(log slots).
#[derive(Clone, Debug)]
struct StampTree {
    /// 1-based partial sums; `sums[0]` is unused.
    sums: Vec<u32>,
}

impl StampTree {
    fn new(slots: usize) -> Self {
        StampTree {
            sums: vec![0; slots + 1],
        }
    }

    /// Number of stamp slots.
    fn slots(&self) -> usize {
        self.sums.len() - 1
    }

    /// Add `delta` (±1) to `slot`.
    fn add(&mut self, slot: usize, delta: i32) {
        let mut i = slot + 1;
        while i < self.sums.len() {
            self.sums[i] = (self.sums[i] as i64 + delta as i64) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of occupied slots in `0..=slot`.
    fn prefix(&self, slot: usize) -> usize {
        let mut i = slot + 1;
        let mut sum = 0usize;
        while i > 0 {
            sum += self.sums[i] as usize;
            i -= i & i.wrapping_neg();
        }
        sum
    }

    fn clear(&mut self) {
        self.sums.fill(0);
    }
}

/// An LRU (recency) stack over dense block ids with O(log B) distance
/// queries (Olken's algorithm: last-access stamps + a Fenwick tree).
///
/// `access` and `depth` are O(log B); [`LruStack::top`] /
/// [`LruStack::for_each_top`] walk the requested prefix of the recency
/// list. `access` returns the *infinite* distance ([`LruStack::INFINITE`])
/// on a cold (first) access.
#[derive(Clone, Debug)]
pub struct LruStack {
    /// Intrusive doubly-linked recency list (most recent at `head`).
    nodes: Vec<Node>,
    head: u32,
    len: usize,
    /// Distances above this bound are reported as [`LruStack::INFINITE`]
    /// (the affinity analyzer's w-window and TRG's 2C window semantics).
    distance_bound: usize,
    /// Per-block stamp slot of the most recent access; `NO_STAMP` when the
    /// block is not resident.
    stamp: Vec<usize>,
    /// Fenwick tree over stamp slots: 1 where a resident block's current
    /// stamp lives. Invariant: exactly `len` slots are occupied, all below
    /// `next_stamp`.
    tree: StampTree,
    /// Next stamp slot to assign; compaction resets it to `len`.
    next_stamp: usize,
}

impl LruStack {
    /// Distance reported for the first (cold) access to a block.
    pub const INFINITE: usize = usize::MAX;

    /// A stack able to hold blocks with ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        LruStack {
            nodes: vec![
                Node {
                    prev: NIL,
                    next: NIL
                };
                capacity
            ],
            head: NIL,
            len: 0,
            distance_bound: usize::MAX,
            stamp: vec![NO_STAMP; capacity],
            // Twice the capacity bounds compaction frequency: at least
            // `capacity` accesses pass between rebuilds.
            tree: StampTree::new((capacity * 2).max(1)),
            next_stamp: 0,
        }
    }

    /// Bound distance reporting at `w`: accesses deeper than `w` report
    /// [`LruStack::INFINITE`]. With the Fenwick engine the query cost no
    /// longer depends on the bound; this only preserves the analyzers'
    /// windowed semantics.
    pub fn with_walk_bound(capacity: usize, w: usize) -> Self {
        let mut s = Self::new(capacity);
        s.distance_bound = w;
        s
    }

    /// Number of distinct blocks currently on the stack.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stack holds no block.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn unlink(&mut self, i: u32) {
        let (p, n) = {
            let nd = &self.nodes[i as usize];
            (nd.prev, nd.next)
        };
        if p != NIL {
            self.nodes[p as usize].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.nodes[n as usize].prev = p;
        }
    }

    fn push_front(&mut self, i: u32) {
        let old = self.head;
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = old;
        if old != NIL {
            self.nodes[old as usize].prev = i;
        }
        self.head = i;
    }

    /// Renumber resident blocks' stamps to `len-1..=0` in recency order and
    /// rebuild the tree. O(len · log slots); runs at most once per
    /// `capacity` accesses, so the amortized cost per access is O(log B).
    fn compact(&mut self) {
        self.tree.clear();
        let mut next = self.len;
        let mut cur = self.head;
        while cur != NIL {
            next -= 1;
            self.stamp[cur as usize] = next;
            self.tree.add(next, 1);
            cur = self.nodes[cur as usize].next;
        }
        debug_assert_eq!(next, 0, "list length must equal len");
        self.next_stamp = self.len;
    }

    /// Give the block at the head of the list (just promoted) the newest
    /// stamp, compacting first if the stamp space is exhausted.
    fn stamp_front(&mut self, idx: usize) {
        if self.next_stamp == self.tree.slots() {
            // Compaction stamps every resident block, including `idx`
            // (already at the head), so nothing more to do.
            self.compact();
            return;
        }
        self.stamp[idx] = self.next_stamp;
        self.tree.add(self.next_stamp, 1);
        self.next_stamp += 1;
    }

    /// Record an access to `block`: return its stack distance (number of
    /// distinct blocks accessed since its previous access, the accessed
    /// block excluded) and move it to the top of the stack.
    ///
    /// Cold accesses and accesses deeper than the distance bound return
    /// [`LruStack::INFINITE`].
    pub fn access(&mut self, block: BlockId) -> usize {
        let i = block.0;
        assert!(
            (i as usize) < self.nodes.len(),
            "block id {} beyond stack capacity {}",
            i,
            self.nodes.len()
        );
        let idx = i as usize;
        if self.stamp[idx] == NO_STAMP {
            self.len += 1;
            self.push_front(i);
            self.stamp_front(idx);
            return Self::INFINITE;
        }
        // Reuse: blocks above `block` are exactly the residents whose stamp
        // is newer than its last one.
        let d = self.len - self.tree.prefix(self.stamp[idx]);
        self.tree.add(self.stamp[idx], -1);
        self.stamp[idx] = NO_STAMP;
        self.unlink(i);
        self.push_front(i);
        self.stamp_front(idx);
        if d > self.distance_bound {
            Self::INFINITE
        } else {
            d
        }
    }

    /// The current depth of `block` (number of blocks above it on the
    /// stack) *without* promoting it, or `None` when the block is not
    /// resident. O(log B). Unlike [`LruStack::access`], the distance bound
    /// does not apply.
    pub fn depth(&self, block: BlockId) -> Option<usize> {
        let s = *self.stamp.get(block.index())?;
        if s == NO_STAMP {
            return None;
        }
        Some(self.len - self.tree.prefix(s))
    }

    /// The top `w` blocks in recency order (most recent first). Shorter if
    /// the stack holds fewer blocks.
    pub fn top(&self, w: usize) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(w.min(self.len));
        let mut cur = self.head;
        while cur != NIL && out.len() < w {
            out.push(BlockId(cur));
            cur = self.nodes[cur as usize].next;
        }
        out
    }

    /// Visit the top `w` blocks without allocating.
    pub fn for_each_top<F: FnMut(BlockId)>(&self, w: usize, mut f: F) {
        let mut cur = self.head;
        let mut n = 0usize;
        while cur != NIL && n < w {
            f(BlockId(cur));
            cur = self.nodes[cur as usize].next;
            n += 1;
        }
    }

    /// Remove everything from the stack.
    pub fn clear(&mut self) {
        for n in &mut self.nodes {
            n.prev = NIL;
            n.next = NIL;
        }
        self.stamp.fill(NO_STAMP);
        self.tree.clear();
        self.next_stamp = 0;
        self.head = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    #[test]
    fn cold_access_is_infinite() {
        let mut s = LruStack::new(4);
        assert_eq!(s.access(b(0)), LruStack::INFINITE);
        assert_eq!(s.access(b(1)), LruStack::INFINITE);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn immediate_reuse_distance_zero() {
        let mut s = LruStack::new(2);
        s.access(b(0));
        assert_eq!(s.access(b(0)), 0);
    }

    #[test]
    fn classic_mattson_distances() {
        // Trace a b c b a: distances inf inf inf 1 2.
        let mut s = LruStack::new(3);
        assert_eq!(s.access(b(0)), LruStack::INFINITE);
        assert_eq!(s.access(b(1)), LruStack::INFINITE);
        assert_eq!(s.access(b(2)), LruStack::INFINITE);
        assert_eq!(s.access(b(1)), 1);
        assert_eq!(s.access(b(0)), 2);
    }

    #[test]
    fn top_reports_recency_order() {
        let mut s = LruStack::new(4);
        s.access(b(3));
        s.access(b(1));
        s.access(b(2));
        assert_eq!(s.top(2), vec![b(2), b(1)]);
        assert_eq!(s.top(10), vec![b(2), b(1), b(3)]);
    }

    #[test]
    fn access_promotes_to_top() {
        let mut s = LruStack::new(4);
        s.access(b(0));
        s.access(b(1));
        s.access(b(0));
        assert_eq!(s.top(2), vec![b(0), b(1)]);
    }

    #[test]
    fn walk_bound_truncates_distance() {
        let mut s = LruStack::with_walk_bound(5, 2);
        for i in 0..5 {
            s.access(b(i));
        }
        // b(0) is at depth 4 > bound 2 → INFINITE, but still promoted.
        assert_eq!(s.access(b(0)), LruStack::INFINITE);
        assert_eq!(s.top(1), vec![b(0)]);
        // Depth-1 accesses still resolve exactly.
        assert_eq!(s.access(b(4)), 1);
    }

    #[test]
    fn depth_reports_without_promoting() {
        let mut s = LruStack::new(5);
        for i in 0..4 {
            s.access(b(i));
        }
        assert_eq!(s.depth(b(3)), Some(0));
        assert_eq!(s.depth(b(0)), Some(3));
        assert_eq!(s.depth(b(4)), None);
        // Querying must not promote: order is unchanged.
        assert_eq!(s.top(4), vec![b(3), b(2), b(1), b(0)]);
        // depth ignores the distance bound, unlike access.
        let mut t = LruStack::with_walk_bound(5, 1);
        for i in 0..4 {
            t.access(b(i));
        }
        assert_eq!(t.depth(b(0)), Some(3));
    }

    #[test]
    fn for_each_top_matches_top() {
        let mut s = LruStack::new(8);
        for i in [5u32, 2, 7, 2, 5] {
            s.access(b(i));
        }
        let mut seen = Vec::new();
        s.for_each_top(2, |x| seen.push(x));
        assert_eq!(seen, s.top(2));
    }

    #[test]
    fn clear_resets() {
        let mut s = LruStack::new(3);
        s.access(b(0));
        s.access(b(1));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.access(b(1)), LruStack::INFINITE);
    }

    #[test]
    fn distances_match_naive_recomputation() {
        // Cross-check against a brute-force distinct-count implementation.
        let trace: Vec<u32> = vec![0, 1, 2, 3, 1, 0, 2, 2, 3, 1, 0, 3, 2, 1, 0];
        let mut s = LruStack::new(4);
        let mut last_pos: std::collections::HashMap<u32, usize> = Default::default();
        for (i, &x) in trace.iter().enumerate() {
            let got = s.access(b(x));
            let want = match last_pos.get(&x) {
                None => LruStack::INFINITE,
                Some(&p) => {
                    let mut set: Vec<u32> = trace[p + 1..i].to_vec();
                    set.sort_unstable();
                    set.dedup();
                    set.retain(|&y| y != x);
                    set.len()
                }
            };
            assert_eq!(got, want, "at position {}", i);
            last_pos.insert(x, i);
        }
    }

    #[test]
    #[should_panic(expected = "beyond stack capacity")]
    fn out_of_capacity_panics() {
        let mut s = LruStack::new(2);
        s.access(b(2));
    }

    #[test]
    fn zero_capacity_stack_is_inert() {
        let s = LruStack::new(0);
        assert!(s.is_empty());
        assert_eq!(s.top(3), Vec::<BlockId>::new());
        assert_eq!(s.depth(b(0)), None);
    }
}
