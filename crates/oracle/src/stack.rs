//! The walk-based reference LRU stack: the paper's literal §II-F structure.
//!
//! This is the original implementation of `clop_trace::LruStack` — an
//! intrusive doubly-linked list over a dense node arena where every
//! distance query walks the list from the head, O(depth) per access. It is
//! kept as [`NaiveLruStack`] because its simplicity makes it trivially
//! auditable: the differential test harness
//! (`crates/trace/tests/differential.rs`) uses it as the oracle that the
//! Fenwick-tree engine must match bit-for-bit (distances, promotion order,
//! bounded-window truncation, and cold-access handling).

use clop_trace::BlockId;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    prev: u32,
    next: u32,
    /// Whether this block is currently present on the stack.
    live: bool,
}

/// The walk-based LRU stack (test oracle). Same API and semantics as
/// `clop_trace::LruStack`, but `access` costs O(depth).
#[derive(Clone, Debug)]
pub struct NaiveLruStack {
    nodes: Vec<Node>,
    head: u32,
    len: usize,
    /// Distance walks stop here: deeper accesses report
    /// [`NaiveLruStack::INFINITE`].
    max_walk: usize,
}

impl NaiveLruStack {
    /// Distance reported for the first (cold) access to a block.
    pub const INFINITE: usize = usize::MAX;

    /// A stack able to hold blocks with ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        NaiveLruStack {
            nodes: vec![
                Node {
                    prev: NIL,
                    next: NIL,
                    live: false
                };
                capacity
            ],
            head: NIL,
            len: 0,
            max_walk: usize::MAX,
        }
    }

    /// Bound distance walks at `w`: accesses deeper than `w` report
    /// [`NaiveLruStack::INFINITE`].
    pub fn with_walk_bound(capacity: usize, w: usize) -> Self {
        let mut s = Self::new(capacity);
        s.max_walk = w;
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

    /// Record an access to `block`: return its stack distance and move it
    /// to the top of the stack. Cold accesses and accesses deeper than the
    /// walk bound return [`NaiveLruStack::INFINITE`].
    pub fn access(&mut self, block: BlockId) -> usize {
        let i = block.0;
        assert!(
            (i as usize) < self.nodes.len(),
            "block id {} beyond stack capacity {}",
            i,
            self.nodes.len()
        );
        if !self.nodes[i as usize].live {
            self.nodes[i as usize].live = true;
            self.len += 1;
            self.push_front(i);
            return Self::INFINITE;
        }
        // Walk from the head counting blocks above `block`.
        let mut cur = self.head;
        let mut depth = 0usize;
        let limit = self.max_walk;
        while cur != NIL && cur != i {
            depth += 1;
            if depth > limit {
                // Too deep: still promote to the top, but report overflow.
                self.unlink(i);
                self.push_front(i);
                return Self::INFINITE;
            }
            cur = self.nodes[cur as usize].next;
        }
        debug_assert_eq!(cur, i, "live block must be on the list");
        self.unlink(i);
        self.push_front(i);
        depth
    }

    /// The top `w` blocks in recency order (most recent first).
    pub fn top(&self, w: usize) -> Vec<BlockId> {
        let mut out = Vec::with_capacity(w.min(self.len));
        let mut cur = self.head;
        while cur != NIL && out.len() < w {
            out.push(BlockId(cur));
            cur = self.nodes[cur as usize].next;
        }
        out
    }

    /// Remove everything from the stack.
    pub fn clear(&mut self) {
        for n in &mut self.nodes {
            n.live = false;
            n.prev = NIL;
            n.next = NIL;
        }
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
    fn classic_mattson_distances() {
        // Trace a b c b a: distances inf inf inf 1 2.
        let mut s = NaiveLruStack::new(3);
        assert_eq!(s.access(b(0)), NaiveLruStack::INFINITE);
        assert_eq!(s.access(b(1)), NaiveLruStack::INFINITE);
        assert_eq!(s.access(b(2)), NaiveLruStack::INFINITE);
        assert_eq!(s.access(b(1)), 1);
        assert_eq!(s.access(b(0)), 2);
    }

    #[test]
    fn walk_bound_truncates_distance() {
        let mut s = NaiveLruStack::with_walk_bound(5, 2);
        for i in 0..5 {
            s.access(b(i));
        }
        assert_eq!(s.access(b(0)), NaiveLruStack::INFINITE);
        assert_eq!(s.top(1), vec![b(0)]);
        assert_eq!(s.access(b(4)), 1);
    }

    #[test]
    fn clear_resets() {
        let mut s = NaiveLruStack::new(3);
        s.access(b(0));
        s.access(b(1));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.access(b(1)), NaiveLruStack::INFINITE);
    }

    #[test]
    #[should_panic(expected = "beyond stack capacity")]
    fn out_of_capacity_panics() {
        let mut s = NaiveLruStack::new(2);
        s.access(b(2));
    }
}
