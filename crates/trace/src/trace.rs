//! Trace representation and the trimming invariant of Definition 1.
//! Per-block statistics live in the trace index, [`crate::TraceStats`].

use std::fmt;

/// Index of a code block (a basic block or a function, depending on the
/// granularity of the trace). The instrumentation phase assigns indices via a
/// [`crate::BlockMap`]; analyses only ever see `BlockId`s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The raw index (ids from the wire can be any `u32`).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl From<u32> for BlockId {
    fn from(v: u32) -> Self {
        BlockId(v)
    }
}

/// A raw (possibly untrimmed) code-block trace in execution order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<BlockId>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from raw indices.
    pub fn from_indices<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Trace {
            events: ids.into_iter().map(BlockId).collect(),
        }
    }

    /// Record one block execution.
    #[inline]
    pub fn push(&mut self, id: BlockId) {
        self.events.push(id);
    }

    /// Number of recorded events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event was recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The raw events.
    #[inline]
    pub fn events(&self) -> &[BlockId] {
        &self.events
    }

    /// Collapse consecutive duplicates, producing the trimmed trace of
    /// Definition 1 ("no two consecutive blocks are the same").
    pub fn trim(&self) -> TrimmedTrace {
        let mut out = Vec::with_capacity(self.events.len());
        for &e in &self.events {
            if out.last() != Some(&e) {
                out.push(e);
            }
        }
        TrimmedTrace { events: out }
    }
}

impl FromIterator<BlockId> for Trace {
    fn from_iter<T: IntoIterator<Item = BlockId>>(iter: T) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

/// A trimmed basic-block or function trace (Definition 1): a sequence of
/// code blocks in which no two consecutive entries are equal.
///
/// Both locality models (w-window affinity and TRG) are defined over trimmed
/// traces, so the invariant is enforced by construction: the only ways to
/// obtain a `TrimmedTrace` are [`Trace::trim`] and
/// [`TrimmedTrace::from_events`] (which trims on the fly).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrimmedTrace {
    events: Vec<BlockId>,
}

impl TrimmedTrace {
    /// Build a trimmed trace from raw events, collapsing consecutive
    /// duplicates on the fly.
    pub fn from_events<I: IntoIterator<Item = BlockId>>(events: I) -> Self {
        let mut out = Vec::new();
        for e in events {
            if out.last() != Some(&e) {
                out.push(e);
            }
        }
        TrimmedTrace { events: out }
    }

    /// Convenience: build from raw `u32` indices.
    pub fn from_indices<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::from_events(ids.into_iter().map(BlockId))
    }

    /// The trace events. Guaranteed free of consecutive duplicates.
    #[inline]
    pub fn events(&self) -> &[BlockId] {
        &self.events
    }

    /// Trace length (number of trimmed events), the `N` of the paper's
    /// complexity analyses.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace holds no event.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate over events.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.events.iter().copied()
    }

    /// All positions at which `block` occurs, in increasing order.
    pub fn occurrences(&self, block: BlockId) -> Vec<usize> {
        self.events
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == block).then_some(i))
            .collect()
    }
}

impl<'a> IntoIterator for &'a TrimmedTrace {
    type Item = BlockId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, BlockId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    #[test]
    fn trim_collapses_consecutive_duplicates() {
        let t = Trace::from_indices([1, 1, 2, 2, 2, 3, 1, 1]);
        let tt = t.trim();
        assert_eq!(tt.events(), &[b(1), b(2), b(3), b(1)]);
    }

    #[test]
    fn trim_of_empty_is_empty() {
        assert!(Trace::new().trim().is_empty());
    }

    #[test]
    fn trim_is_idempotent() {
        let tt = TrimmedTrace::from_indices([1, 2, 1, 3]);
        let again = TrimmedTrace::from_events(tt.iter());
        assert_eq!(tt, again);
    }

    #[test]
    fn from_events_trims_on_the_fly() {
        let tt = TrimmedTrace::from_indices([5, 5, 5]);
        assert_eq!(tt.len(), 1);
    }

    #[test]
    fn no_consecutive_duplicates_invariant() {
        let tt = TrimmedTrace::from_indices([1, 2, 2, 3, 3, 3, 2, 1, 1]);
        for w in tt.events().windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn occurrences_positions() {
        // Paper Figure 1(a) trace: B1 B4 B2 B4 B2 B3 B5 B1 B4.
        let tt = TrimmedTrace::from_indices([1, 4, 2, 4, 2, 3, 5, 1, 4]);
        assert_eq!(tt.occurrences(b(4)), vec![1, 3, 8]);
        assert_eq!(tt.occurrences(b(5)), vec![6]);
        assert_eq!(tt.occurrences(b(9)), Vec::<usize>::new());
    }

    #[test]
    fn non_adjacent_duplicates_survive_trimming() {
        let tt = TrimmedTrace::from_indices([1, 2, 1, 2, 1]);
        assert_eq!(tt.len(), 5);
    }

    #[test]
    fn push_and_len() {
        let mut t = Trace::new();
        assert!(t.is_empty());
        t.push(b(7));
        t.push(b(7));
        assert_eq!(t.len(), 2);
        assert_eq!(t.events(), &[b(7), b(7)]);
    }
}
