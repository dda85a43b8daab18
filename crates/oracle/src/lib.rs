//! Reference oracles for the workspace's tests and benchmarks.
//!
//! Each oracle is the paper's definition written out literally, simple
//! enough to be obviously right and far too slow to ship. The fast
//! implementations in the release crates are tested against them:
//!
//! * [`footprint_between`] — the windowed footprint `fp<a,b>` of
//!   Definition 2, by sorting the window;
//! * [`pair_threshold`] — the smallest `w` at which two blocks have
//!   w-window affinity (Definition 3), quadratic in the occurrence counts;
//! * [`NaiveLruStack`] — the walk-based LRU stack of §II-F, O(depth) per
//!   access.
//!
//! This crate is a dev-dependency only: no workspace crate may depend on
//! it through a normal dependency (CI checks `cargo tree -e normal`).

mod stack;

pub use stack::NaiveLruStack;

use clop_trace::{BlockId, TrimmedTrace};

/// The footprint `fp<a,b>` of the closed window between positions `from`
/// and `to` (inclusive): the number of distinct blocks occurring in it.
///
/// Positions may be given in either order. Panics if a position is out of
/// bounds.
pub fn footprint_between(trace: &TrimmedTrace, from: usize, to: usize) -> usize {
    let (lo, hi) = if from <= to { (from, to) } else { (to, from) };
    assert!(hi < trace.len(), "window endpoint out of bounds");
    let mut seen: Vec<BlockId> = trace.events()[lo..=hi].to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// The smallest `w` at which `x` and `y` have w-window affinity, or `None`
/// when no finite window works (one of them never occurs, or is the same
/// block).
///
/// This is `max` over occurrences of the `min` footprint to the other
/// block, symmetrized over both directions: every occurrence of either
/// block must have an occurrence of the other within the window.
pub fn pair_threshold(trace: &TrimmedTrace, x: BlockId, y: BlockId) -> Option<u32> {
    if x == y {
        return None;
    }
    let xs = trace.occurrences(x);
    let ys = trace.occurrences(y);
    if xs.is_empty() || ys.is_empty() {
        return None;
    }
    // Both occurrence lists are non-empty (checked above), so the inner
    // min and outer max always see at least one value; the saturating
    // defaults are never reached.
    let direction = |from: &[usize], to: &[usize]| -> u32 {
        from.iter()
            .map(|&i| {
                to.iter()
                    .map(|&j| footprint_between(trace, i, j) as u32)
                    .min()
                    .unwrap_or(u32::MAX)
            })
            .max()
            .unwrap_or(0)
    };
    Some(direction(&xs, &ys).max(direction(&ys, &xs)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BlockId {
        BlockId(i)
    }

    fn fig1() -> TrimmedTrace {
        TrimmedTrace::from_indices([1, 4, 2, 4, 2, 3, 5, 1, 4])
    }

    /// Paper §II-B example: in trace B1 B3 B2 B3 B4, fp<B1,B2> = 3.
    #[test]
    fn paper_footprint_example() {
        let t = TrimmedTrace::from_indices([1, 3, 2, 3, 4]);
        assert_eq!(footprint_between(&t, 0, 2), 3);
    }

    #[test]
    fn footprint_between_includes_endpoints() {
        let t = TrimmedTrace::from_indices([1, 2, 3]);
        assert_eq!(footprint_between(&t, 0, 2), 3);
        assert_eq!(footprint_between(&t, 0, 0), 1);
        assert_eq!(footprint_between(&t, 2, 0), 3); // order-insensitive
    }

    #[test]
    fn footprint_counts_distinct_not_length() {
        let t = TrimmedTrace::from_indices([1, 2, 1, 2, 1]);
        assert_eq!(footprint_between(&t, 0, 4), 2);
    }

    #[test]
    fn figure1_pair_thresholds() {
        let t = fig1();
        // Verified by hand against the paper's Figure 1(b).
        assert_eq!(pair_threshold(&t, b(3), b(5)), Some(2));
        assert_eq!(pair_threshold(&t, b(1), b(4)), Some(3));
        assert_eq!(pair_threshold(&t, b(2), b(3)), Some(3));
        assert_eq!(pair_threshold(&t, b(2), b(5)), Some(4));
        assert_eq!(pair_threshold(&t, b(1), b(2)), Some(4));
        assert_eq!(pair_threshold(&t, b(2), b(4)), Some(5));
    }

    #[test]
    fn threshold_is_symmetric() {
        let t = fig1();
        for x in 1..=5u32 {
            for y in 1..=5u32 {
                if x != y {
                    assert_eq!(
                        pair_threshold(&t, b(x), b(y)),
                        pair_threshold(&t, b(y), b(x))
                    );
                }
            }
        }
    }

    #[test]
    fn missing_block_has_no_threshold() {
        let t = fig1();
        assert_eq!(pair_threshold(&t, b(1), b(9)), None);
        assert_eq!(pair_threshold(&t, b(1), b(1)), None);
    }

    #[test]
    fn adjacent_pair_has_threshold_two() {
        // 7 and 8 strictly alternate → every occurrence adjacent.
        let t = TrimmedTrace::from_indices([7, 8, 7, 8, 7, 8]);
        assert_eq!(pair_threshold(&t, b(7), b(8)), Some(2));
    }
}
