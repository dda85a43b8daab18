//! Reuse-distance histograms and miss-ratio projection.
//!
//! A reuse-distance (LRU stack-distance) histogram summarizes a trace's
//! locality: the miss ratio of a fully-associative LRU cache of capacity `C`
//! is exactly the fraction of accesses with distance `>= C` (Mattson et
//! al.). The shared-cache composition of the paper (Eq 1) substitutes the
//! peer's footprint into the same inequality.

use crate::stack::LruStack;
use crate::stats::TraceStats;
use crate::trace::{BlockId, TrimmedTrace};

/// Histogram of LRU stack distances over a trace, with cold (first) accesses
/// counted separately as "infinite" distance.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReuseHistogram {
    /// `bins[d]` = number of accesses with stack distance exactly `d`.
    bins: Vec<u64>,
    /// Cold accesses (first touch of a block).
    cold: u64,
    /// Total accesses.
    total: u64,
}

impl ReuseHistogram {
    /// Measure the histogram of a trimmed trace.
    pub fn measure(trace: &TrimmedTrace) -> Self {
        Self::measure_indexed(&TraceStats::of(trace))
    }

    /// [`ReuseHistogram::measure`] over the index of the trace (built by
    /// [`TraceStats::of`]). Reuse distances do not depend on block names,
    /// so the stack runs over heat ranks, sized by the distinct-block
    /// count.
    pub fn measure_indexed(stats: &TraceStats) -> Self {
        let mut stack = LruStack::new(stats.num_distinct());
        let mut h = ReuseHistogram::default();
        for &r in stats.ranked_events() {
            let d = stack.access(BlockId(r));
            h.record(d);
        }
        h
    }

    /// Record a single distance observation.
    pub fn record(&mut self, distance: usize) {
        self.total += 1;
        if distance == LruStack::INFINITE {
            self.cold += 1;
        } else {
            if distance >= self.bins.len() {
                self.bins.resize(distance + 1, 0);
            }
            self.bins[distance] += 1;
        }
    }

    /// Record `count` observations of one distance at once — the bulk form
    /// used by synthetic (statically estimated) histograms, where one loop
    /// bound stands in for millions of identical observations.
    pub fn record_n(&mut self, distance: usize, count: u64) {
        if count == 0 {
            return;
        }
        self.total += count;
        if distance == LruStack::INFINITE {
            self.cold += count;
        } else {
            if distance >= self.bins.len() {
                self.bins.resize(distance + 1, 0);
            }
            self.bins[distance] += count;
        }
    }

    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Cold (first-touch) accesses.
    pub fn cold(&self) -> u64 {
        self.cold
    }

    /// Accesses with finite distance exactly `d`.
    pub fn count_at(&self, d: usize) -> u64 {
        self.bins.get(d).copied().unwrap_or(0)
    }

    /// The miss ratio of a fully-associative LRU cache holding `capacity`
    /// blocks: fraction of accesses with distance `>= capacity` (cold
    /// accesses always miss).
    pub fn miss_ratio(&self, capacity: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self.bins.iter().take(capacity).sum();
        1.0 - hits as f64 / self.total as f64
    }

    /// Mean finite reuse distance, or `None` when every access was cold.
    pub fn mean_distance(&self) -> Option<f64> {
        let finite: u64 = self.bins.iter().sum();
        if finite == 0 {
            return None;
        }
        let weighted: u64 = self
            .bins
            .iter()
            .enumerate()
            .map(|(d, &c)| d as u64 * c)
            .sum();
        Some(weighted as f64 / finite as f64)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &ReuseHistogram) {
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0);
        }
        for (d, &c) in other.bins.iter().enumerate() {
            self.bins[d] += c;
        }
        self.cold += other.cold;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_simple_trace() {
        // a b a: distances inf, inf, 1.
        let t = TrimmedTrace::from_indices([0, 1, 0]);
        let h = ReuseHistogram::measure(&t);
        assert_eq!(h.total(), 3);
        assert_eq!(h.cold(), 2);
        assert_eq!(h.count_at(1), 1);
    }

    #[test]
    fn miss_ratio_monotone_in_capacity() {
        let t = TrimmedTrace::from_indices([0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let h = ReuseHistogram::measure(&t);
        let mut prev = 1.0f64;
        for c in 1..6 {
            let m = h.miss_ratio(c);
            assert!(m <= prev + 1e-12, "capacity {}: {} > {}", c, m, prev);
            prev = m;
        }
    }

    #[test]
    fn cyclic_trace_misses_below_working_set() {
        // Cycle over 3 blocks: with capacity 2 every access misses under LRU;
        // with capacity 3 only the 3 cold accesses miss.
        let t = TrimmedTrace::from_indices([0, 1, 2, 0, 1, 2, 0, 1, 2]);
        let h = ReuseHistogram::measure(&t);
        assert!((h.miss_ratio(2) - 1.0).abs() < 1e-12);
        assert!((h.miss_ratio(3) - 3.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = ReuseHistogram::default();
        assert_eq!(h.miss_ratio(8), 0.0);
        assert_eq!(h.mean_distance(), None);
    }

    #[test]
    fn mean_distance() {
        let mut h = ReuseHistogram::default();
        h.record(1);
        h.record(3);
        h.record(LruStack::INFINITE);
        assert_eq!(h.mean_distance(), Some(2.0));
    }

    #[test]
    fn merge_adds_counts() {
        let t1 = TrimmedTrace::from_indices([0, 1, 0]);
        let t2 = TrimmedTrace::from_indices([2, 3, 2]);
        let mut a = ReuseHistogram::measure(&t1);
        let b = ReuseHistogram::measure(&t2);
        a.merge(&b);
        assert_eq!(a.total(), 6);
        assert_eq!(a.cold(), 4);
        assert_eq!(a.count_at(1), 2);
    }

    #[test]
    fn all_cold_miss_ratio_is_one() {
        let t = TrimmedTrace::from_indices([0, 1, 2, 3]);
        let h = ReuseHistogram::measure(&t);
        assert!((h.miss_ratio(100) - 1.0).abs() < 1e-12);
    }
}
