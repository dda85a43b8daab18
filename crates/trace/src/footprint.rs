//! Windowed footprints over trimmed traces.
//!
//! Definition 2 of the paper: in a trimmed trace, any two occurrences form a
//! window, and the footprint `fp<a,b>` is the total amount of code occurring
//! in the window, *including* both endpoints. Following the paper, the size
//! of a code block is approximated by 1, so a footprint is the number of
//! distinct blocks in the closed window.
//!
//! This module provides the all-window *average* footprint curve `fp(w)` —
//! the average number of distinct blocks accessed over windows of length
//! `w` — which feeds the footprint-composition miss model (Eqs 1–2) in
//! `clop-cachesim`. The single-window `fp<a,b>` of the definition is a test
//! oracle (`clop_oracle::footprint_between`).

use crate::stats::TraceStats;
use crate::trace::TrimmedTrace;
use clop_util::pool::{default_jobs, parallel_map};

/// The average-footprint curve of a trimmed trace.
///
/// `fp(w)` is the average, over all length-`w` windows of the trace, of the
/// number of distinct blocks accessed in the window. It is non-decreasing and
/// concave in `w` (Xiang et al.'s footprint theory); the miss-probability
/// composition of the paper (Eq 1/Eq 2) evaluates `P(self.FP + peer.FP >= C)`
/// using exactly this curve.
#[derive(Clone, Debug, PartialEq)]
pub struct FootprintCurve {
    /// `values[w]` = average distinct blocks over all windows of length `w`;
    /// `values[0] = 0`. Lengths are in trace events.
    values: Vec<f64>,
    /// Number of distinct blocks in the whole trace (the curve's asymptote).
    total_distinct: usize,
}

/// The exact average footprint of all length-`w` windows of a trace given
/// as heat ranks over `nd` distinct blocks (`1 <= w <= events.len()`): one
/// sliding-window pass with per-block occurrence counts — the distinct
/// count changes only when a block enters from 0 or leaves to 0. O(N) per
/// call, no allocation beyond the counts.
fn average_window_footprint(events: &[u32], nd: usize, w: usize) -> f64 {
    let n = events.len();
    debug_assert!(w >= 1 && w <= n);
    let mut counts = vec![0u32; nd];
    let mut distinct = 0usize;
    let mut sum = 0u64;
    for (i, &e) in events.iter().enumerate() {
        let c = &mut counts[e as usize];
        if *c == 0 {
            distinct += 1;
        }
        *c += 1;
        if i + 1 >= w {
            sum += distinct as u64;
            let c = &mut counts[events[i + 1 - w] as usize];
            *c -= 1;
            if *c == 0 {
                distinct -= 1;
            }
        }
    }
    sum as f64 / (n - w + 1) as f64
}

/// Worker count for sharding `passes` O(N) window passes over a trace of
/// `events` events: inline below a small work threshold (thread spin-up
/// would dominate), the machine's parallelism above it. Each pass is pure
/// and results merge in input order, so the curve is bit-identical for any
/// worker count.
fn auto_jobs(events: usize, passes: usize) -> usize {
    if events.saturating_mul(passes) < 1 << 15 {
        1
    } else {
        default_jobs()
    }
}

/// The geometric window ladder 1, 2, 4, ..., `max_window` (always
/// including `max_window`; empty when it is 0).
fn ladder(max_window: usize) -> Vec<usize> {
    let mut ladder = Vec::new();
    let mut w = 1usize;
    while w < max_window {
        ladder.push(w);
        w = (w * 2).max(w + 1);
    }
    if max_window > 0 {
        ladder.push(max_window);
    }
    ladder
}

/// `values[0..=max_window]` through the points `pts` (ascending, distinct
/// windows >= 1): linear between neighbours, from `(0, 0)` up to the first
/// point, holding the last point after it.
fn interpolate(pts: &[(usize, f64)], max_window: usize) -> Vec<f64> {
    let mut values = vec![0.0; max_window + 1];
    let mut prev = (0usize, 0.0f64);
    let mut pi = 0usize;
    for (w, v) in values.iter_mut().enumerate().skip(1) {
        while pi < pts.len() && pts[pi].0 < w {
            prev = pts[pi];
            pi += 1;
        }
        if pi < pts.len() && pts[pi].0 == w {
            *v = pts[pi].1;
        } else if pi < pts.len() {
            let (x0, y0) = prev;
            let (x1, y1) = pts[pi];
            let t = (w - x0) as f64 / (x1 - x0) as f64;
            *v = y0 + t * (y1 - y0);
        } else {
            *v = prev.1;
        }
    }
    values
}

impl FootprintCurve {
    /// Compute the exact average footprint for every window length
    /// `1..=max_window` by a single sliding-window pass per length, with
    /// the per-length passes sharded over the worker pool.
    ///
    /// Cost is `O(max_window · N)` work; for the all-window curve of a long
    /// trace prefer [`FootprintCurve::measure_sampled`].
    pub fn measure(trace: &TrimmedTrace, max_window: usize) -> Self {
        Self::measure_jobs(trace, max_window, auto_jobs(trace.len(), max_window))
    }

    /// [`FootprintCurve::measure`] with an explicit worker count. The
    /// result is bit-identical for any `jobs` value (per-length passes are
    /// independent and merged in input order).
    pub fn measure_jobs(trace: &TrimmedTrace, max_window: usize, jobs: usize) -> Self {
        let windows = (1..=max_window).collect();
        Self::through(&TraceStats::of(trace), windows, max_window, jobs)
    }

    /// Approximate the curve by measuring only a geometric ladder of window
    /// lengths and interpolating linearly in between, with the ladder
    /// passes sharded over the worker pool. This is the practical variant
    /// used on multi-million-event traces.
    pub fn measure_sampled(trace: &TrimmedTrace, max_window: usize) -> Self {
        Self::measure_sampled_indexed(&TraceStats::of(trace), max_window)
    }

    /// [`FootprintCurve::measure_sampled`] over the index of the trace
    /// (built by [`TraceStats::of`]), for a caller that reads the index
    /// for another measurement too.
    pub fn measure_sampled_indexed(stats: &TraceStats, max_window: usize) -> Self {
        let ladder = ladder(max_window);
        let jobs = auto_jobs(stats.ranked_events().len(), ladder.len());
        Self::through(stats, ladder, max_window, jobs)
    }

    /// [`FootprintCurve::measure_sampled`] with an explicit worker count.
    /// The result is bit-identical for any `jobs` value.
    pub fn measure_sampled_jobs(trace: &TrimmedTrace, max_window: usize, jobs: usize) -> Self {
        Self::through(&TraceStats::of(trace), ladder(max_window), max_window, jobs)
    }

    /// The curve through the exact average footprints at `windows`
    /// (ascending, ending at `max_window`), one pass each over the ranked
    /// events, interpolated in between.
    fn through(stats: &TraceStats, windows: Vec<usize>, max_window: usize, jobs: usize) -> Self {
        let events = stats.ranked_events();
        let total_distinct = stats.num_distinct();
        if events.is_empty() {
            return FootprintCurve {
                values: vec![0.0; max_window + 1],
                total_distinct,
            };
        }
        let pts = parallel_map(jobs, windows, |_, w| {
            if w > events.len() {
                (w, total_distinct as f64)
            } else {
                (w, average_window_footprint(events, total_distinct, w))
            }
        });
        FootprintCurve {
            values: interpolate(&pts, max_window),
            total_distinct,
        }
    }

    /// Build a synthetic curve from sparse `(window, footprint)` anchor
    /// points — the constructor used by trace-free (static) locality
    /// analysis, where anchors come from loop working-set bounds instead
    /// of a measured trace.
    ///
    /// Anchors are sorted by window, clamped to `total_distinct`, made
    /// monotone by a running maximum (a valid footprint curve never
    /// decreases), and linearly interpolated onto `0..=max_window` exactly
    /// like the sampled measurement; windows past the last anchor hold its
    /// value (and [`FootprintCurve::at`] past `max_window` returns the
    /// asymptote). Degenerate inputs (no anchors, zero `max_window`)
    /// produce an all-asymptote curve.
    pub fn from_anchors(
        anchors: &[(usize, f64)],
        max_window: usize,
        total_distinct: usize,
    ) -> Self {
        let asymptote = total_distinct as f64;
        let mut pts: Vec<(usize, f64)> = anchors
            .iter()
            .filter(|(w, v)| *w >= 1 && v.is_finite() && *v >= 0.0)
            .map(|&(w, v)| (w, v.min(asymptote)))
            .collect();
        pts.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        pts.dedup_by_key(|p| p.0);
        let mut running = 1.0_f64.min(asymptote); // a 1-window sees >= 1 block
        for p in &mut pts {
            running = running.max(p.1);
            p.1 = running;
        }
        let mut values = interpolate(&pts, max_window);
        if pts.is_empty() {
            values[1..].fill(asymptote);
        }
        FootprintCurve {
            values,
            total_distinct,
        }
    }

    /// Average footprint at window length `w` (clamped to the asymptote for
    /// lengths beyond the measured range).
    pub fn at(&self, w: usize) -> f64 {
        if w < self.values.len() {
            self.values[w]
        } else {
            self.total_distinct as f64
        }
    }

    /// Largest measured window length.
    pub fn max_window(&self) -> usize {
        self.values.len().saturating_sub(1)
    }

    /// Distinct blocks in the entire trace (curve asymptote).
    pub fn total_distinct(&self) -> usize {
        self.total_distinct
    }

    /// The smallest window length whose average footprint reaches `target`,
    /// or `None` if the curve never does within the measured range. This is
    /// the inverse function used when composing Eq 1: "how much time does the
    /// program need to touch `target` blocks".
    pub fn inverse(&self, target: f64) -> Option<usize> {
        (1..self.values.len()).find(|&w| self.values[w] >= target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_anchor_curve_interpolates_and_inverts() {
        let c = FootprintCurve::from_anchors(&[(4, 8.0), (16, 8.0), (64, 32.0)], 128, 40);
        assert_eq!(c.at(0), 0.0);
        assert!((c.at(4) - 8.0).abs() < 1e-12);
        assert!((c.at(16) - 8.0).abs() < 1e-12);
        assert!((c.at(40) - 20.0).abs() < 1e-12); // halfway between anchors
        assert!((c.at(128) - 32.0).abs() < 1e-12); // holds the last anchor
        assert_eq!(c.at(4096), 40.0); // beyond measured range -> asymptote
        assert_eq!(c.inverse(8.0), Some(4));
        for w in 1..=128 {
            assert!(c.at(w) + 1e-12 >= c.at(w - 1), "must be non-decreasing");
        }
    }

    #[test]
    fn synthetic_anchor_curve_degenerate_inputs() {
        let c = FootprintCurve::from_anchors(&[], 8, 5);
        assert_eq!(c.at(1), 5.0);
        let c = FootprintCurve::from_anchors(&[(3, 100.0), (2, f64::NAN), (0, 7.0)], 8, 6);
        assert!((c.at(3) - 6.0).abs() < 1e-12); // clamped to the asymptote
        assert!(c.at(1) >= 1.0);
        let c = FootprintCurve::from_anchors(&[(1, 3.0)], 0, 9);
        assert_eq!(c.max_window(), 0);
    }

    #[test]
    fn curve_monotone_nondecreasing() {
        let t = TrimmedTrace::from_indices([1, 4, 2, 4, 2, 3, 5, 1, 4]);
        let c = FootprintCurve::measure(&t, 9);
        for w in 1..9 {
            assert!(
                c.at(w + 1) >= c.at(w) - 1e-12,
                "fp({}) = {} > fp({}) = {}",
                w,
                c.at(w),
                w + 1,
                c.at(w + 1)
            );
        }
    }

    #[test]
    fn curve_window_one_is_one() {
        // Every length-1 window holds exactly one distinct block.
        let t = TrimmedTrace::from_indices([1, 2, 3, 1]);
        let c = FootprintCurve::measure(&t, 2);
        assert!((c.at(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn curve_full_window_is_total_distinct() {
        let t = TrimmedTrace::from_indices([1, 2, 3, 1, 2]);
        let c = FootprintCurve::measure(&t, 5);
        assert!((c.at(5) - 3.0).abs() < 1e-12);
        assert_eq!(c.total_distinct(), 3);
        // Beyond measured range clamps to asymptote.
        assert!((c.at(100) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn curve_inverse() {
        let t = TrimmedTrace::from_indices([1, 2, 3, 4, 5]);
        let c = FootprintCurve::measure(&t, 5);
        assert_eq!(c.inverse(3.0), Some(3));
        assert_eq!(c.inverse(6.0), None);
    }

    #[test]
    fn sampled_matches_exact_on_ladder_points() {
        let ids: Vec<u32> = (0..200).map(|i| (i * 7 % 23) as u32).collect();
        let t = TrimmedTrace::from_indices(ids);
        let exact = FootprintCurve::measure(&t, 64);
        let sampled = FootprintCurve::measure_sampled(&t, 64);
        for w in [1usize, 2, 4, 8, 16, 32, 64] {
            assert!(
                (exact.at(w) - sampled.at(w)).abs() < 1e-9,
                "w={}: {} vs {}",
                w,
                exact.at(w),
                sampled.at(w)
            );
        }
        // Interpolated points are within the bracketing exact values.
        for w in 2..64 {
            assert!(sampled.at(w) <= exact.at(64) + 1e-9);
            assert!(sampled.at(w) >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn empty_trace_curve() {
        let t = TrimmedTrace::from_indices(std::iter::empty::<u32>());
        let c = FootprintCurve::measure(&t, 4);
        assert_eq!(c.at(1), 0.0);
        assert_eq!(c.total_distinct(), 0);
    }
}
