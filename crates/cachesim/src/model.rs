//! The footprint-composition miss model and the formal definitions of
//! defensiveness and politeness (paper §II-A).
//!
//! The paper quantifies shared-cache interference with two metrics, reuse
//! distance (RD) and footprint (FP):
//!
//! ```text
//! P(self.miss) = P(self.RD + peer.FP ≥ C)            (composition)
//! P(self.miss) = P(self.FP + peer.FP ≥ C)            (Eq 1, HOTL substitution)
//! P(self.icache.miss) = P(self.FP.inst + peer.FP.inst ≥ C′)   (Eq 2)
//! ```
//!
//! For each access with reuse distance `d`, the time between the two uses is
//! the reuse window; the peer's footprint over that window is how much cache
//! the peer claimed meanwhile. The access misses in the shared cache of
//! capacity `C` when `d + peer.FP(window) ≥ C`. We estimate the window
//! length from the program's own footprint curve (its inverse maps "d
//! distinct blocks touched" back to a window length, with SMT fine-grained
//! interleaving giving both threads equal time).
//!
//! From the composed probabilities the paper's two optimization goals become
//! measurable:
//!
//! * **Defensiveness** — robustness against peer interference: how little
//!   *self's* miss probability grows when a peer is added.
//! * **Politeness** — how little *the peer's* miss probability grows when
//!   self is added (evaluate the model with the roles swapped).
//!
//! The paper states Eq 1 for a single co-running peer. The N-peer
//! generalization here composes `P(self.RD + Σ_p peer_p.FP ≥ C)`: over the
//! reuse window of each access, every peer's footprint is modelled as a
//! discrete random variable (its mean footprint split between the two
//! adjacent integer block counts) and the peers' distributions are
//! *convolved* into the distribution of their total claim
//! ([`PeerFootprintDist`]) — a Poisson-binomial composition rather than a
//! sum of means, so the tail probability `P(total ≥ C − d)` is smooth in
//! the number and size of peers. [`CompositionModel::corun_miss_probability_many`]
//! evaluates it; [`defensiveness_many`] / [`politeness_many`] generalize
//! the two scores, and `exp nway_validation` checks the prediction against
//! N-way simulation.

use clop_trace::footprint::FootprintCurve;
use clop_trace::{ReuseHistogram, TraceStats, TrimmedTrace};

/// The footprint-composition model for one program.
///
/// Holds the program's reuse-distance histogram and footprint curve, both in
/// units of code blocks (the paper approximates block size as 1).
#[derive(Clone, Debug)]
pub struct CompositionModel {
    reuse: ReuseHistogram,
    footprint: FootprintCurve,
}

impl CompositionModel {
    /// Build the model from a trimmed code-block trace. `max_window` bounds
    /// the footprint curve measurement (windows at least as long as the
    /// longest reuse of interest, typically a small multiple of the cache
    /// capacity in blocks).
    pub fn measure(trace: &TrimmedTrace, max_window: usize) -> Self {
        let index = TraceStats::of(trace);
        CompositionModel {
            reuse: ReuseHistogram::measure_indexed(&index),
            footprint: FootprintCurve::measure_sampled_indexed(&index, max_window),
        }
    }

    /// Build from already-measured components.
    pub fn from_parts(reuse: ReuseHistogram, footprint: FootprintCurve) -> Self {
        CompositionModel { reuse, footprint }
    }

    /// The program's reuse-distance histogram.
    pub fn reuse(&self) -> &ReuseHistogram {
        &self.reuse
    }

    /// The program's footprint curve.
    pub fn footprint(&self) -> &FootprintCurve {
        &self.footprint
    }

    /// Solo miss probability in a fully-associative LRU cache of `capacity`
    /// blocks: `P(RD ≥ C)`.
    pub fn solo_miss_probability(&self, capacity: usize) -> f64 {
        self.reuse.miss_ratio(capacity)
    }

    /// Co-run miss probability under Eq 1/Eq 2: for each access with reuse
    /// distance `d`, estimate the reuse window from self's footprint curve,
    /// charge the peer's footprint over that window, and count a miss when
    /// `d + peer.FP ≥ capacity`.
    ///
    /// `time_share` scales the peer's window: 1.0 for fine-grained SMT
    /// (both threads advance together), smaller if the peer runs slower.
    pub fn corun_miss_probability(
        &self,
        peer: &CompositionModel,
        capacity: usize,
        time_share: f64,
    ) -> f64 {
        if self.reuse.total() == 0 {
            return 0.0;
        }
        let mut misses = self.reuse.cold();
        for d in 0..capacity.max(1) {
            let n = self.reuse.count_at(d);
            if n == 0 {
                continue;
            }
            // Window length over which `d` distinct self blocks were touched.
            let window = self
                .footprint
                .inverse(d as f64)
                .unwrap_or(self.footprint.max_window());
            let peer_fp = peer.footprint.at(((window as f64) * time_share) as usize);
            if d as f64 + peer_fp >= capacity as f64 {
                misses += n;
            }
        }
        // Distances ≥ capacity always miss.
        let far: u64 = (capacity..)
            .take_while(|&d| self.reuse.count_at(d) > 0 || d < capacity + 4096)
            .map(|d| self.reuse.count_at(d))
            .sum();
        misses += far;
        misses as f64 / self.reuse.total() as f64
    }

    /// N-peer generalization of [`Self::corun_miss_probability`]: for each
    /// access with reuse distance `d`, convolve every peer's footprint over
    /// the reuse window into a [`PeerFootprintDist`] and charge the
    /// fractional miss mass `P(d + Σ_p peer_p.FP ≥ capacity)`.
    ///
    /// With zero peers the tail is always 0 for `d < capacity`, so the
    /// prediction reduces to the solo form (cold + far misses). With one
    /// peer the unit mass sits on the two integers adjacent to the peer's
    /// mean footprint, so the prediction brackets the legacy 0/1 rule.
    /// Adding a peer can only shift the total upward, so the prediction is
    /// monotone in the peer set.
    pub fn corun_miss_probability_many(
        &self,
        peers: &[&CompositionModel],
        capacity: usize,
        time_share: f64,
    ) -> f64 {
        if self.reuse.total() == 0 {
            return 0.0;
        }
        let mut misses = self.reuse.cold() as f64;
        for d in 0..capacity.max(1) {
            let n = self.reuse.count_at(d);
            if n == 0 {
                continue;
            }
            let window = self
                .footprint
                .inverse(d as f64)
                .unwrap_or(self.footprint.max_window());
            let dist = PeerFootprintDist::compose(peers, window, time_share);
            misses += n as f64 * dist.tail_at_least(capacity as f64 - d as f64);
        }
        // Distances ≥ capacity always miss, peers or not.
        let far: u64 = (capacity..)
            .take_while(|&d| self.reuse.count_at(d) > 0 || d < capacity + 4096)
            .map(|d| self.reuse.count_at(d))
            .sum();
        misses += far as f64;
        misses / self.reuse.total() as f64
    }
}

/// Discrete distribution of the combined footprint a set of peers claims
/// over one reuse window, in blocks.
///
/// Each peer's mean footprint `f` over the window is modelled as a two-point
/// random variable on `{⌊f⌋, ⌊f⌋+1}` with `P(⌊f⌋+1) = f − ⌊f⌋` — the
/// narrowest integer-valued variable with mean exactly `f`. Peers are taken
/// as independent, so their total is a Poisson-binomial shifted by
/// `base = Σ_p ⌊f_p⌋`: `probs[k] = P(total = base + k)` with `k ∈ 0..=N`.
#[derive(Clone, Debug)]
pub struct PeerFootprintDist {
    base: u64,
    probs: Vec<f64>,
}

impl PeerFootprintDist {
    /// Convolve the peers' footprints over a reuse window of `window`
    /// self-time accesses, each peer's window scaled by `time_share`
    /// (1.0 for fine-grained round-robin sharing).
    pub fn compose(peers: &[&CompositionModel], window: usize, time_share: f64) -> Self {
        let mut base = 0u64;
        let mut probs = vec![1.0f64];
        for peer in peers {
            let fp = peer.footprint.at(((window as f64) * time_share) as usize);
            let floor = fp.floor();
            let p = (fp - floor).clamp(0.0, 1.0);
            base += floor as u64;
            // Poisson-binomial step: new[k] = old[k]·(1−p) + old[k−1]·p.
            probs.push(0.0);
            for k in (0..probs.len()).rev() {
                let carry = if k > 0 { probs[k - 1] * p } else { 0.0 };
                probs[k] = probs[k] * (1.0 - p) + carry;
            }
        }
        PeerFootprintDist { base, probs }
    }

    /// Number of peers convolved in.
    pub fn peers(&self) -> usize {
        self.probs.len() - 1
    }

    /// Smallest value with nonzero probability (`Σ_p ⌊f_p⌋`).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Mean of the distribution — equal (up to rounding) to the sum of the
    /// peers' mean footprints.
    pub fn mean(&self) -> f64 {
        self.base as f64
            + self
                .probs
                .iter()
                .enumerate()
                .map(|(k, p)| k as f64 * p)
                .sum::<f64>()
    }

    /// Tail probability `P(total ≥ threshold)`.
    pub fn tail_at_least(&self, threshold: f64) -> f64 {
        let over = threshold - self.base as f64;
        if over <= 0.0 {
            return 1.0;
        }
        let k_min = over.ceil() as usize;
        self.probs.iter().skip(k_min).sum()
    }
}

/// Interference metrics between a program and a peer in a shared cache of a
/// given block capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InterferenceReport {
    /// Self's miss probability running alone.
    pub solo: f64,
    /// Self's miss probability co-running with the peer (Eq 1).
    pub corun: f64,
    /// Relative growth `corun / solo − 1` (0 when solo is 0 and corun is 0;
    /// infinite growth is reported as `corun` when solo is 0).
    pub sensitivity: f64,
}

impl InterferenceReport {
    /// Compose `subject` against `peer`.
    pub fn measure(subject: &CompositionModel, peer: &CompositionModel, capacity: usize) -> Self {
        let solo = subject.solo_miss_probability(capacity);
        let corun = subject.corun_miss_probability(peer, capacity, 1.0);
        let sensitivity = if solo > 0.0 {
            corun / solo - 1.0
        } else {
            corun
        };
        InterferenceReport {
            solo,
            corun,
            sensitivity,
        }
    }
}

/// Defensiveness of `subject` against `peer`: negated sensitivity, so larger
/// is better (a perfectly defensive program's miss probability does not grow
/// at all under co-run).
pub fn defensiveness(subject: &CompositionModel, peer: &CompositionModel, capacity: usize) -> f64 {
    -InterferenceReport::measure(subject, peer, capacity).sensitivity
}

/// Politeness of `subject` toward `peer`: how little the *peer* suffers from
/// co-running with the subject — negated peer sensitivity, larger is better.
pub fn politeness(subject: &CompositionModel, peer: &CompositionModel, capacity: usize) -> f64 {
    -InterferenceReport::measure(peer, subject, capacity).sensitivity
}

/// Interference metrics for a program co-running with N peers in a shared
/// cache of a given block capacity — the N-way generalization of
/// [`InterferenceReport`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NwayInterferenceReport {
    /// Self's miss probability running alone.
    pub solo: f64,
    /// Self's miss probability co-running with the whole peer group.
    pub corun: f64,
    /// Relative growth `corun / solo − 1` (as in [`InterferenceReport`]).
    pub sensitivity: f64,
    /// Number of peers composed against.
    pub peers: usize,
}

impl NwayInterferenceReport {
    /// Compose `subject` against the whole peer group.
    pub fn measure(
        subject: &CompositionModel,
        peers: &[&CompositionModel],
        capacity: usize,
    ) -> Self {
        let solo = subject.solo_miss_probability(capacity);
        let corun = subject.corun_miss_probability_many(peers, capacity, 1.0);
        let sensitivity = if solo > 0.0 {
            corun / solo - 1.0
        } else {
            corun
        };
        NwayInterferenceReport {
            solo,
            corun,
            sensitivity,
            peers: peers.len(),
        }
    }
}

/// Defensiveness of `subject` against a whole peer group: negated N-way
/// sensitivity, larger is better. With a single peer this is the N-way
/// analogue of [`defensiveness`].
pub fn defensiveness_many(
    subject: &CompositionModel,
    peers: &[&CompositionModel],
    capacity: usize,
) -> f64 {
    -NwayInterferenceReport::measure(subject, peers, capacity).sensitivity
}

/// Politeness of `subject` toward a peer group: the mean negated growth of
/// each peer's miss probability when the subject joins the rest of the
/// group. Zero for an empty group (joining nobody harms nobody).
pub fn politeness_many(
    subject: &CompositionModel,
    peers: &[&CompositionModel],
    capacity: usize,
) -> f64 {
    if peers.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0f64;
    for (i, peer) in peers.iter().enumerate() {
        let rest: Vec<&CompositionModel> = peers
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, m)| *m)
            .collect();
        let mut with_subject = rest.clone();
        with_subject.push(subject);
        let with = peer.corun_miss_probability_many(&with_subject, capacity, 1.0);
        let without = peer.corun_miss_probability_many(&rest, capacity, 1.0);
        acc += if without > 0.0 {
            with / without - 1.0
        } else {
            with
        };
    }
    -(acc / peers.len() as f64)
}

/// Convenience: the expected number of blocks by which an access with reuse
/// distance `d` overflows the shared cache, `max(0, d + peer.FP − C)`,
/// averaged over the reuse histogram. A smoother interference indicator than
/// the 0/1 miss count; used by ablation benches.
pub fn mean_overflow(subject: &CompositionModel, peer: &CompositionModel, capacity: usize) -> f64 {
    let total = subject.reuse.total();
    if total == 0 {
        return 0.0;
    }
    let mut acc = 0.0f64;
    let horizon = capacity + subject.footprint.total_distinct();
    for d in 0..horizon {
        let n = subject.reuse.count_at(d);
        if n == 0 {
            continue;
        }
        let window = subject
            .footprint
            .inverse(d as f64)
            .unwrap_or(subject.footprint.max_window());
        let peer_fp = peer.footprint.at(window);
        let overflow = (d as f64 + peer_fp - capacity as f64).max(0.0);
        acc += overflow * n as f64;
    }
    acc / total as f64
}

/// Helper: does this histogram indicate a "non-trivial" miss ratio at the
/// paper's threshold? The paper selects programs with solo icache miss
/// ratios around or above sjeng's (≈0.6%).
pub fn non_trivial(h: &ReuseHistogram, capacity: usize, threshold: f64) -> bool {
    h.miss_ratio(capacity) >= threshold
}

#[allow(unused_imports)]
use clop_trace::BlockId;

#[cfg(test)]
mod tests {
    use super::*;

    /// A cyclic trace over `n` blocks of length `len`.
    fn cyclic(n: u32, len: usize) -> TrimmedTrace {
        TrimmedTrace::from_indices((0..len).map(|i| (i as u32) % n))
    }

    #[test]
    fn solo_probability_matches_reuse_histogram() {
        let t = cyclic(8, 800);
        let m = CompositionModel::measure(&t, 64);
        // Capacity 8 holds the loop: only 8 cold misses.
        assert!((m.solo_miss_probability(8) - 8.0 / 800.0).abs() < 1e-12);
        // Capacity 4 thrashes: everything misses.
        assert!((m.solo_miss_probability(4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn corun_never_below_solo() {
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let b = CompositionModel::measure(&cyclic(12, 1200), 256);
        for cap in [8usize, 16, 24, 32, 64] {
            let solo = a.solo_miss_probability(cap);
            let corun = a.corun_miss_probability(&b, cap, 1.0);
            assert!(
                corun >= solo - 1e-9,
                "cap {}: corun {} < solo {}",
                cap,
                corun,
                solo
            );
        }
    }

    #[test]
    fn small_peer_means_small_interference() {
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let tiny_peer = CompositionModel::measure(&cyclic(1, 100), 256);
        let big_peer = CompositionModel::measure(&cyclic(64, 1600), 256);
        let cap = 32;
        let with_tiny = a.corun_miss_probability(&tiny_peer, cap, 1.0);
        let with_big = a.corun_miss_probability(&big_peer, cap, 1.0);
        assert!(
            with_tiny <= with_big + 1e-12,
            "tiny peer {} vs big peer {}",
            with_tiny,
            with_big
        );
    }

    #[test]
    fn shared_capacity_split_raises_misses() {
        // Two identical 16-block loops in a 24-block shared cache: each fits
        // alone, together they overflow → model predicts co-run misses.
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let b = CompositionModel::measure(&cyclic(16, 1600), 256);
        let solo = a.solo_miss_probability(24);
        let corun = a.corun_miss_probability(&b, 24, 1.0);
        assert!(solo < 0.02, "fits alone: {}", solo);
        assert!(corun > 0.5, "thrashes together: {}", corun);
    }

    #[test]
    fn interference_report_sensitivity() {
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let b = CompositionModel::measure(&cyclic(16, 1600), 256);
        let r = InterferenceReport::measure(&a, &b, 24);
        assert!(r.corun >= r.solo);
        assert!(r.sensitivity > 0.0);
    }

    #[test]
    fn defensiveness_and_politeness_signs() {
        let small = CompositionModel::measure(&cyclic(4, 400), 256);
        let large = CompositionModel::measure(&cyclic(20, 2000), 256);
        let cap = 22;
        // A small program is more defensive against a given peer than a
        // large one (its reuse distances are shorter).
        let d_small = defensiveness(&small, &large, cap);
        let d_large = defensiveness(&large, &large, cap);
        assert!(d_small >= d_large - 1e-9);
        // A small program is more polite than a large one toward the same
        // peer (its footprint claims less cache).
        let p_small = politeness(&small, &large, cap);
        let p_large = politeness(&large, &large, cap);
        assert!(p_small >= p_large - 1e-9);
    }

    #[test]
    fn time_share_scales_peer_window() {
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let b = CompositionModel::measure(&cyclic(16, 1600), 256);
        let cap = 24;
        let full = a.corun_miss_probability(&b, cap, 1.0);
        let none = a.corun_miss_probability(&b, cap, 0.0);
        assert!(none <= full);
        assert!((none - a.solo_miss_probability(cap)).abs() < 0.05);
    }

    #[test]
    fn mean_overflow_zero_when_fits() {
        let a = CompositionModel::measure(&cyclic(4, 400), 64);
        let b = CompositionModel::measure(&cyclic(4, 400), 64);
        assert_eq!(mean_overflow(&a, &b, 64), 0.0);
        // Reuse distance 3 plus peer footprint 3 overflows a 5-block cache.
        assert!(mean_overflow(&a, &b, 5) > 0.0);
    }

    #[test]
    fn non_trivial_threshold() {
        let h = ReuseHistogram::measure(&cyclic(8, 800));
        assert!(non_trivial(&h, 4, 0.006)); // thrash: ratio 1.0
        assert!(!non_trivial(&h, 8, 0.1)); // fits: only cold misses
    }

    #[test]
    fn peer_dist_is_a_probability_distribution() {
        let a = CompositionModel::measure(&cyclic(7, 700), 256);
        let b = CompositionModel::measure(&cyclic(13, 1300), 256);
        let c = CompositionModel::measure(&cyclic(3, 90), 256);
        for window in [0usize, 1, 5, 40, 200] {
            let dist = PeerFootprintDist::compose(&[&a, &b, &c], window, 1.0);
            assert_eq!(dist.peers(), 3);
            let total: f64 = dist.probs.iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-12,
                "window {}: Σp = {}",
                window,
                total
            );
            // Mean of the convolution equals the sum of the peer means.
            let expect: f64 = [&a, &b, &c].iter().map(|m| m.footprint().at(window)).sum();
            assert!(
                (dist.mean() - expect).abs() < 1e-9,
                "window {}: mean {} vs Σ fp {}",
                window,
                dist.mean(),
                expect
            );
        }
    }

    #[test]
    fn peer_dist_tail_is_monotone() {
        let a = CompositionModel::measure(&cyclic(9, 900), 256);
        let b = CompositionModel::measure(&cyclic(5, 500), 256);
        let dist = PeerFootprintDist::compose(&[&a, &b], 60, 1.0);
        assert_eq!(dist.tail_at_least(0.0), 1.0);
        assert_eq!(dist.tail_at_least(dist.base() as f64), 1.0);
        let mut prev = 1.0f64;
        for i in 0..40 {
            let t = dist.tail_at_least(i as f64 * 0.5);
            assert!(t <= prev + 1e-12, "tail not monotone at {}", i);
            prev = t;
        }
        // Beyond base + N the tail is exactly zero.
        assert_eq!(dist.tail_at_least((dist.base() + 3) as f64), 0.0);
    }

    #[test]
    fn zero_peers_reduces_to_solo_form() {
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let empty =
            CompositionModel::measure(&TrimmedTrace::from_indices(std::iter::empty::<u32>()), 16);
        for cap in [8usize, 16, 24, 32] {
            let many = a.corun_miss_probability_many(&[], cap, 1.0);
            // A zero-footprint peer is the legacy path's neutral element.
            let legacy = a.corun_miss_probability(&empty, cap, 1.0);
            assert!(
                (many - legacy).abs() < 1e-12,
                "cap {}: many(∅) {} vs legacy(empty peer) {}",
                cap,
                many,
                legacy
            );
        }
    }

    #[test]
    fn adding_peers_never_helps() {
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let b = CompositionModel::measure(&cyclic(10, 1000), 256);
        for cap in [16usize, 24, 32, 48] {
            let mut prev = a.corun_miss_probability_many(&[], cap, 1.0);
            for n in 1..=4usize {
                let peers: Vec<&CompositionModel> = (0..n).map(|_| &b).collect();
                let cur = a.corun_miss_probability_many(&peers, cap, 1.0);
                assert!(
                    cur >= prev - 1e-12,
                    "cap {}: {} peers {} < {} peers {}",
                    cap,
                    n,
                    cur,
                    n - 1,
                    prev
                );
                prev = cur;
            }
            assert!(prev <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn single_peer_tracks_legacy_form() {
        // The convolved single-peer prediction splits the unit mass across
        // the two integers adjacent to the peer's mean footprint; the
        // legacy rule puts it all on the mean. The two must agree closely.
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let b = CompositionModel::measure(&cyclic(12, 1200), 256);
        for cap in [16usize, 24, 32, 48] {
            let many = a.corun_miss_probability_many(&[&b], cap, 1.0);
            let legacy = a.corun_miss_probability(&b, cap, 1.0);
            assert!(
                (many - legacy).abs() < 0.05,
                "cap {}: many {} vs legacy {}",
                cap,
                many,
                legacy
            );
        }
    }

    #[test]
    fn nway_report_and_scores() {
        let a = CompositionModel::measure(&cyclic(16, 1600), 256);
        let b = CompositionModel::measure(&cyclic(16, 1600), 256);
        let r = NwayInterferenceReport::measure(&a, &[&b, &b, &b], 24);
        assert_eq!(r.peers, 3);
        assert!(r.corun >= r.solo);
        assert!(r.sensitivity > 0.0);
        assert!(defensiveness_many(&a, &[&b, &b, &b], 24) < 0.0);
        // One-peer group matches the pairwise defensiveness up to the
        // convolution's sub-block smoothing.
        let d1 = defensiveness_many(&a, &[&b], 512);
        let d_pair = defensiveness(&a, &b, 512);
        assert!((d1 - d_pair).abs() < 0.5);
    }

    #[test]
    fn politeness_many_prefers_small_subjects() {
        let small = CompositionModel::measure(&cyclic(4, 400), 256);
        let large = CompositionModel::measure(&cyclic(20, 2000), 256);
        let peer = CompositionModel::measure(&cyclic(12, 1200), 256);
        let group = [&peer, &peer, &peer];
        let p_small = politeness_many(&small, &group, 40);
        let p_large = politeness_many(&large, &group, 40);
        assert!(
            p_small >= p_large - 1e-9,
            "small {} vs large {}",
            p_small,
            p_large
        );
        assert_eq!(politeness_many(&small, &[], 40), 0.0);
    }

    #[test]
    fn empty_model_is_benign() {
        let empty =
            CompositionModel::measure(&TrimmedTrace::from_indices(std::iter::empty::<u32>()), 16);
        let other = CompositionModel::measure(&cyclic(4, 40), 16);
        assert_eq!(empty.solo_miss_probability(8), 0.0);
        assert_eq!(empty.corun_miss_probability(&other, 8, 1.0), 0.0);
    }
}
