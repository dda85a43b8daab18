//! Solo and SMT co-run cache simulation — the *Simulated* channel.
//!
//! The paper's Pin-based simulator replays instruction fetch streams through
//! a model of the shared CMP L1 instruction cache without timing feedback.
//! We reproduce that: [`simulate_solo_lines`] replays one stream,
//! [`simulate_corun_lines`] replays two streams interleaved round-robin
//! (fine-grained SMT fetch), keeping per-thread statistics. The two
//! programs' lines are disambiguated by a per-thread tag bit well above any
//! realistic line index, modelling distinct physical address spaces.
//!
//! Beyond the paper's 2-thread SMT setup, [`simulate_corun_nway`] replays
//! any number of interleaved fetch streams through one shared cache and
//! additionally attributes every eviction to the tenant that caused it
//! ([`EvictionMatrix`], per set) — the measurement side of the N-peer
//! defensiveness/politeness generalization. [`naive`] holds the
//! straight-line reference simulators the fast paths are differentially
//! pinned against.

pub mod naive;

use crate::config::{CacheConfig, CacheStats, SetIndex};
use crate::icache::{SetAssocCache, BATCH_LINES};

/// Bit used to separate the two co-running address spaces. Line indices are
/// byte addresses divided by at least 16, so bit 58 is far out of reach.
const THREAD_TAG_SHIFT: u64 = 58;

/// Number of tenants the tag bits can keep apart (tenant ids occupy the
/// bits from [`THREAD_TAG_SHIFT`] up, so 63 − 58 = 5 bits → 32 tenants —
/// double the widest SMT the paper contemplates).
pub const MAX_TENANTS: usize = 1 << (63 - THREAD_TAG_SHIFT);

/// The tenant a tagged line belongs to (inverse of [`tag_line`]).
#[inline]
pub fn tenant_of_line(tagged: u64) -> usize {
    (tagged >> THREAD_TAG_SHIFT) as usize
}

/// Tag a line index with its owning thread so the physically-tagged shared
/// cache never aliases the two programs.
///
/// Invariant (checked unconditionally): `line` must stay below bit
/// [`THREAD_TAG_SHIFT`], i.e. below 2^58. Real line indices are byte
/// addresses divided by the line size, so a violation means a corrupted
/// stream — silently folding the tag into the index would alias the two
/// address spaces and quietly skew every co-run statistic.
#[inline]
pub fn tag_line(line: u64, thread: usize) -> u64 {
    assert!(
        line < (1 << THREAD_TAG_SHIFT),
        "line index {:#x} collides with the thread tag (bit {})",
        line,
        THREAD_TAG_SHIFT
    );
    assert!(
        thread < MAX_TENANTS,
        "tenant {} exceeds the {} address spaces the tag bits separate",
        thread,
        MAX_TENANTS
    );
    line | ((thread as u64) << THREAD_TAG_SHIFT)
}

/// An element of a fetch stream the replays read a cache line from: a
/// bare line index, or a timed `(line, exec_cycles)` fetch, so a timed
/// stream replays in place instead of through a copied line vector.
pub trait FetchLine: Copy {
    /// The cache line this fetch touches.
    fn line(self) -> u64;
}

impl FetchLine for u64 {
    #[inline]
    fn line(self) -> u64 {
        self
    }
}

impl FetchLine for (u64, u32) {
    #[inline]
    fn line(self) -> u64 {
        self.0
    }
}

/// Replay one fetch stream through a private cache; returns its stats.
/// Runs the batched probe kernel ([`SetAssocCache::access_batch`]) one
/// [`BATCH_LINES`] chunk of lines at a time — bit-identical to a
/// per-element `access` loop.
pub fn simulate_solo_lines<T: FetchLine>(stream: &[T], config: CacheConfig) -> CacheStats {
    let mut cache = SetAssocCache::new(config);
    let mut lines = Vec::with_capacity(stream.len().min(BATCH_LINES));
    for chunk in stream.chunks(BATCH_LINES) {
        lines.clear();
        lines.extend(chunk.iter().map(|f| f.line()));
        cache.access_batch(&lines);
    }
    cache.stats()
}

/// Result of a co-run cache simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CorunCacheResult {
    /// Per-thread statistics (thread 0, thread 1).
    pub per_thread: [CacheStats; 2],
}

impl CorunCacheResult {
    /// Combined statistics of both threads.
    pub fn combined(&self) -> CacheStats {
        let mut s = self.per_thread[0];
        s.merge(&self.per_thread[1]);
        s
    }
}

/// Round-robin interleave two fetch streams into (thread, line) pairs.
///
/// When one stream is exhausted the remainder of the other follows — the
/// shorter program has finished and the longer one runs alone, exactly as on
/// hardware.
pub fn interleave_round_robin(a: &[u64], b: &[u64]) -> Vec<(usize, u64)> {
    interleave_round_robin_iter(a, b).collect()
}

/// Iterator form of [`interleave_round_robin`]: yields the same `(thread,
/// line)` sequence without materializing an `a.len() + b.len()` vector.
/// Co-run simulation streams through this directly.
pub fn interleave_round_robin_iter<'a>(
    a: &'a [u64],
    b: &'a [u64],
) -> impl Iterator<Item = (usize, u64)> + 'a {
    InterleaveRoundRobin {
        a,
        b,
        i: 0,
        j: 0,
        // Thread 1 is next only when thread 0 has already fetched this
        // round; draining starts in thread-0 position.
        b_turn: false,
    }
}

struct InterleaveRoundRobin<'a> {
    a: &'a [u64],
    b: &'a [u64],
    i: usize,
    j: usize,
    b_turn: bool,
}

impl<'a> Iterator for InterleaveRoundRobin<'a> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        let a_left = self.i < self.a.len();
        let b_left = self.j < self.b.len();
        let pick_a = match (a_left, b_left) {
            (false, false) => return None,
            (true, false) => true,
            (false, true) => false,
            (true, true) => !self.b_turn,
        };
        if pick_a {
            let line = self.a[self.i];
            self.i += 1;
            self.b_turn = b_left;
            Some((0, line))
        } else {
            let line = self.b[self.j];
            self.j += 1;
            self.b_turn = false;
            Some((1, line))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.a.len() - self.i) + (self.b.len() - self.j);
        (n, Some(n))
    }
}

/// Replay two fetch streams through one shared cache with round-robin SMT
/// interleaving; returns per-thread statistics.
///
/// The interleave is materialized in [`BATCH_LINES`]-sized chunks of
/// tagged lines (with a parallel tenant column) and replayed through the
/// batched probe kernel; per-thread statistics are folded from the
/// per-element hit flags afterwards. Access order — and therefore every
/// hit/miss outcome — is exactly the scalar loop's.
pub fn simulate_corun_lines(a: &[u64], b: &[u64], config: CacheConfig) -> CorunCacheResult {
    let mut cache = SetAssocCache::new(config);
    let mut result = CorunCacheResult::default();
    let mut tagged: Vec<u64> = Vec::with_capacity(BATCH_LINES);
    let mut tenants: Vec<u8> = Vec::with_capacity(BATCH_LINES);
    let mut hits = [false; BATCH_LINES];
    let mut it = interleave_round_robin_iter(a, b);
    loop {
        tagged.clear();
        tenants.clear();
        for (thread, line) in it.by_ref().take(BATCH_LINES) {
            tenants.push(thread as u8);
            tagged.push(tag_line(line, thread));
        }
        if tagged.is_empty() {
            break;
        }
        let hits = &mut hits[..tagged.len()];
        cache.access_batch_hits(&tagged, hits);
        for (&t, &h) in tenants.iter().zip(hits.iter()) {
            result.per_thread[t as usize].record(h);
        }
    }
    result
}

/// Round-robin interleave of any number of fetch streams into `(tenant,
/// line)` pairs, as an iterator. Exhausted streams drop out of the
/// rotation; at two streams the order is exactly
/// [`interleave_round_robin_iter`]'s.
pub fn interleave_many_iter<'a, T: FetchLine>(
    streams: &'a [&'a [T]],
) -> impl Iterator<Item = (usize, u64)> + 'a {
    InterleaveMany {
        streams: streams.iter().map(|s| s.iter()).collect(),
        next_tenant: 0,
        remaining: streams.iter().map(|s| s.len()).sum(),
    }
}

struct InterleaveMany<'a, T> {
    /// Each tenant's unread fetches.
    streams: Vec<std::slice::Iter<'a, T>>,
    /// Tenant the rotation tries next (round position, not round count).
    next_tenant: usize,
    remaining: usize,
}

impl<T: FetchLine> Iterator for InterleaveMany<'_, T> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        if self.remaining == 0 {
            return None;
        }
        // Scan from the rotation position for the next live stream. The
        // scan wraps at most once because something is left to yield.
        let n = self.streams.len();
        let mut t = self.next_tenant;
        loop {
            let after = if t + 1 == n { 0 } else { t + 1 };
            if let Some(&fetch) = self.streams[t].next() {
                self.remaining -= 1;
                self.next_tenant = after;
                return Some((t, fetch.line()));
            }
            t = after;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Who evicted whom: `counts[victim][evictor]` evictions of a
/// `victim`-owned line caused by an access of `evictor`, in one shared
/// cache level. The diagonal is self-eviction (a tenant displacing its own
/// lines — capacity pressure of its own working set); off-diagonal mass is
/// the interference the paper's politeness metric is about.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EvictionMatrix {
    tenants: usize,
    /// Row-major `tenants × tenants` counts, victim-major.
    counts: Vec<u64>,
}

impl EvictionMatrix {
    /// An all-zero matrix for `tenants` address spaces.
    pub fn new(tenants: usize) -> Self {
        EvictionMatrix {
            tenants,
            counts: vec![0; tenants * tenants],
        }
    }

    /// Number of tenants (the matrix is square).
    pub fn tenants(&self) -> usize {
        self.tenants
    }

    /// Record that `evictor`'s access displaced a line owned by `victim`.
    #[inline]
    pub fn record(&mut self, victim: usize, evictor: usize) {
        self.counts[victim * self.tenants + evictor] += 1;
    }

    /// Evictions of `victim`-owned lines caused by `evictor`.
    pub fn count(&self, victim: usize, evictor: usize) -> u64 {
        self.counts[victim * self.tenants + evictor]
    }

    /// Total lines `victim` lost to anyone (row sum).
    pub fn suffered_by(&self, victim: usize) -> u64 {
        self.counts[victim * self.tenants..(victim + 1) * self.tenants]
            .iter()
            .sum()
    }

    /// Total lines `evictor` displaced from anyone (column sum).
    pub fn caused_by(&self, evictor: usize) -> u64 {
        (0..self.tenants)
            .map(|v| self.counts[v * self.tenants + evictor])
            .sum()
    }

    /// Lines `victim` lost to *other* tenants (row sum minus the
    /// diagonal) — the interference it suffered.
    pub fn suffered_from_peers(&self, victim: usize) -> u64 {
        self.suffered_by(victim) - self.count(victim, victim)
    }

    /// Grand total of evictions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Result of an N-way shared-cache co-run: per-tenant statistics plus
/// full eviction attribution, overall and per cache set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NwayCorunResult {
    /// Per-tenant hit/miss statistics, indexed by tenant.
    pub per_tenant: Vec<CacheStats>,
    /// Who evicted whom, across the whole cache.
    pub evictions: EvictionMatrix,
    /// Per-set eviction attribution: `evictions_by_set[set * tenants +
    /// victim]` lines the victim lost in that set (use
    /// [`NwayCorunResult::evictions_in_set`]).
    pub evictions_by_set: Vec<u64>,
}

impl NwayCorunResult {
    fn new(tenants: usize, sets: usize) -> Self {
        NwayCorunResult {
            per_tenant: vec![CacheStats::default(); tenants],
            evictions: EvictionMatrix::new(tenants),
            evictions_by_set: vec![0; sets * tenants],
        }
    }

    /// Lines `victim` lost in `set`.
    pub fn evictions_in_set(&self, set: usize, victim: usize) -> u64 {
        self.evictions_by_set[set * self.per_tenant.len() + victim]
    }

    /// Combined statistics of all tenants.
    pub fn combined(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for t in &self.per_tenant {
            s.merge(t);
        }
        s
    }
}

/// Replay N fetch streams through one shared cache with round-robin SMT
/// interleaving, attributing every eviction to the access that caused it.
///
/// The access order, hit/miss outcomes, and per-tenant statistics are
/// bit-identical to [`simulate_corun_lines`] at two streams and to the
/// per-access reference loop in [`naive`] at any width (pinned by property
/// tests); attribution is the new observable.
pub fn simulate_corun_nway<T: FetchLine>(streams: &[&[T]], config: CacheConfig) -> NwayCorunResult {
    let tenants = streams.len();
    let mut cache = SetAssocCache::new(config);
    let sets = SetIndex::new(config);
    let mut out = NwayCorunResult::new(tenants, config.num_sets() as usize);
    // Chunked batched replay: materialize the interleave (tagged-line +
    // tenant columns), run the reporting batch kernel, then fold stats and
    // eviction attribution from the per-element hit/victim columns. The
    // `u64::MAX` no-victim sentinel can never collide with a real victim:
    // tenant tags keep every tagged line below bit 63 (`tag_line` asserts
    // it).
    let mut tagged = [0u64; BATCH_LINES];
    let mut who = [0u8; BATCH_LINES];
    let mut hits = [false; BATCH_LINES];
    let mut evicted = [0u64; BATCH_LINES];
    let mut it = interleave_many_iter(streams);
    loop {
        let mut n = 0;
        while n < BATCH_LINES {
            let Some((t, line)) = it.next() else { break };
            who[n] = t as u8;
            tagged[n] = tag_line(line, t);
            n += 1;
        }
        if n == 0 {
            break;
        }
        cache.access_batch_reporting(&tagged[..n], &mut hits[..n], &mut evicted[..n]);
        for i in 0..n {
            let t = who[i] as usize;
            out.per_tenant[t].record(hits[i]);
            let victim_line = evicted[i];
            if victim_line != u64::MAX {
                let victim = tenant_of_line(victim_line);
                out.evictions.record(victim, t);
                out.evictions_by_set[sets.of(tagged[i]) * tenants + victim] += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::new(256, 2, 64) // 2 sets × 2 ways
    }

    #[test]
    fn wider_smt_inflates_misses_monotonically() {
        // Identical 3-line loops: each added thread adds capacity
        // pressure, so thread 0's miss ratio never improves with width.
        let stream: Vec<u64> = (0..300).map(|i| (i % 3) * 2).collect();
        let mut prev = 0.0;
        for width in [1usize, 2, 4, 8] {
            let streams: Vec<&[u64]> = (0..width).map(|_| stream.as_slice()).collect();
            let m = simulate_corun_nway(&streams, cfg()).per_tenant[0].miss_ratio();
            assert!(m >= prev - 1e-12, "width {}: {} < {}", width, m, prev);
            prev = m;
        }
    }

    #[test]
    fn nway_with_one_stream_is_solo() {
        let a: Vec<u64> = (0..100).map(|i| i % 7).collect();
        let nway = simulate_corun_nway(&[&a], cfg());
        assert_eq!(nway.per_tenant[0], simulate_solo_lines(&a, cfg()));
    }

    #[test]
    fn solo_loop_fits() {
        // 4-line loop in a 4-line cache: only cold misses.
        let lines: Vec<u64> = (0..40).map(|i| i % 4).collect();
        let s = simulate_solo_lines(&lines, cfg());
        assert_eq!(s.misses, 4);
        assert_eq!(s.accesses, 40);
    }

    #[test]
    fn interleave_alternates_then_drains() {
        let a = vec![10, 11, 12];
        let b = vec![20];
        let merged = interleave_round_robin(&a, &b);
        assert_eq!(merged, vec![(0, 10), (1, 20), (0, 11), (0, 12)]);
    }

    #[test]
    fn corun_inflates_misses_over_solo() {
        // Each thread loops over 2 lines mapping to the same set (set 0).
        // Solo: each fits easily. Co-run: 4 distinct tagged lines compete
        // for one 2-way set → thrashing.
        let a: Vec<u64> = (0..100).map(|i| (i % 2) * 2).collect(); // lines 0, 2 → set 0
        let b = a.clone();
        let solo = simulate_solo_lines(&a, cfg());
        let corun = simulate_corun_lines(&a, &b, cfg());
        assert!(corun.per_thread[0].miss_ratio() > solo.miss_ratio());
        assert!(corun.per_thread[1].miss_ratio() > solo.miss_ratio());
    }

    #[test]
    fn threads_do_not_alias() {
        // Same line index from both threads must occupy separate entries.
        let a = vec![0u64; 10];
        let b = vec![0u64; 10];
        let r = simulate_corun_lines(&a, &b, cfg());
        // Both threads get exactly one cold miss each (the set holds both).
        assert_eq!(r.per_thread[0].misses, 1);
        assert_eq!(r.per_thread[1].misses, 1);
    }

    #[test]
    fn per_thread_access_counts_preserved() {
        let a = vec![1u64, 2, 3];
        let b = vec![4u64, 5];
        let r = simulate_corun_lines(&a, &b, cfg());
        assert_eq!(r.per_thread[0].accesses, 3);
        assert_eq!(r.per_thread[1].accesses, 2);
        assert_eq!(r.combined().accesses, 5);
    }

    #[test]
    fn empty_peer_degenerates_to_solo() {
        let a: Vec<u64> = (0..50).map(|i| i % 3).collect();
        let solo = simulate_solo_lines(&a, cfg());
        let corun = simulate_corun_lines(&a, &[], cfg());
        assert_eq!(corun.per_thread[0], solo);
        assert_eq!(corun.per_thread[1], CacheStats::default());
    }

    #[test]
    fn tag_line_separates_spaces() {
        assert_ne!(tag_line(5, 0), tag_line(5, 1));
        assert_eq!(tag_line(5, 0), 5);
    }

    #[test]
    #[should_panic(expected = "collides with the thread tag")]
    fn tag_line_rejects_out_of_range_lines() {
        tag_line(1 << THREAD_TAG_SHIFT, 0);
    }

    #[test]
    fn iterator_interleave_matches_vec_interleave() {
        let cases: [(&[u64], &[u64]); 5] = [
            (&[1, 2, 3], &[10, 20]),
            (&[1], &[10, 20, 30, 40]),
            (&[], &[10, 20]),
            (&[1, 2], &[]),
            (&[], &[]),
        ];
        for (a, b) in cases {
            let vec_form = interleave_round_robin(a, b);
            let iter_form: Vec<(usize, u64)> = interleave_round_robin_iter(a, b).collect();
            assert_eq!(vec_form, iter_form, "a={:?} b={:?}", a, b);
        }
    }

    #[test]
    fn iterator_interleave_reports_exact_size() {
        let a = [1u64, 2, 3];
        let b = [10u64, 20];
        let mut it = interleave_round_robin_iter(&a, &b);
        assert_eq!(it.size_hint(), (5, Some(5)));
        it.next();
        assert_eq!(it.size_hint(), (4, Some(4)));
        assert_eq!(it.count(), 4);
    }

    #[test]
    fn corun_on_paper_cache_disjoint_sets_no_interference() {
        // Threads with disjoint set footprints shouldn't disturb each other.
        let cfgp = CacheConfig::paper_l1i(); // 128 sets, 4 ways
                                             // Thread A uses sets 0..32; thread B uses sets 64..96.
        let a: Vec<u64> = (0..2000).map(|i| i % 32).collect();
        let b: Vec<u64> = (0..2000).map(|i| 64 + i % 32).collect();
        let solo_a = simulate_solo_lines(&a, cfgp);
        let r = simulate_corun_lines(&a, &b, cfgp);
        assert_eq!(r.per_thread[0].misses, solo_a.misses);
    }
}
