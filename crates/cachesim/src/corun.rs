//! Solo and SMT co-run cache simulation — the *Simulated* channel.
//!
//! The paper's Pin-based simulator replays instruction fetch streams through
//! a model of the shared CMP L1 instruction cache without timing feedback.
//! We reproduce that: [`simulate_solo_lines`] replays one stream, and
//! [`simulate_corun_nway`] replays any number of streams interleaved
//! round-robin (fine-grained SMT fetch) through one shared cache, keeping
//! per-tenant statistics. Two streams are the paper's 2-thread SMT setup;
//! wider fleets are the N-peer generalization of defensiveness and
//! politeness. The tenants' lines are disambiguated by tag bits well above
//! any realistic line index, modelling distinct physical address spaces.

use crate::config::{CacheConfig, CacheStats};
use crate::icache::{SetAssocCache, BATCH_LINES};

/// Lowest bit of the tenant id that separates co-running address spaces.
/// Line indices are byte addresses divided by at least 16, so bit 58 is
/// far out of reach.
const THREAD_TAG_SHIFT: u64 = 58;

/// Number of tenants the tag bits can keep apart (tenant ids occupy the
/// bits from [`THREAD_TAG_SHIFT`] up, so 63 − 58 = 5 bits → 32 tenants —
/// double the widest SMT the paper contemplates).
pub const MAX_TENANTS: usize = 1 << (63 - THREAD_TAG_SHIFT);

/// Tag a line index with its owning thread so the physically-tagged shared
/// cache never aliases co-running programs.
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

/// Round-robin interleave of any number of fetch streams into `(tenant,
/// line)` pairs, as an iterator. Exhausted streams drop out of the
/// rotation: when the shorter program has finished, the longer one runs
/// alone, exactly as on hardware.
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

/// Result of an N-way shared-cache co-run: per-tenant statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NwayCorunResult {
    /// Per-tenant hit/miss statistics, indexed by tenant.
    pub per_tenant: Vec<CacheStats>,
}

impl NwayCorunResult {
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
/// interleaving; returns per-tenant statistics.
///
/// The access order, hit/miss outcomes, and per-tenant statistics are
/// bit-identical to a per-access reference loop at any width (pinned by
/// the differential suite in `tests/nway.rs`).
pub fn simulate_corun_nway<T: FetchLine>(streams: &[&[T]], config: CacheConfig) -> NwayCorunResult {
    let mut cache = SetAssocCache::new(config);
    let mut per_tenant = vec![CacheStats::default(); streams.len()];
    // Chunked batched replay: materialize the interleave (tagged-line +
    // tenant columns), run the batch kernel, then fold per-tenant stats
    // from the per-element hit column.
    let mut tagged = [0u64; BATCH_LINES];
    let mut who = [0u8; BATCH_LINES];
    let mut hits = [false; BATCH_LINES];
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
        cache.access_batch_hits(&tagged[..n], &mut hits[..n]);
        for (&t, &hit) in who[..n].iter().zip(&hits[..n]) {
            per_tenant[t as usize].record(hit);
        }
    }
    NwayCorunResult { per_tenant }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::new(256, 2, 64) // 2 sets × 2 ways
    }

    /// Per-tenant statistics of a two-stream co-run.
    fn pair(a: &[u64], b: &[u64], config: CacheConfig) -> Vec<CacheStats> {
        simulate_corun_nway(&[a, b], config).per_tenant
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
        let a = [10u64, 11, 12];
        let b = [20u64];
        let merged: Vec<(usize, u64)> = interleave_many_iter(&[&a[..], &b[..]]).collect();
        assert_eq!(merged, vec![(0, 10), (1, 20), (0, 11), (0, 12)]);
    }

    #[test]
    fn corun_inflates_misses_over_solo() {
        // Each thread loops over 2 lines mapping to the same set (set 0).
        // Solo: each fits easily. Co-run: 4 distinct tagged lines compete
        // for one 2-way set → thrashing.
        let a: Vec<u64> = (0..100).map(|i| (i % 2) * 2).collect(); // lines 0, 2 → set 0
        let solo = simulate_solo_lines(&a, cfg());
        let corun = pair(&a, &a, cfg());
        assert!(corun[0].miss_ratio() > solo.miss_ratio());
        assert!(corun[1].miss_ratio() > solo.miss_ratio());
    }

    #[test]
    fn threads_do_not_alias() {
        // Same line index from both threads must occupy separate entries.
        let a = vec![0u64; 10];
        let r = pair(&a, &a, cfg());
        // Both threads get exactly one cold miss each (the set holds both).
        assert_eq!(r[0].misses, 1);
        assert_eq!(r[1].misses, 1);
    }

    #[test]
    fn per_thread_access_counts_preserved() {
        let r = simulate_corun_nway(&[&[1u64, 2, 3][..], &[4, 5]], cfg());
        assert_eq!(r.per_tenant[0].accesses, 3);
        assert_eq!(r.per_tenant[1].accesses, 2);
        assert_eq!(r.combined().accesses, 5);
    }

    #[test]
    fn empty_peer_degenerates_to_solo() {
        let a: Vec<u64> = (0..50).map(|i| i % 3).collect();
        let solo = simulate_solo_lines(&a, cfg());
        let corun = pair(&a, &[], cfg());
        assert_eq!(corun[0], solo);
        assert_eq!(corun[1], CacheStats::default());
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
    fn iterator_interleave_reports_exact_size() {
        let a = [1u64, 2, 3];
        let b = [10u64, 20];
        let streams = [&a[..], &b[..]];
        let mut it = interleave_many_iter(&streams);
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
        let r = pair(&a, &b, cfgp);
        assert_eq!(r[0].misses, solo_a.misses);
    }
}
