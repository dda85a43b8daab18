//! Next-line prefetching — the ingredient of the *HwLike* channel.
//!
//! The paper observes that hardware-counted miss-ratio reductions are
//! consistently smaller than simulated ones and attributes the gap to
//! hardware mechanisms such as prefetching (§III-C). Real front-ends run a
//! next-line (sequential) instruction prefetcher, which absorbs a large
//! share of the sequential-fetch misses that layout optimization also
//! targets — compressing the measured difference between layouts.
//!
//! [`NextLinePrefetchCache`] wraps [`SetAssocCache`] with that behaviour:
//! on a demand miss of line `L`, line `L + 1` is installed speculatively
//! (without counting as a demand access).

use crate::config::{CacheConfig, CacheStats, SetIndex};
use crate::icache::SetAssocCache;

/// A set-associative cache fronted by a next-line prefetcher.
#[derive(Clone, Debug)]
pub struct NextLinePrefetchCache {
    inner: SetAssocCache,
    /// Maps the demand and prefetch lines to their sets, once each.
    sets: SetIndex,
    /// Lines installed by the prefetcher so far.
    prefetches: u64,
}

impl NextLinePrefetchCache {
    /// An empty prefetching cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        NextLinePrefetchCache {
            inner: SetAssocCache::new(config),
            sets: SetIndex::new(config),
            prefetches: 0,
        }
    }

    /// Demand-access a line; on a miss, also install the next sequential
    /// line. Returns `true` on hit.
    pub fn access(&mut self, line: u64) -> bool {
        let hit = self.inner.access_in_set(self.sets.of(line), line);
        if !hit {
            let next = line + 1;
            self.inner.install_in_set(self.sets.of(next), next);
            self.prefetches += 1;
        }
        hit
    }

    /// Demand statistics (prefetches are not demand accesses).
    pub fn stats(&self) -> CacheStats {
        self.inner.stats()
    }

    /// Number of speculative installs issued.
    pub fn prefetch_count(&self) -> u64 {
        self.prefetches
    }

    /// Empty the cache and reset statistics.
    pub fn flush(&mut self) {
        self.inner.flush();
        self.prefetches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::new(512, 2, 64) // 4 sets × 2 ways
    }

    #[test]
    fn sequential_stream_mostly_hits() {
        // Pure sequential fetch: the prefetcher stays one line ahead, so
        // after the first miss every second line is already resident.
        let mut pf = NextLinePrefetchCache::new(cfg());
        let mut plain = SetAssocCache::new(cfg());
        let lines: Vec<u64> = (0..64).collect();
        for &l in &lines {
            pf.access(l);
            plain.access(l);
        }
        assert!(
            pf.stats().misses < plain.stats().misses,
            "prefetcher absorbs sequential misses: {} vs {}",
            pf.stats().misses,
            plain.stats().misses
        );
    }

    #[test]
    fn prefetch_not_counted_as_demand() {
        let mut pf = NextLinePrefetchCache::new(cfg());
        pf.access(0); // miss; installs 1
        assert_eq!(pf.stats().accesses, 1);
        assert_eq!(pf.prefetch_count(), 1);
        assert!(pf.access(1), "prefetched line hits");
        assert_eq!(pf.stats().accesses, 2);
    }

    #[test]
    fn random_stream_gains_little() {
        // A stride pattern defeats next-line prefetch: with stride 16 the
        // prefetched line 'L+1' is never the next demand line, so misses
        // match the plain cache.
        let mut pf = NextLinePrefetchCache::new(cfg());
        let mut plain = SetAssocCache::new(cfg());
        let lines: Vec<u64> = (0..32).map(|i| i * 16).collect();
        for &l in &lines {
            pf.access(l);
            plain.access(l);
        }
        assert_eq!(pf.stats().misses, plain.stats().misses);
    }

    #[test]
    fn flush_resets_everything() {
        let mut pf = NextLinePrefetchCache::new(cfg());
        pf.access(0);
        pf.flush();
        assert_eq!(pf.stats().accesses, 0);
        assert_eq!(pf.prefetch_count(), 0);
        assert!(!pf.access(1), "prefetch state gone after flush");
    }

    #[test]
    fn layout_differences_are_compressed() {
        // A "good" layout (tight loop that fits) vs a "bad" layout (a long
        // sequential sweep that capacity-misses): the plain cache sees a
        // large difference, the prefetching cache a smaller one because it
        // absorbs the bad layout's sequential misses — the paper's
        // hw-vs-simulated gap in miniature.
        let good: Vec<u64> = (0..256).map(|i| i % 8).collect();
        let bad: Vec<u64> = (0..256).map(|i| i % 64).collect();
        let plain_good = {
            let mut c = SetAssocCache::new(cfg());
            good.iter().for_each(|&l| {
                c.access(l);
            });
            c.stats().miss_ratio()
        };
        let plain_bad = {
            let mut c = SetAssocCache::new(cfg());
            bad.iter().for_each(|&l| {
                c.access(l);
            });
            c.stats().miss_ratio()
        };
        let pf_good = {
            let mut c = NextLinePrefetchCache::new(cfg());
            good.iter().for_each(|&l| {
                c.access(l);
            });
            c.stats().miss_ratio()
        };
        let pf_bad = {
            let mut c = NextLinePrefetchCache::new(cfg());
            bad.iter().for_each(|&l| {
                c.access(l);
            });
            c.stats().miss_ratio()
        };
        let plain_gap = plain_bad - plain_good;
        let pf_gap = pf_bad - pf_good;
        assert!(plain_gap > 0.0);
        assert!(
            pf_gap <= plain_gap,
            "prefetching compresses the layout gap: {} vs {}",
            pf_gap,
            plain_gap
        );
    }
}
