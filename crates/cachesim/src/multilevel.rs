//! Two-level cache hierarchy: private L1 instruction caches backed by a
//! shared, unified L2.
//!
//! The paper evaluates "in a multi-core, multi-level memory hierarchy"
//! (§I, contribution 4): on its Xeon testbed each hyper-thread pair shares
//! the L1I, and all code misses land in a unified L2/L3 shared with data.
//! [`TwoLevelCache`] models the instruction-side view of that hierarchy:
//! an access can hit L1 (cheap), miss L1 but hit the shared L2 (the common
//! case the paper's optimization targets), or miss both (cold/capacity in
//! L2). The co-run variant gives each thread its own L1 while both share
//! the L2 — so a polite program also saves its peer's L2 space, the effect
//! behind the paper's remark that without L1 contention "there is no
//! further improvement in the unified cache in the lower levels."
//!
//! [`NwaySharedL2`] generalizes the co-run form to N tenants on an
//! *inclusive* shared L2: each tenant owns a private L1I; every L2
//! eviction back-invalidates the victim line from its owner's L1 (the
//! inclusion invariant every access preserves, checkable with
//! [`NwaySharedL2::check_inclusion`]); and every L2 eviction is attributed
//! to the tenant whose access caused it, per set. This is the simulated
//! channel the N-peer defensiveness/politeness model is validated against
//! (`exp nway_validation`).

use crate::config::{CacheConfig, CacheStats};
use crate::corun::{interleave_many_iter, tag_line, tenant_of_line, EvictionMatrix};
use crate::icache::SetAssocCache;

/// Where an access was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// Hit in the private L1.
    L1,
    /// Missed L1, hit the shared L2.
    L2,
    /// Missed both (served from memory).
    Memory,
}

/// Per-level statistics of one thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses issued by the thread.
    pub accesses: u64,
    /// L1 misses (= L2 accesses).
    pub l1_misses: u64,
    /// L2 misses (= memory accesses).
    pub l2_misses: u64,
}

impl LevelStats {
    /// L1 miss ratio.
    pub fn l1_miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.accesses as f64
        }
    }

    /// Local L2 miss ratio (misses per L2 access).
    pub fn l2_local_miss_ratio(&self) -> f64 {
        if self.l1_misses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l1_misses as f64
        }
    }

    /// The L1 view as plain [`CacheStats`].
    pub fn l1(&self) -> CacheStats {
        CacheStats {
            accesses: self.accesses,
            misses: self.l1_misses,
        }
    }
}

/// A private L1 in front of a (possibly shared) L2.
#[derive(Clone, Debug)]
pub struct TwoLevelCache {
    l1: SetAssocCache,
    l2: SetAssocCache,
    stats: LevelStats,
}

impl TwoLevelCache {
    /// Build with explicit geometries. The paper-shaped default is
    /// [`TwoLevelCache::paper`].
    pub fn new(l1: CacheConfig, l2: CacheConfig) -> Self {
        TwoLevelCache {
            l1: SetAssocCache::new(l1),
            l2: SetAssocCache::new(l2),
            stats: LevelStats::default(),
        }
    }

    /// The paper's testbed shape: 32 KB / 4-way L1I over a 256 KB / 8-way
    /// unified L2 (per-core, Nehalem-style).
    pub fn paper() -> Self {
        Self::new(
            CacheConfig::paper_l1i(),
            CacheConfig::new(256 * 1024, 8, 64),
        )
    }

    /// Access a line; returns the serving level. Inclusive fill: misses
    /// install into both levels.
    pub fn access(&mut self, line: u64) -> Level {
        self.stats.accesses += 1;
        if self.l1.access(line) {
            return Level::L1;
        }
        self.stats.l1_misses += 1;
        if self.l2.access(line) {
            return Level::L2;
        }
        self.stats.l2_misses += 1;
        Level::Memory
    }

    /// Per-level statistics so far.
    pub fn stats(&self) -> LevelStats {
        self.stats
    }
}

/// Result of a two-level co-run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TwoLevelCorun {
    /// Per-thread statistics.
    pub per_thread: [LevelStats; 2],
}

/// Replay two fetch streams with private L1s and a shared unified L2,
/// round-robin interleaved.
pub fn simulate_two_level_corun(
    a: &[u64],
    b: &[u64],
    l1: CacheConfig,
    l2: CacheConfig,
) -> TwoLevelCorun {
    let mut l1s = [SetAssocCache::new(l1), SetAssocCache::new(l1)];
    let mut shared_l2 = SetAssocCache::new(l2);
    let mut out = TwoLevelCorun::default();
    for (thread, line) in crate::corun::interleave_round_robin(a, b) {
        let tagged = tag_line(line, thread);
        let st = &mut out.per_thread[thread];
        st.accesses += 1;
        if l1s[thread].access(tagged) {
            continue;
        }
        st.l1_misses += 1;
        if !shared_l2.access(tagged) {
            st.l2_misses += 1;
        }
    }
    out
}

impl LevelStats {
    /// Merge another tenant's per-level statistics into this one.
    pub fn merge(&mut self, other: &LevelStats) {
        self.accesses += other.accesses;
        self.l1_misses += other.l1_misses;
        self.l2_misses += other.l2_misses;
    }
}

/// Result of an N-tenant inclusive two-level co-run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NwayTwoLevelResult {
    /// Per-tenant per-level statistics, indexed by tenant.
    pub per_tenant: Vec<LevelStats>,
    /// Who evicted whom in the shared L2.
    pub l2_evictions: EvictionMatrix,
    /// Per-set L2 eviction attribution: `[set * tenants + victim]` lines
    /// the victim lost in that L2 set (use
    /// [`NwayTwoLevelResult::l2_evictions_in_set`]).
    pub l2_evictions_by_set: Vec<u64>,
    /// Back-invalidations the inclusive L2 sent into each tenant's L1
    /// (only evictions whose victim line was actually L1-resident count).
    pub back_invalidations: Vec<u64>,
}

impl NwayTwoLevelResult {
    /// L2 lines `victim` lost in `set`.
    pub fn l2_evictions_in_set(&self, set: usize, victim: usize) -> u64 {
        self.l2_evictions_by_set[set * self.per_tenant.len() + victim]
    }

    /// Combined statistics of all tenants.
    pub fn combined(&self) -> LevelStats {
        let mut s = LevelStats::default();
        for t in &self.per_tenant {
            s.merge(t);
        }
        s
    }
}

/// N private L1 instruction caches over one shared, inclusive L2 with
/// per-tenant eviction attribution. Step it access-by-access with
/// [`NwaySharedL2::access`], or replay whole streams with
/// [`simulate_nway_shared_l2`].
#[derive(Clone, Debug)]
pub struct NwaySharedL2 {
    l1s: Vec<SetAssocCache>,
    l2: SetAssocCache,
    l2_config: CacheConfig,
    stats: Vec<LevelStats>,
    l2_evictions: EvictionMatrix,
    l2_evictions_by_set: Vec<u64>,
    back_invalidations: Vec<u64>,
}

impl NwaySharedL2 {
    /// Build for `tenants` address spaces with the given geometries.
    pub fn new(tenants: usize, l1: CacheConfig, l2: CacheConfig) -> Self {
        NwaySharedL2 {
            l1s: (0..tenants).map(|_| SetAssocCache::new(l1)).collect(),
            l2: SetAssocCache::new(l2),
            l2_config: l2,
            stats: vec![LevelStats::default(); tenants],
            l2_evictions: EvictionMatrix::new(tenants),
            l2_evictions_by_set: vec![0; l2.num_sets() as usize * tenants],
            back_invalidations: vec![0; tenants],
        }
    }

    /// Number of tenants.
    pub fn tenants(&self) -> usize {
        self.l1s.len()
    }

    /// One fetch by `tenant` of (untagged) `line`; returns the serving
    /// level. A miss in the shared L2 installs the line in both levels and
    /// back-invalidates the L2 victim, if any, from its owner's L1 — so the
    /// inclusion invariant holds again by the time this returns.
    pub fn access(&mut self, tenant: usize, line: u64) -> Level {
        let tagged = tag_line(line, tenant);
        let st = &mut self.stats[tenant];
        st.accesses += 1;
        if self.l1s[tenant].access(tagged) {
            return Level::L1;
        }
        st.l1_misses += 1;
        let (l2_hit, evicted) = self.l2.access_reporting(tagged);
        if l2_hit {
            return Level::L2;
        }
        self.stats[tenant].l2_misses += 1;
        if let Some(victim_line) = evicted {
            let victim = tenant_of_line(victim_line);
            self.l2_evictions.record(victim, tenant);
            let set = self.l2_config.set_of_line(tagged) as usize;
            self.l2_evictions_by_set[set * self.l1s.len() + victim] += 1;
            if self.l1s[victim].invalidate(victim_line) {
                self.back_invalidations[victim] += 1;
            }
        }
        Level::Memory
    }

    /// A tenant's private L1 (invariant checks and tests).
    pub fn l1(&self, tenant: usize) -> &SetAssocCache {
        &self.l1s[tenant]
    }

    /// The shared L2 (invariant checks and tests).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// Per-tenant statistics so far.
    pub fn stats(&self) -> &[LevelStats] {
        &self.stats
    }

    /// Verify the inclusion invariant: every line resident in any private
    /// L1 is also resident in the shared L2. Returns the first violation
    /// as `(tenant, tagged_line)`.
    pub fn check_inclusion(&self) -> Result<(), (usize, u64)> {
        for (t, l1) in self.l1s.iter().enumerate() {
            for line in l1.resident_lines() {
                if !self.l2.probe(line) {
                    return Err((t, line));
                }
            }
        }
        Ok(())
    }

    /// Consume the simulator into its result record.
    pub fn into_result(self) -> NwayTwoLevelResult {
        NwayTwoLevelResult {
            per_tenant: self.stats,
            l2_evictions: self.l2_evictions,
            l2_evictions_by_set: self.l2_evictions_by_set,
            back_invalidations: self.back_invalidations,
        }
    }
}

/// Replay N fetch streams, round-robin interleaved, through private L1s
/// over one shared inclusive L2 (see [`NwaySharedL2`]).
pub fn simulate_nway_shared_l2(
    streams: &[&[u64]],
    l1: CacheConfig,
    l2: CacheConfig,
) -> NwayTwoLevelResult {
    let mut sim = NwaySharedL2::new(streams.len(), l1, l2);
    for (tenant, line) in interleave_many_iter(streams) {
        sim.access(tenant, line);
    }
    sim.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (CacheConfig, CacheConfig) {
        (
            CacheConfig::new(512, 2, 64),  // 8-line L1
            CacheConfig::new(4096, 4, 64), // 64-line L2
        )
    }

    #[test]
    fn levels_served_in_order() {
        let (l1, l2) = small();
        let mut c = TwoLevelCache::new(l1, l2);
        assert_eq!(c.access(0), Level::Memory); // cold everywhere
        assert_eq!(c.access(0), Level::L1); // now resident
                                            // Evict from L1 (8 lines in same... fill 8+ lines), keep in L2.
        for l in 1..=8u64 {
            c.access(l * 2); // all map across sets, 8 lines evict line 0 eventually
        }
        // Line 0 may or may not be evicted from L1 depending on mapping;
        // force conflict: lines 0, 16, 32 share a set in an 8-set... use
        // direct check via stats instead.
        let st = c.stats();
        assert_eq!(st.accesses, 10);
        assert!(st.l1_misses >= 9);
        assert_eq!(st.l2_misses, 9); // every distinct line cold in L2 once
    }

    #[test]
    fn l2_absorbs_l1_capacity_misses() {
        let (l1, l2) = small();
        let mut c = TwoLevelCache::new(l1, l2);
        // 16 lines: don't fit the 8-line L1, fit the 64-line L2.
        for _ in 0..20 {
            for line in 0..16u64 {
                c.access(line);
            }
        }
        let st = c.stats();
        assert!(
            st.l1_miss_ratio() > 0.5,
            "L1 thrashes: {}",
            st.l1_miss_ratio()
        );
        assert!(
            st.l2_local_miss_ratio() < 0.1,
            "L2 absorbs: {}",
            st.l2_local_miss_ratio()
        );
        assert_eq!(st.l2_misses, 16); // cold only
    }

    #[test]
    fn paper_geometry_constructs() {
        let mut c = TwoLevelCache::paper();
        assert_eq!(c.access(1), Level::Memory);
        assert_eq!(c.access(1), Level::L1);
    }

    #[test]
    fn corun_shares_l2_but_not_l1() {
        let (l1, l2) = small();
        // Each thread loops over 4 lines: fits its private L1 → no L1
        // contention regardless of the peer.
        let a: Vec<u64> = (0..200).map(|i| i % 4).collect();
        let b = a.clone();
        let r = simulate_two_level_corun(&a, &b, l1, l2);
        assert_eq!(r.per_thread[0].l1_misses, 4);
        assert_eq!(r.per_thread[1].l1_misses, 4);
    }

    #[test]
    fn shared_l2_contention_appears_when_combined_overflows() {
        let (l1, _) = small();
        let tiny_l2 = CacheConfig::new(1024, 2, 64); // 16 lines
                                                     // Each thread cycles 12 lines: alone fits L2 (12 < 16); together
                                                     // 24 tagged lines overflow it.
        let a: Vec<u64> = (0..600).map(|i| i % 12).collect();
        let solo = {
            let mut c = TwoLevelCache::new(l1, tiny_l2);
            for &l in &a {
                c.access(l);
            }
            c.stats()
        };
        let co = simulate_two_level_corun(&a, &a, l1, tiny_l2);
        assert!(
            co.per_thread[0].l2_misses > solo.l2_misses,
            "shared L2 contention: {} vs {}",
            co.per_thread[0].l2_misses,
            solo.l2_misses
        );
    }

    #[test]
    fn stats_ratios() {
        let st = LevelStats {
            accesses: 100,
            l1_misses: 20,
            l2_misses: 5,
        };
        assert!((st.l1_miss_ratio() - 0.2).abs() < 1e-12);
        assert!((st.l2_local_miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(st.l1().misses, 20);
        let empty = LevelStats::default();
        assert_eq!(empty.l1_miss_ratio(), 0.0);
        assert_eq!(empty.l2_local_miss_ratio(), 0.0);
    }
}
