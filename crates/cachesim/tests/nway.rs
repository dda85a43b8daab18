//! Property and differential tests for the N-way co-run replay.
//!
//! The fast path, [`simulate_corun_nway`], is pinned against a
//! straight-line reference simulator defined below (the `NaiveLruStack`
//! pattern of the reuse-distance engine) by randomized differential suites:
//!
//! 1. **The paper's pair** — at N=2 the replay reproduces the reference
//!    exactly, over hundreds of random stream pairs.
//! 2. **Any width** — the same holds across random geometries and widths,
//!    both on bare line streams and on timed `(line, exec)` streams read in
//!    place.

use clop_cachesim::{simulate_corun_nway, simulate_solo_lines, CacheConfig, CacheStats};
use clop_util::check::{check_n, vec_of};
use clop_util::Rng;

/// Straight-line reference for the shared-cache co-run replay. Everything
/// here is array-of-structs, one linear scan per decision, no fused loops,
/// no stamp-encoding tricks — the behavior is meant to be auditable against
/// the textbook definition of a set-associative true-LRU cache, not fast.
mod naive {
    use clop_cachesim::{tag_line, CacheConfig, CacheStats};

    /// One way of one set: a valid bit, the full tagged line, and the LRU
    /// timestamp of the last touch.
    #[derive(Clone, Copy)]
    struct Way {
        valid: bool,
        tag: u64,
        lru: u64,
    }

    /// The textbook set-associative LRU cache: a `Vec` of sets, each a
    /// `Vec` of ways, with explicit linear scans for hit and victim.
    struct NaiveCache {
        config: CacheConfig,
        sets: Vec<Vec<Way>>,
        clock: u64,
    }

    impl NaiveCache {
        fn new(config: CacheConfig) -> Self {
            let way = Way {
                valid: false,
                tag: 0,
                lru: 0,
            };
            NaiveCache {
                config,
                sets: vec![vec![way; config.associativity as usize]; config.num_sets() as usize],
                clock: 0,
            }
        }

        /// Access a line; returns `true` on hit.
        fn access(&mut self, line: u64) -> bool {
            self.clock += 1;
            let set = &mut self.sets[self.config.set_of_line(line) as usize];
            for way in set.iter_mut() {
                if way.valid && way.tag == line {
                    way.lru = self.clock;
                    return true;
                }
            }
            // Victim: the first way in way order with the minimal key, where
            // an invalid way keys as 0 — the same order the fast path's
            // stamp-0-invalid encoding yields. Sets are built with at least
            // one way, so the fold always selects a victim.
            let mut victim_ix = 0usize;
            let mut victim_key = u64::MAX;
            for (i, w) in set.iter().enumerate() {
                let key = if w.valid { w.lru } else { 0 };
                if key < victim_key {
                    victim_key = key;
                    victim_ix = i;
                }
            }
            set[victim_ix] = Way {
                valid: true,
                tag: line,
                lru: self.clock,
            };
            false
        }
    }

    /// Round-robin interleave of N streams as an explicit position list —
    /// the loop-until-nothing-progressed formulation, materialized.
    fn naive_interleave(streams: &[&[u64]]) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        let mut cursors = vec![0usize; streams.len()];
        loop {
            let mut progressed = false;
            for (t, stream) in streams.iter().enumerate() {
                if cursors[t] < stream.len() {
                    out.push((t, stream[cursors[t]]));
                    cursors[t] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                return out;
            }
        }
    }

    /// Reference N-way co-run: one shared cache, round-robin interleave;
    /// returns per-tenant statistics.
    pub fn simulate_corun_nway(streams: &[&[u64]], config: CacheConfig) -> Vec<CacheStats> {
        let mut cache = NaiveCache::new(config);
        let mut per_tenant = vec![CacheStats::default(); streams.len()];
        for (t, line) in naive_interleave(streams) {
            per_tenant[t].record(cache.access(tag_line(line, t)));
        }
        per_tenant
    }
}

fn lines(rng: &mut Rng, span: u64, max_len: usize) -> Vec<u64> {
    vec_of(rng, max_len, |r| r.gen_below(span))
}

/// A random power-of-two geometry: 1–16 sets × 1–8 ways.
fn random_cfg(rng: &mut Rng) -> CacheConfig {
    let sets = 1u64 << rng.gen_below(5);
    let ways = 1u32 << rng.gen_below(4) as u32;
    CacheConfig::new(sets * ways as u64 * 64, ways, 64)
}

/// Random fleet of 1..=max_n streams.
fn random_streams(rng: &mut Rng, max_n: u64, span: u64, max_len: usize) -> Vec<Vec<u64>> {
    let n = rng.gen_below(max_n) as usize + 1;
    (0..n).map(|_| lines(rng, span, max_len)).collect()
}

fn as_slices(streams: &[Vec<u64>]) -> Vec<&[u64]> {
    streams.iter().map(|s| s.as_slice()).collect()
}

/// 500 random stream pairs: the replay at N=2 — the paper's two SMT
/// threads — reproduces the reference exactly: same interleave order,
/// same hit/miss outcomes, same per-tenant counters.
#[test]
fn nway_at_two_matches_naive_reference() {
    check_n("nway_at_two_matches_naive_reference", 500, |rng| {
        let cfg = random_cfg(rng);
        let a = lines(rng, 96, 200);
        let b = lines(rng, 96, 200);
        let fast = simulate_corun_nway(&[&a, &b], cfg);
        let reference = naive::simulate_corun_nway(&[&a, &b], cfg);
        assert_eq!(fast.per_tenant, reference);
        let mut combined = reference[0];
        combined.merge(&reference[1]);
        assert_eq!(fast.combined(), combined);
    });
}

/// The flat-array fast path agrees with the straight-line reference on
/// every tenant's statistics across random geometries and widths, and
/// per-tenant accesses are exactly the stream lengths.
#[test]
fn fast_single_level_matches_naive_reference() {
    check_n("fast_single_level_matches_naive_reference", 100, |rng| {
        let cfg = random_cfg(rng);
        let streams = random_streams(rng, 8, 160, 200);
        let slices = as_slices(&streams);
        let fast = simulate_corun_nway(&slices, cfg);
        assert_eq!(fast.per_tenant, naive::simulate_corun_nway(&slices, cfg));
        for (t, s) in streams.iter().enumerate() {
            assert_eq!(fast.per_tenant[t].accesses, s.len() as u64);
        }
    });
}

/// Timed `(line, exec)` streams replay in place exactly as their bare
/// line streams do: the N-way replay equals the `u64` path and the
/// reference, and the solo replay equals the `u64` path and a one-tenant
/// reference run — with streams long enough to cross the replay's
/// batch-chunk boundaries.
#[test]
fn timed_streams_replay_like_their_lines() {
    check_n("timed_streams_replay_like_their_lines", 100, |rng| {
        let cfg = random_cfg(rng);
        let mut streams = random_streams(rng, 8, 160, 200);
        streams.push(lines(rng, 160, 5000));
        let timed: Vec<Vec<(u64, u32)>> = streams
            .iter()
            .map(|s| s.iter().map(|&l| (l, rng.gen_below(50) as u32)).collect())
            .collect();
        let slices = as_slices(&streams);
        let timed_slices: Vec<&[(u64, u32)]> = timed.iter().map(|s| s.as_slice()).collect();
        let replayed = simulate_corun_nway(&timed_slices, cfg);
        assert_eq!(replayed, simulate_corun_nway(&slices, cfg));
        assert_eq!(
            replayed.per_tenant,
            naive::simulate_corun_nway(&slices, cfg)
        );
        for (s, t) in streams.iter().zip(&timed) {
            let solo = simulate_solo_lines(t, cfg);
            assert_eq!(solo, simulate_solo_lines(s, cfg));
            assert_eq!(vec![solo], naive::simulate_corun_nway(&[s], cfg));
        }
    });
}

/// Empty fleets and empty streams are handled identically by both paths.
#[test]
fn degenerate_inputs_agree() {
    let cfg = CacheConfig::new(1024, 2, 64);
    let empty: Vec<&[u64]> = Vec::new();
    assert_eq!(
        simulate_corun_nway(&empty, cfg).per_tenant,
        naive::simulate_corun_nway(&empty, cfg)
    );
    let streams: Vec<&[u64]> = vec![&[], &[1, 2, 3], &[]];
    let fast = simulate_corun_nway(&streams, cfg);
    assert_eq!(fast.per_tenant, naive::simulate_corun_nway(&streams, cfg));
    assert_eq!(fast.per_tenant[0], CacheStats::default());
}
