//! Property-based tests for the cache simulators, driven by the seeded
//! `clop_util::check` harness.

use clop_cachesim::{
    interleave_many_iter, simulate_corun_nway, simulate_solo_lines, simulate_with_policy, tag_line,
    CacheConfig, ReplacementPolicy, SetAssocCache, SmtSimulator, TimingConfig,
};
use clop_util::check::{check, check_n, vec_of};
use clop_util::Rng;

fn lines(rng: &mut Rng, span: u64, max_len: usize) -> Vec<u64> {
    vec_of(rng, max_len, |r| r.gen_below(span))
}

fn small_cfg() -> CacheConfig {
    CacheConfig::new(1024, 2, 64) // 8 sets × 2 ways
}

/// Misses never exceed accesses; accesses equal the stream length.
#[test]
fn stats_are_conserved() {
    check("stats_are_conserved", |rng| {
        let v = lines(rng, 64, 300);
        let s = simulate_solo_lines(&v, small_cfg());
        assert_eq!(s.accesses, v.len() as u64);
        assert!(s.misses <= s.accesses);
        // Every distinct line misses at least once (cold misses).
        let mut d: Vec<u64> = v.clone();
        d.sort_unstable();
        d.dedup();
        assert!(s.misses >= d.len() as u64);
    });
}

/// A cache with more ways (same set count, growing ways) never performs
/// worse under LRU.
#[test]
fn more_ways_never_hurt_with_same_sets() {
    check("more_ways_never_hurt_with_same_sets", |rng| {
        let v = lines(rng, 128, 300);
        // 8 sets × 2 ways vs 8 sets × 4 ways.
        let a = simulate_solo_lines(&v, CacheConfig::new(1024, 2, 64));
        let b = simulate_solo_lines(&v, CacheConfig::new(2048, 4, 64));
        assert!(b.misses <= a.misses);
    });
}

/// Round-robin interleaving preserves each stream's events in order, at
/// any width.
#[test]
fn interleave_preserves_order() {
    check("interleave_preserves_order", |rng| {
        let n = rng.gen_below(4) as usize + 1;
        let streams: Vec<Vec<u64>> = (0..n).map(|_| lines(rng, 64, 100)).collect();
        let slices: Vec<&[u64]> = streams.iter().map(|s| s.as_slice()).collect();
        let merged: Vec<(usize, u64)> = interleave_many_iter(&slices).collect();
        for (t, stream) in streams.iter().enumerate() {
            let back: Vec<u64> = merged
                .iter()
                .filter(|(u, _)| *u == t)
                .map(|(_, l)| *l)
                .collect();
            assert_eq!(&back, stream);
        }
    });
}

/// Co-run address streams from different threads never alias: the
/// thread-tagged line of thread 0 is disjoint from that of thread 1 for
/// *every* pair of raw lines, so two co-running programs can never share
/// (and never falsely hit on) each other's cache lines.
#[test]
fn corun_streams_never_alias() {
    check("corun_streams_never_alias", |rng| {
        let a = lines(rng, 1 << 40, 100);
        let b = lines(rng, 1 << 40, 100);
        for &la in &a {
            for &lb in &b {
                assert_ne!(
                    tag_line(la, 0),
                    tag_line(lb, 1),
                    "thread tags must separate address spaces (lines {:#x}, {:#x})",
                    la,
                    lb
                );
            }
        }
        // And tagging is injective per thread: equal tags imply equal lines.
        for &la in &a {
            for &la2 in &a {
                assert_eq!(tag_line(la, 0) == tag_line(la2, 0), la == la2);
            }
        }
    });
}

/// Co-run combined statistics equal the sum of per-tenant statistics.
#[test]
fn corun_stats_additive() {
    check("corun_stats_additive", |rng| {
        let n = rng.gen_below(4) as usize + 1;
        let streams: Vec<Vec<u64>> = (0..n).map(|_| lines(rng, 64, 150)).collect();
        let slices: Vec<&[u64]> = streams.iter().map(|s| s.as_slice()).collect();
        let r = simulate_corun_nway(&slices, small_cfg());
        let c = r.combined();
        assert_eq!(c.accesses, r.per_tenant.iter().map(|s| s.accesses).sum());
        assert_eq!(c.misses, r.per_tenant.iter().map(|s| s.misses).sum());
    });
}

/// The LRU policy cache and the reference cache agree exactly on any
/// stream.
#[test]
fn policy_lru_equals_reference() {
    check("policy_lru_equals_reference", |rng| {
        let v = lines(rng, 96, 300);
        let a = simulate_with_policy(&v, small_cfg(), ReplacementPolicy::Lru);
        let b = simulate_solo_lines(&v, small_cfg());
        assert_eq!(a, b);
    });
}

/// Every policy is deterministic and conserves accesses.
#[test]
fn policies_deterministic() {
    check("policies_deterministic", |rng| {
        let v = lines(rng, 96, 200);
        for p in ReplacementPolicy::ALL {
            let a = simulate_with_policy(&v, small_cfg(), p);
            let b = simulate_with_policy(&v, small_cfg(), p);
            assert_eq!(a, b);
            assert_eq!(a.accesses, v.len() as u64);
        }
    });
}

/// Timed solo runs: cycles grow monotonically with added work, and the
/// reported stats match a plain cache replay of the same stream.
#[test]
fn timed_solo_consistent() {
    check("timed_solo_consistent", |rng| {
        let v = lines(rng, 64, 150);
        let stream: Vec<(u64, u32)> = v.iter().map(|&l| (l, 8)).collect();
        let cfg = TimingConfig {
            cache: small_cfg(),
            prefetch: false,
            ..Default::default()
        };
        let sim = SmtSimulator::new(cfg);
        let run = sim.run_solo(&stream);
        assert_eq!(run.stats.accesses, v.len() as u64);
        // Same misses as an untimed replay (timing doesn't change a solo
        // access order).
        let plain = simulate_solo_lines(&v, small_cfg());
        assert_eq!(run.stats.misses, plain.misses);
        // Adding one element never reduces cycles.
        if !stream.is_empty() {
            let shorter = &stream[..stream.len() - 1];
            let run2 = sim.run_solo(shorter);
            assert!(run2.cycles <= run.cycles + 1e-9);
        }
    });
}

/// Probing never changes statistics.
#[test]
fn probe_is_pure() {
    check("probe_is_pure", |rng| {
        let v = lines(rng, 64, 100);
        let mut c = SetAssocCache::new(small_cfg());
        for &l in &v {
            c.access(l);
        }
        let before = c.stats();
        for &l in &v {
            c.probe(l);
        }
        assert_eq!(c.stats(), before);
    });
}

/// Mattson's stack-distance equivalence: on a fully-associative LRU cache
/// of `C` lines, an access misses iff its LRU stack distance is `>= C`
/// (cold accesses count as infinite distance). The simulator's miss count
/// must therefore equal the reuse-distance histogram's tail mass — this
/// ties the set-associative simulator to the Olken/Fenwick stack engine
/// through an independent definition of the same quantity.
///
/// The histogram is measured over the *trimmed* line stream (consecutive
/// duplicates removed); a consecutive duplicate always hits for any
/// capacity >= 1, so the raw-stream and trimmed-stream miss counts agree.
#[test]
fn fully_assoc_lru_misses_equal_histogram_tail() {
    use clop_trace::{ReuseHistogram, TrimmedTrace};
    check_n("fa_lru_misses_equal_histogram_tail", 120, |rng| {
        let span = rng.gen_below(96) + 2;
        let v = lines(rng, span, 400);
        // Power-of-two line count keeps the geometry assertions happy.
        let cap_lines = 1u64 << rng.gen_below(6); // 1, 2, ..., 32 lines
        let cfg = CacheConfig::new(cap_lines * 64, cap_lines as u32, 64);
        assert_eq!(cfg.num_sets(), 1, "fully associative by construction");
        let sim = simulate_solo_lines(&v, cfg);

        let t = TrimmedTrace::from_indices(v.iter().map(|&l| l as u32));
        let h = ReuseHistogram::measure(&t);
        let hits: u64 = (0..cap_lines as usize).map(|d| h.count_at(d)).sum();
        let expected_misses = h.total() - hits;
        // Raw accesses beyond the trimmed length are consecutive
        // duplicates: guaranteed hits, absent from both counts.
        assert_eq!(
            sim.misses,
            expected_misses,
            "cap {cap_lines} lines over {} raw / {} trimmed accesses",
            v.len(),
            t.len()
        );
        // Cross-check against the histogram's own miss-ratio projection.
        let ratio = expected_misses as f64 / (h.total().max(1)) as f64;
        if h.total() > 0 {
            assert!((h.miss_ratio(cap_lines as usize) - ratio).abs() < 1e-12);
        }
    });
}
