//! Property and differential tests for the N-way co-run paths.
//!
//! Three pinning layers:
//!
//! 1. **Legacy equivalence** — at N=2 the generalized simulator must be
//!    bit-identical (per-tenant stats) to the historical pair path
//!    `simulate_corun_lines`, over hundreds of random stream pairs.
//! 2. **Conservation and inclusion** — eviction attribution must sum
//!    exactly to the combined statistics (per matrix, per set), and the
//!    inclusive shared L2 must satisfy the inclusion invariant after
//!    *every* access of a randomized N-stream interleaving.
//! 3. **Differential oracle** — the fast flat-array paths are pinned
//!    against the straight-line `corun::naive` reference simulators
//!    (the `NaiveLruStack` pattern), across random geometries and widths,
//!    both on bare line streams and on timed `(line, exec)` streams read
//!    in place.

use clop_cachesim::corun::naive;
use clop_cachesim::multilevel::Level;
use clop_cachesim::{
    simulate_corun_lines, simulate_corun_nway, simulate_nway_shared_l2, simulate_solo_lines,
    CacheConfig, NwaySharedL2,
};
use clop_util::check::{check, check_n, vec_of};
use clop_util::Rng;

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

// ---- Satellite 1: N=2 is bit-identical to the legacy pair path ----

/// 500+ random stream pairs: the generalized simulator at N=2 reproduces
/// `simulate_corun_lines` exactly — same interleave order, same hit/miss
/// outcomes, same per-tenant counters.
#[test]
fn nway_at_two_matches_legacy_pair_path() {
    check_n("nway_at_two_matches_legacy_pair_path", 500, |rng| {
        let cfg = random_cfg(rng);
        let a = lines(rng, 96, 200);
        let b = lines(rng, 96, 200);
        let pair = simulate_corun_lines(&a, &b, cfg);
        let nway = simulate_corun_nway(&[&a, &b], cfg);
        assert_eq!(nway.per_tenant[0], pair.per_thread[0]);
        assert_eq!(nway.per_tenant[1], pair.per_thread[1]);
        assert_eq!(nway.combined(), pair.combined());
    });
}

// ---- Satellite 2: conservation of attribution, inclusion invariant ----

/// Single level: the eviction matrix and the per-set attribution are two
/// decompositions of the same events — their marginals must agree exactly,
/// and every eviction is a miss of someone.
#[test]
fn eviction_attribution_is_conserved() {
    check("eviction_attribution_is_conserved", |rng| {
        let cfg = random_cfg(rng);
        let streams = random_streams(rng, 6, 128, 250);
        let slices = as_slices(&streams);
        let r = simulate_corun_nway(&slices, cfg);
        let tenants = streams.len();
        let sets = cfg.num_sets() as usize;

        // Per-tenant accesses are exactly the stream lengths.
        for (t, s) in streams.iter().enumerate() {
            assert_eq!(r.per_tenant[t].accesses, s.len() as u64);
        }
        // Every eviction was caused by some miss; the cache starts empty,
        // so evictions never exceed total misses (cold fills don't evict).
        let combined = r.combined();
        assert!(r.evictions.total() <= combined.misses);
        // Matrix marginals: Σ_victim suffered == Σ_evictor caused == total.
        let suffered: u64 = (0..tenants).map(|v| r.evictions.suffered_by(v)).sum();
        let caused: u64 = (0..tenants).map(|e| r.evictions.caused_by(e)).sum();
        assert_eq!(suffered, r.evictions.total());
        assert_eq!(caused, r.evictions.total());
        // The per-set decomposition has the same per-victim marginals.
        for v in 0..tenants {
            let by_set: u64 = (0..sets).map(|s| r.evictions_in_set(s, v)).sum();
            assert_eq!(by_set, r.evictions.suffered_by(v));
        }
    });
}

/// Two levels: per-tenant LevelStats sum to the combined record, the L2
/// attribution marginals agree with the per-set decomposition, and
/// back-invalidations never exceed the evictions that could cause them.
#[test]
fn two_level_attribution_is_conserved() {
    check("two_level_attribution_is_conserved", |rng| {
        let l1 = random_cfg(rng);
        let l2 = random_cfg(rng);
        let streams = random_streams(rng, 6, 128, 250);
        let slices = as_slices(&streams);
        let r = simulate_nway_shared_l2(&slices, l1, l2);
        let tenants = streams.len();
        let sets = l2.num_sets() as usize;

        let combined = r.combined();
        let mut accesses = 0u64;
        for (t, s) in streams.iter().enumerate() {
            assert_eq!(r.per_tenant[t].accesses, s.len() as u64);
            assert!(r.per_tenant[t].l1_misses <= r.per_tenant[t].accesses);
            assert!(r.per_tenant[t].l2_misses <= r.per_tenant[t].l1_misses);
            accesses += s.len() as u64;
        }
        assert_eq!(combined.accesses, accesses);
        // Only L2 misses install into L2, so only they can evict.
        assert!(r.l2_evictions.total() <= combined.l2_misses);
        for v in 0..tenants {
            let by_set: u64 = (0..sets).map(|s| r.l2_evictions_in_set(s, v)).sum();
            assert_eq!(by_set, r.l2_evictions.suffered_by(v));
            // A back-invalidation requires an L2 eviction of that victim.
            assert!(r.back_invalidations[v] <= r.l2_evictions.suffered_by(v));
        }
    });
}

/// The inclusion invariant holds after *every* access of a randomized
/// N-stream interleaving, not just at the end — each L2 eviction must
/// back-invalidate before the access returns.
#[test]
fn inclusion_holds_after_every_access() {
    check("inclusion_holds_after_every_access", |rng| {
        // Deliberately tiny L2 relative to the L1s so back-invalidations
        // actually fire; random interleave rather than round-robin.
        let l1 = CacheConfig::new(512, 2, 64); // 8 lines
        let l2 = random_cfg(rng);
        let tenants = rng.gen_below(4) as usize + 2;
        let mut sim = NwaySharedL2::new(tenants, l1, l2);
        let mut evicted_from_memory = 0u64;
        for _ in 0..150 {
            let t = rng.gen_index(tenants);
            let line = rng.gen_below(64);
            if sim.access(t, line) == Level::Memory {
                evicted_from_memory += 1;
            }
            sim.check_inclusion()
                .unwrap_or_else(|(t, l)| panic!("tenant {} line {:#x} not in L2", t, l));
        }
        assert!(evicted_from_memory > 0, "degenerate case: no L2 misses");
        let r = sim.into_result();
        assert_eq!(
            r.per_tenant.iter().map(|s| s.l2_misses).sum::<u64>(),
            evicted_from_memory
        );
    });
}

// ---- Satellite 3: differential oracle against corun::naive ----

/// The flat-array single-level fast path agrees with the straight-line
/// reference on the complete result record — stats, eviction matrix, and
/// per-set attribution — across random geometries and widths.
#[test]
fn fast_single_level_matches_naive_reference() {
    check_n("fast_single_level_matches_naive_reference", 100, |rng| {
        let cfg = random_cfg(rng);
        let streams = random_streams(rng, 8, 160, 200);
        let slices = as_slices(&streams);
        let fast = simulate_corun_nway(&slices, cfg);
        let reference = naive::simulate_corun_nway(&slices, cfg);
        assert_eq!(fast, reference);
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
        assert_eq!(replayed, naive::simulate_corun_nway(&slices, cfg));
        for (s, t) in streams.iter().zip(&timed) {
            let solo = simulate_solo_lines(t, cfg);
            assert_eq!(solo, simulate_solo_lines(s, cfg));
            assert_eq!(solo, naive::simulate_corun_nway(&[s], cfg).per_tenant[0]);
        }
    });
}

/// The inclusive two-level fast path agrees with the reference on the
/// complete result record, including back-invalidation counts.
#[test]
fn fast_two_level_matches_naive_reference() {
    check_n("fast_two_level_matches_naive_reference", 100, |rng| {
        let l1 = random_cfg(rng);
        let l2 = random_cfg(rng);
        let streams = random_streams(rng, 8, 160, 200);
        let slices = as_slices(&streams);
        let fast = simulate_nway_shared_l2(&slices, l1, l2);
        let reference = naive::simulate_nway_shared_l2(&slices, l1, l2);
        assert_eq!(fast, reference);
    });
}

/// Empty fleets and empty streams are handled identically by both paths.
#[test]
fn degenerate_inputs_agree() {
    let cfg = CacheConfig::new(1024, 2, 64);
    let empty: Vec<&[u64]> = Vec::new();
    assert_eq!(
        simulate_corun_nway(&empty, cfg),
        naive::simulate_corun_nway(&empty, cfg)
    );
    let streams: Vec<&[u64]> = vec![&[], &[1, 2, 3], &[]];
    assert_eq!(
        simulate_corun_nway(&streams, cfg),
        naive::simulate_corun_nway(&streams, cfg)
    );
    assert_eq!(
        simulate_nway_shared_l2(&streams, cfg, cfg),
        naive::simulate_nway_shared_l2(&streams, cfg, cfg)
    );
}
