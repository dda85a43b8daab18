//! Property-based tests over cross-crate invariants, driven by the seeded
//! `clop_util::check` harness.

use clop_oracle::pair_threshold;
use code_layout_opt::affinity::{affinity_layout, AffinityConfig, PairThresholds};
use code_layout_opt::cachesim::{simulate_corun_nway, simulate_solo_lines, CacheConfig};
use code_layout_opt::trace::{
    BlockId, LruStack, Pruner, ReuseHistogram, Trace, TraceStats, TrimmedTrace,
};
use code_layout_opt::trg::{trg_layout, TrgConfig};
use code_layout_opt::util::check::check;
use code_layout_opt::util::Rng;

/// A non-empty random id vector: `1..=max_len` ids below `max_block`.
fn random_ids(rng: &mut Rng, max_block: u32, max_len: usize) -> Vec<u32> {
    let len = rng.gen_index(max_len) + 1;
    (0..len).map(|_| rng.gen_range_u32(0, max_block)).collect()
}

/// Trimming is idempotent and leaves no adjacent duplicates.
#[test]
fn trimming_invariant() {
    check("trimming_invariant", |rng| {
        let ids = random_ids(rng, 12, 200);
        let t = Trace::from_indices(ids).trim();
        for w in t.events().windows(2) {
            assert_ne!(w[0], w[1]);
        }
        let again = TrimmedTrace::from_events(t.iter());
        assert_eq!(t, again);
    });
}

/// The LRU stack's distances match a brute-force distinct count.
#[test]
fn stack_distance_matches_naive() {
    check("stack_distance_matches_naive", |rng| {
        let ids = random_ids(rng, 10, 150);
        let mut stack = LruStack::new(10);
        let mut last: std::collections::HashMap<u32, usize> = Default::default();
        for (i, &x) in ids.iter().enumerate() {
            let got = stack.access(BlockId(x));
            let want = match last.get(&x) {
                None => LruStack::INFINITE,
                Some(&p) => {
                    let mut set: Vec<u32> = ids[p + 1..i].to_vec();
                    set.sort_unstable();
                    set.dedup();
                    set.retain(|&y| y != x);
                    set.len()
                }
            };
            assert_eq!(got, want);
            last.insert(x, i);
        }
    });
}

/// Miss ratio from the reuse histogram is monotone non-increasing in
/// capacity (LRU inclusion property).
#[test]
fn lru_inclusion_property() {
    check("lru_inclusion_property", |rng| {
        let ids = random_ids(rng, 16, 300);
        let t = Trace::from_indices(ids).trim();
        let h = ReuseHistogram::measure(&t);
        let mut prev = 1.0f64;
        for cap in 1..20 {
            let m = h.miss_ratio(cap);
            assert!(m <= prev + 1e-12);
            prev = m;
        }
    });
}

/// A set-associative cache never misses less than a fully-associative
/// LRU cache of the same capacity predicts... is false in general
/// (Belady anomalies don't apply to LRU, but associativity conflicts
/// do). What must hold: miss count is bounded by accesses, and a
/// repeat of the same trace on a warm cache misses no more than the
/// cold run.
#[test]
fn warm_cache_misses_no_more() {
    check("warm_cache_misses_no_more", |rng| {
        let ids = random_ids(rng, 64, 200);
        let cfg = CacheConfig::new(1024, 2, 64);
        let lines: Vec<u64> = ids.iter().map(|&x| x as u64).collect();
        let cold = simulate_solo_lines(&lines, cfg);
        let doubled: Vec<u64> = lines.iter().chain(lines.iter()).copied().collect();
        let two = simulate_solo_lines(&doubled, cfg);
        assert!(two.misses <= 2 * cold.misses);
        assert!(cold.misses <= cold.accesses);
    });
}

/// Co-run per-thread accesses equal solo accesses, and co-run misses
/// are at least the solo misses for each thread (interference never
/// helps under LRU with disjoint address spaces).
#[test]
fn corun_never_helps() {
    check("corun_never_helps", |rng| {
        let a = random_ids(rng, 48, 200);
        let b = random_ids(rng, 48, 200);
        let cfg = CacheConfig::new(512, 2, 64);
        let la: Vec<u64> = a.iter().map(|&x| x as u64).collect();
        let lb: Vec<u64> = b.iter().map(|&x| x as u64).collect();
        let solo_a = simulate_solo_lines(&la, cfg);
        let solo_b = simulate_solo_lines(&lb, cfg);
        let co = simulate_corun_nway(&[&la, &lb], cfg).per_tenant;
        assert_eq!(co[0].accesses, solo_a.accesses);
        assert_eq!(co[1].accesses, solo_b.accesses);
        assert!(co[0].misses >= solo_a.misses);
        assert!(co[1].misses >= solo_b.misses);
    });
}

/// Affinity and TRG layouts are permutations of the trace's blocks.
#[test]
fn layouts_are_permutations() {
    check("layouts_are_permutations", |rng| {
        let ids = random_ids(rng, 10, 150);
        let t = Trace::from_indices(ids).trim();
        let mut expect: Vec<u32> = TraceStats::of(&t)
            .heat_order()
            .iter()
            .map(|b| b.0)
            .collect();
        expect.sort_unstable();

        let mut aff: Vec<u32> = affinity_layout(&t, AffinityConfig::up_to(6))
            .iter()
            .map(|b| b.0)
            .collect();
        aff.sort_unstable();
        assert_eq!(&aff, &expect);

        let mut trg: Vec<u32> = trg_layout(
            &t,
            TrgConfig {
                window: 8,
                slots: 3,
            },
        )
        .iter()
        .map(|b| b.0)
        .collect();
        trg.sort_unstable();
        assert_eq!(&trg, &expect);
    });
}

/// The efficient affinity analyzer agrees exactly with the quadratic
/// reference implementation, thresholds capped at w_max.
#[test]
fn analyzer_matches_naive() {
    check("analyzer_matches_naive", |rng| {
        let ids = random_ids(rng, 7, 80);
        let t = Trace::from_indices(ids).trim();
        let w_max = 5u32;
        let eff = PairThresholds::measure(&t, w_max);
        for x in 0..7u32 {
            for y in (x + 1)..7u32 {
                let exact = pair_threshold(&t, BlockId(x), BlockId(y)).filter(|&v| v <= w_max);
                assert_eq!(
                    eff.get(BlockId(x), BlockId(y)),
                    exact,
                    "pair ({}, {})",
                    x,
                    y
                );
            }
        }
    });
}

/// Pruning keeps retention in [0, 1], produces a subset of blocks, and
/// a larger budget never lowers retention.
#[test]
fn pruning_monotone() {
    check("pruning_monotone", |rng| {
        let ids = random_ids(rng, 30, 300);
        let t = Trace::from_indices(ids).trim();
        let mut prev = 0.0f64;
        for budget in [1usize, 2, 4, 8, 16, 64] {
            let r = Pruner::new(budget).prune(&t);
            assert!(r.retention >= prev - 1e-12);
            assert!(r.retention <= 1.0 + 1e-12);
            assert!(TraceStats::of(&r.trace).num_distinct() <= budget);
            prev = r.retention;
        }
    });
}
