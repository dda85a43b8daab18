//! Property-based tests for TRG construction and reduction, driven by the
//! seeded `clop_util::check` harness.

use clop_trace::{BlockId, Trace, TraceStats, TrimmedTrace};
use clop_trg::{reduce, trg_layout, Trg, TrgConfig};
use clop_util::check::check;
use clop_util::Rng;

/// A non-empty random id vector: `1..=max_len` ids below `max_block`.
fn ids(rng: &mut Rng, max_block: u32, max_len: usize) -> Vec<u32> {
    let len = rng.gen_index(max_len) + 1;
    (0..len).map(|_| rng.gen_range_u32(0, max_block)).collect()
}

/// Edge weights are symmetric, zero on the diagonal, and bounded by the
/// number of reuses in the trace.
#[test]
fn weights_sane() {
    check("weights_sane", |rng| {
        let v = ids(rng, 10, 200);
        let window = rng.gen_index(30) + 2;
        let t = Trace::from_indices(v).trim();
        let g = Trg::build(&t, window);
        let n = TraceStats::of(&t).num_distinct() as u64;
        let reuses = t.len() as u64 - n.min(t.len() as u64);
        for (x, y, w) in g.edges() {
            assert!(x != y);
            assert_eq!(g.weight(x, y), g.weight(y, x));
            assert!(w > 0);
            // One reuse contributes at most (window-1) conflict increments
            // to a single pair... loosely bound total by reuses*window.
            assert!(w <= reuses.max(1) * window as u64);
        }
    });
}

/// A larger window never removes edges or lowers weights.
#[test]
fn window_monotone() {
    check("window_monotone", |rng| {
        let v = ids(rng, 10, 200);
        let t = Trace::from_indices(v).trim();
        let small = Trg::build(&t, 4);
        let large = Trg::build(&t, 16);
        for (x, y, w) in small.edges() {
            assert!(large.weight(x, y) >= w);
        }
    });
}

/// Reduction emits every trace block exactly once, for any slot count.
#[test]
fn reduction_is_permutation() {
    check("reduction_is_permutation", |rng| {
        let v = ids(rng, 12, 200);
        let k = rng.gen_index(9) + 1;
        let t = Trace::from_indices(v).trim();
        let g = Trg::build(&t, 8);
        let out = reduce(&g, k, &t);
        let mut seq: Vec<u32> = out.sequence.iter().map(|b| b.0).collect();
        seq.sort_unstable();
        let stats = TraceStats::of(&t);
        let mut expect: Vec<u32> = stats.heat_order().iter().map(|b| b.0).collect();
        expect.sort_unstable();
        assert_eq!(seq, expect);
        // Slots partition the same set.
        let total: usize = out.slots.iter().map(Vec::len).sum();
        assert_eq!(total, stats.num_distinct());
    });
}

/// The end-to-end layout is deterministic.
#[test]
fn layout_deterministic() {
    check("layout_deterministic", |rng| {
        let v = ids(rng, 12, 150);
        let k = rng.gen_index(5) + 1;
        let t = Trace::from_indices(v).trim();
        let cfg = TrgConfig {
            window: 8,
            slots: k,
        };
        assert_eq!(trg_layout(&t, cfg), trg_layout(&t, cfg));
    });
}

/// Round-robin emission: the emitted sequence covers every distinct block
/// (structural check: emission never panics and covers all).
#[test]
fn emission_interleaves_slots() {
    check("emission_interleaves_slots", |rng| {
        let v = ids(rng, 12, 150);
        let t = Trace::from_indices(v).trim();
        let g = Trg::build(&t, 8);
        let out = reduce(&g, 3, &t);
        let slot_of = |b: BlockId| out.slots.iter().position(|s| s.contains(&b)).unwrap();
        for &b in &out.sequence {
            // Every emitted block belongs to exactly one slot.
            let _ = slot_of(b);
        }
        assert_eq!(out.sequence.len(), TraceStats::of(&t).num_distinct());
    });
}

/// Building from explicit edges then reducing never loses blocks that
/// appear in the trace.
#[test]
fn explicit_graph_reduction() {
    check("explicit_graph_reduction", |rng| {
        let npairs = rng.gen_index(12);
        let pairs: Vec<(u32, u32, u64)> = (0..npairs)
            .map(|_| {
                (
                    rng.gen_range_u32(0, 8),
                    rng.gen_range_u32(0, 8),
                    rng.gen_range_u64(1, 50),
                )
            })
            .collect();
        let clean: Vec<(u32, u32, u64)> = pairs.into_iter().filter(|(a, b, _)| a != b).collect();
        let g = Trg::from_edges(&clean);
        let trace = TrimmedTrace::from_indices(0..8u32);
        let out = reduce(&g, 3, &trace);
        assert_eq!(out.sequence.len(), 8);
    });
}
