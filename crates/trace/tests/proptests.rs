//! Property-based tests for the trace crate's core data structures,
//! driven by the seeded `clop_util::check` harness.

use clop_oracle::footprint_between;
use clop_trace::footprint::FootprintCurve;
use clop_trace::io;
use clop_trace::{BlockId, LruStack, ReuseHistogram, Trace, TraceStats, TrimmedTrace};
use clop_util::check::{check, vec_of_indices};

/// Footprints are symmetric in their endpoints and bounded by the window
/// length and the number of distinct blocks.
#[test]
fn footprint_bounds() {
    check("footprint_bounds", |rng| {
        let v = vec_of_indices(rng, 60, 8);
        let t = Trace::from_indices(v).trim();
        if t.len() < 2 {
            return;
        }
        let n = t.len();
        for a in (0..n).step_by(3) {
            for b in (a..n).step_by(5) {
                let fp = footprint_between(&t, a, b);
                assert_eq!(fp, footprint_between(&t, b, a));
                assert!(fp >= 1);
                assert!(fp <= b - a + 1);
                assert!(fp <= TraceStats::of(&t).num_distinct());
            }
        }
    });
}

/// Footprints are monotone under window extension.
#[test]
fn footprint_monotone() {
    check("footprint_monotone", |rng| {
        let v = vec_of_indices(rng, 60, 8);
        let t = Trace::from_indices(v).trim();
        if t.len() < 3 {
            return;
        }
        let n = t.len();
        for a in 0..n.saturating_sub(2) {
            let f1 = footprint_between(&t, a, a + 1);
            let f2 = footprint_between(&t, a, a + 2);
            assert!(f2 >= f1);
        }
    });
}

/// The footprint curve is monotone non-decreasing and bounded by the
/// distinct-block count; fp(1) is exactly 1 for non-empty traces.
#[test]
fn footprint_curve_shape() {
    check("footprint_curve_shape", |rng| {
        let v = vec_of_indices(rng, 120, 10);
        let t = Trace::from_indices(v).trim();
        let w_max = t.len().clamp(1, 20);
        let c = FootprintCurve::measure(&t, w_max);
        if !t.is_empty() {
            assert!((c.at(1) - 1.0).abs() < 1e-12);
        }
        for w in 1..w_max {
            assert!(c.at(w + 1) + 1e-12 >= c.at(w));
            assert!(c.at(w) <= TraceStats::of(&t).num_distinct() as f64 + 1e-12);
        }
    });
}

/// The sampled curve interpolates between exact ladder points, so each
/// value lies within the exact values at the bracketing powers of two
/// (and matches exactly on the ladder itself).
#[test]
fn sampled_curve_brackets_exact() {
    check("sampled_curve_brackets_exact", |rng| {
        let v = vec_of_indices(rng, 200, 12);
        let t = Trace::from_indices(v).trim();
        if t.len() < 8 {
            return;
        }
        let w_max = t.len().min(32);
        let exact = FootprintCurve::measure(&t, w_max);
        let sampled = FootprintCurve::measure_sampled(&t, w_max);
        // Exact on ladder points.
        let mut w = 1usize;
        while w < w_max {
            assert!((sampled.at(w) - exact.at(w)).abs() < 1e-9, "ladder w={}", w);
            w *= 2;
        }
        assert!((sampled.at(w_max) - exact.at(w_max)).abs() < 1e-9);
        // Between ladder points: bracketed by the exact (monotone) values
        // at the surrounding ladder points.
        for w in 2..w_max {
            let lo = 1usize << (31 - (w as u32).leading_zeros());
            let hi = (lo * 2).min(w_max);
            assert!(
                sampled.at(w) >= exact.at(lo) - 1e-9,
                "w={} below bracket [{}, {}]",
                w,
                lo,
                hi
            );
            assert!(
                sampled.at(w) <= exact.at(hi) + 1e-9,
                "w={} above bracket [{}, {}]",
                w,
                lo,
                hi
            );
        }
    });
}

/// Reuse histogram totals are conserved.
#[test]
fn histogram_conservation() {
    check("histogram_conservation", |rng| {
        let v = vec_of_indices(rng, 200, 16);
        let t = Trace::from_indices(v).trim();
        let h = ReuseHistogram::measure(&t);
        assert_eq!(h.total(), t.len() as u64);
        assert_eq!(h.cold(), TraceStats::of(&t).num_distinct() as u64);
        let finite: u64 = (0..t.len()).map(|d| h.count_at(d)).sum();
        assert_eq!(finite + h.cold(), h.total());
    });
}

/// Trace IO round-trips arbitrary traces.
#[test]
fn trace_io_round_trip() {
    check("trace_io_round_trip", |rng| {
        let v = vec_of_indices(rng, 300, 1000);
        let t = Trace::from_indices(v);
        let mut buf = Vec::new();
        io::write_trace(&mut buf, &t).unwrap();
        assert_eq!(io::read_trace(&mut buf.as_slice()).unwrap(), t);
    });
}

/// Stack `top(w)` never repeats a block and respects the stack size.
#[test]
fn stack_top_is_distinct() {
    check("stack_top_is_distinct", |rng| {
        let v = vec_of_indices(rng, 150, 12);
        let w = rng.gen_index(14) + 1;
        let mut s = LruStack::new(12);
        for &x in &v {
            s.access(BlockId(x));
        }
        let top = s.top(w);
        let mut dedup = top.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(top.len(), dedup.len());
        assert!(top.len() <= w.min(s.len()));
    });
}

/// The trimmed trace is never longer than the raw trace and preserves
/// the multiset of blocks (as a set).
#[test]
fn trim_preserves_blocks() {
    check("trim_preserves_blocks", |rng| {
        let v = vec_of_indices(rng, 120, 10);
        let raw = Trace::from_indices(v.clone());
        let t = raw.trim();
        assert!(t.len() <= raw.len());
        let mut raw_set: Vec<u32> = v;
        raw_set.sort_unstable();
        raw_set.dedup();
        let mut trimmed_set: Vec<u32> = TraceStats::of(&t)
            .heat_order()
            .iter()
            .map(|b| b.0)
            .collect();
        trimmed_set.sort_unstable();
        assert_eq!(raw_set, trimmed_set);
    });
}

/// Every proper prefix of a serialized trace is rejected with a
/// structured error — never a panic, never an over-allocation. The
/// container frames the payload with an explicit length and checksum, so
/// a torn write at *any* byte boundary is detectable; decode memory stays
/// proportional to the bytes actually present (the payload is read as it
/// arrives instead of trusting the declared length).
#[test]
fn truncated_prefixes_always_fail_structurally() {
    check("truncation_prefix", |rng| {
        let v = vec_of_indices(rng, 120, 1_000_000);
        let t = Trace::from_indices(v);
        let mut buf = Vec::new();
        io::write_trace(&mut buf, &t).unwrap();
        for k in 0..buf.len() {
            let err = io::read_trace(&mut &buf[..k])
                .expect_err("proper prefix must not decode as a whole trace");
            assert!(
                matches!(err, clop_util::ClopError::TraceDecode { .. }),
                "prefix {}: unexpected variant {:?}",
                k,
                err
            );
        }
        // The full buffer still round-trips — the property above is about
        // proper prefixes only.
        assert_eq!(io::read_trace(&mut buf.as_slice()).unwrap(), t);
    });
}

#[test]
fn trimmed_io_restores_invariant_even_for_untrimmed_bytes() {
    // Write an untrimmed trace through the plain writer, read via
    // read_trimmed: invariant holds.
    let t = Trace::from_indices([4, 4, 4, 2, 2]);
    let mut buf = Vec::new();
    io::write_trace(&mut buf, &t).unwrap();
    let tt = io::read_trimmed(&mut buf.as_slice()).unwrap();
    assert_eq!(tt, TrimmedTrace::from_indices([4, 2]));
}
