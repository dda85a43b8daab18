//! Order statistics: the percentile, quartile and geomean rules the
//! report and `compare` rest on.

use clop_benchmark::stats::{
    geomean, median, percentile, quartiles, relative_spread, tail_percentile, Fnv,
};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn percentile_interpolates_between_ranks() {
    let v = [4.0, 1.0, 3.0, 2.0];
    assert!(close(percentile(&v, 0.0), 1.0));
    assert!(close(percentile(&v, 100.0), 4.0));
    assert!(close(percentile(&v, 50.0), 2.5));
    assert!(close(median(&v), 2.5));
    assert!(close(median(&[7.0]), 7.0));
    assert!(close(median(&[]), 0.0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(data, n=4), the default exclusive method.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            [2.75, 5.5, 8.25],
        ),
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
        (&[3.0, 1.0, 2.0], [1.0, 2.0, 3.0]),
        (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
    ];
    for (data, want) in cases {
        let got = quartiles(data);
        for (g, w) in got.iter().zip(want) {
            assert!(close(*g, w), "{:?}: got {:?}, want {:?}", data, got, want);
        }
    }
    assert_eq!(quartiles(&[2.0]), [2.0; 3]);
}

#[test]
fn relative_spread_is_iqr_over_median() {
    let v = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert!(close(relative_spread(&v), (4.5 - 1.5) / 3.0));
    assert!(close(relative_spread(&[5.0; 6]), 0.0));
}

#[test]
fn geomean_of_positive_values() {
    assert!(close(geomean(&[1.0, 100.0]), 10.0));
    assert!(close(geomean(&[2.0, 2.0, 2.0]), 2.0));
    assert_eq!(geomean(&[]), 0.0);
    assert_eq!(geomean(&[1.0, 0.0]), 0.0);
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    assert!(close(tail_percentile(1000), 99.0));
    assert!(close(tail_percentile(100), 90.0));
    assert!(close(tail_percentile(5), 50.0));
    assert!(close(tail_percentile(1_000_000), 99.9));
    // Too few samples for any tail: the median.
    assert!(close(tail_percentile(11), 50.0));
    for n in [20, 64, 128, 1152] {
        let beyond = n as f64 * (1.0 - tail_percentile(n) / 100.0);
        assert!(beyond >= 10.0 - 1e-9, "n={} leaves {}", n, beyond);
    }
}

#[test]
fn fnv_sequences_do_not_alias() {
    let digest = |a: &[u32], b: &[u32]| {
        let mut h = Fnv::default();
        h.ids(a.iter().copied()).ids(b.iter().copied());
        h.0
    };
    assert_ne!(digest(&[1, 2], &[3]), digest(&[1], &[2, 3]));
    assert_eq!(digest(&[1, 2], &[3]), digest(&[1, 2], &[3]));
}
