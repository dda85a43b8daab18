//! Order statistics and digests used by the runner and by `compare`.

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The `p`-th percentile (0–100) with linear interpolation between the
/// closest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// The highest percentile of `n` samples that still leaves at least ten
/// samples beyond it, within 50–99.9 (the reporting rule for tails: a p99
/// of 200 samples rests on two values and says nothing). Below 20 samples
/// this is the median.
pub fn tail_percentile(n: usize) -> f64 {
    let p = 100.0 * (1.0 - 10.0 / n.max(1) as f64);
    (p * 10.0).floor().clamp(500.0, 999.0) / 10.0
}

/// First quartile, median and third quartile by the same rule as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method), so spreads computed here match an external check
/// of the same numbers. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        len => {
            let m = len + 1;
            let mut q = [0.0; 3];
            for (i, slot) in q.iter_mut().enumerate() {
                let i = i + 1;
                // j in 1..=len, so j - 1 and j (clamped) stay in range.
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            q
        }
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Geometric mean of positive values; 0 if any value is not positive or
/// the slice is empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return 0.0;
    }
    (values.iter().map(|x| x.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 64-bit FNV-1a, fed incrementally: the per-cell output digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mix `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mix one integer (little-endian) into the digest.
    pub fn u64(&mut self, x: u64) -> &mut Fnv {
        self.bytes(&x.to_le_bytes())
    }

    /// Mix a sequence of 32-bit ids, length-prefixed so that two
    /// sequences fed back to back cannot alias.
    pub fn ids(&mut self, ids: impl ExactSizeIterator<Item = u32>) -> &mut Fnv {
        self.u64(ids.len() as u64);
        for id in ids {
            self.bytes(&id.to_le_bytes());
        }
        self
    }
}
