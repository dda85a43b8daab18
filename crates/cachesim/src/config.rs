//! Cache geometry and access statistics.

/// Geometry of a set-associative cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Ways per set.
    pub associativity: u32,
    /// Line size in bytes (power of two).
    pub line_size: u64,
}

impl CacheConfig {
    /// The paper's L1 instruction cache: 32 KB, 4-way, 64-byte lines —
    /// the configuration both of the Xeon E5520 testbed and of the Pin
    /// simulator.
    pub const fn paper_l1i() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            associativity: 4,
            line_size: 64,
        }
    }

    /// Arbitrary geometry. Panics unless the parameters are consistent
    /// powers of two with a whole number of sets.
    pub fn new(size_bytes: u64, associativity: u32, line_size: u64) -> Self {
        let c = CacheConfig {
            size_bytes,
            associativity,
            line_size,
        };
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(associativity >= 1, "associativity must be at least 1");
        assert!(
            size_bytes.is_multiple_of(associativity as u64 * line_size),
            "capacity must be a whole number of sets"
        );
        assert!(c.num_sets() >= 1, "cache must have at least one set");
        c
    }

    /// Number of sets.
    #[inline]
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.associativity as u64 * self.line_size)
    }

    /// Total number of lines the cache can hold.
    #[inline]
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / self.line_size
    }

    /// The set a line index maps to.
    #[inline]
    pub fn set_of_line(&self, line: u64) -> u64 {
        line % self.num_sets()
    }
}

/// [`CacheConfig::set_of_line`] for a hot loop: the set count is computed
/// once, and a power-of-two count (the paper L1I has 128 sets) maps with
/// one mask instead of the two divides `set_of_line` performs.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SetIndex {
    sets: u64,
    /// `sets - 1` when `sets` is a power of two.
    mask: Option<u64>,
}

impl SetIndex {
    pub(crate) fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        SetIndex {
            sets,
            mask: sets.is_power_of_two().then(|| sets - 1),
        }
    }

    /// The set `line` maps to; equals `config.set_of_line(line)`.
    #[inline]
    pub(crate) fn of(&self, line: u64) -> usize {
        match self.mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.sets) as usize,
        }
    }
}

/// Access statistics of one simulated stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Misses among them.
    pub misses: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; zero for an empty stream.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Record one access.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.accesses += 1;
        if !hit {
            self.misses += 1;
        }
    }

    /// Merge another stream's statistics into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.misses += other.misses;
    }

    /// Relative miss-ratio reduction going from `self` (baseline) to
    /// `optimized`: positive when the optimized stream misses less.
    /// This is the "miss ratio reduction" metric of the paper's Table II.
    pub fn reduction_to(&self, optimized: &CacheStats) -> f64 {
        let base = self.miss_ratio();
        if base == 0.0 {
            return 0.0;
        }
        (base - optimized.miss_ratio()) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_geometry() {
        let c = CacheConfig::paper_l1i();
        assert_eq!(c.num_sets(), 128);
        assert_eq!(c.num_lines(), 512);
    }

    #[test]
    fn set_mapping_wraps() {
        let c = CacheConfig::paper_l1i();
        assert_eq!(c.set_of_line(0), 0);
        assert_eq!(c.set_of_line(128), 0);
        assert_eq!(c.set_of_line(129), 1);
    }

    #[test]
    fn set_index_matches_set_of_line() {
        for c in [
            CacheConfig::paper_l1i(),
            CacheConfig::new(3 * 4 * 64, 4, 64),
        ] {
            let ix = SetIndex::new(c);
            for line in (0..1000u64).chain([u64::MAX - 3, (5 << 58) | 77]) {
                assert_eq!(ix.of(line) as u64, c.set_of_line(line), "{:?} {}", c, line);
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole number of sets")]
    fn inconsistent_geometry_panics() {
        CacheConfig::new(1000, 4, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::new(32 * 1024, 4, 48);
    }

    #[test]
    fn stats_miss_ratio() {
        let mut s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        s.record(true);
        s.record(false);
        s.record(false);
        s.record(true);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_merge() {
        let mut a = CacheStats {
            accesses: 10,
            misses: 2,
        };
        a.merge(&CacheStats {
            accesses: 10,
            misses: 4,
        });
        assert_eq!(a.accesses, 20);
        assert_eq!(a.misses, 6);
    }

    #[test]
    fn reduction_metric() {
        let base = CacheStats {
            accesses: 100,
            misses: 10,
        };
        let opt = CacheStats {
            accesses: 100,
            misses: 6,
        };
        assert!((base.reduction_to(&opt) - 0.4).abs() < 1e-12);
        // Regression shows as negative reduction.
        assert!(
            base.reduction_to(&CacheStats {
                accesses: 100,
                misses: 20
            }) < 0.0
        );
        // Zero-baseline guards against division by zero.
        let z = CacheStats {
            accesses: 100,
            misses: 0,
        };
        assert_eq!(z.reduction_to(&opt), 0.0);
    }
}
