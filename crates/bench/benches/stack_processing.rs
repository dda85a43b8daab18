//! Stack-processing throughput: the Olken/Fenwick LRU stack engine of
//! §II-F, the naive walk-based oracle it replaced, reuse-distance
//! histograms, and windowed footprint curves.

use clop_oracle::NaiveLruStack;
use clop_trace::footprint::FootprintCurve;
use clop_trace::{BlockId, LruStack, ReuseHistogram, TrimmedTrace};
use clop_util::bench::{quick, Runner};

fn synthetic_ids(len: usize, blocks: u32) -> Vec<u32> {
    let mut state = 0xE7037ED1A0B428DBu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len).map(|_| (next() % blocks as u64) as u32).collect()
}

fn main() {
    let r = Runner::from_args();
    // Smoke mode exercises every benchmark body on tiny inputs.
    let len = if quick() { 4_000 } else { 200_000 };

    for blocks in [64u32, 1024, 16_384, 65_536] {
        let ids = synthetic_ids(len, blocks);
        r.bench_with_elements(
            &format!("stack/access/{}", blocks),
            Some(ids.len() as u64),
            || {
                let mut s = LruStack::new(blocks as usize);
                let mut acc = 0usize;
                for &x in &ids {
                    let d = s.access(BlockId(x));
                    if d != LruStack::INFINITE {
                        acc += d;
                    }
                }
                acc
            },
        );
    }

    // The naive oracle on the same workload (smaller trace: it walks the
    // recency list to the accessed block's depth on every access). Kept
    // as the engine-vs-oracle speed reference.
    {
        let blocks = 16_384u32;
        let ids = synthetic_ids(if quick() { 500 } else { 20_000 }, blocks);
        r.bench_with_elements("stack/access_naive/16384", Some(ids.len() as u64), || {
            let mut s = NaiveLruStack::new(blocks as usize);
            let mut acc = 0usize;
            for &x in &ids {
                let d = s.access(BlockId(x));
                if d != NaiveLruStack::INFINITE {
                    acc += d;
                }
            }
            acc
        });
    }

    let ids = synthetic_ids(len, 16_384);
    r.bench("stack/access_bounded_w20", || {
        let mut s = LruStack::with_walk_bound(16_384, 20);
        for &x in &ids {
            s.access(BlockId(x));
        }
        s.len()
    });

    let t = TrimmedTrace::from_indices(synthetic_ids(len, 1024));
    r.bench("stack/reuse_histogram_200k", || ReuseHistogram::measure(&t));

    let t = TrimmedTrace::from_indices(synthetic_ids(len / 2, 1024));
    let fp_window = if quick() { 512 } else { 4096 };
    r.bench("stack/footprint_sampled_100k", || {
        FootprintCurve::measure_sampled(&t, fp_window)
    });
}
