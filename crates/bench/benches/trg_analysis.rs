//! TRG construction and reduction throughput across trace lengths, window
//! sizes and slot counts (paper complexity: O(N·Q) construction, up to
//! O(N³) reduction).

use clop_trace::TrimmedTrace;
use clop_trg::{reduce, Trg, TrgConfig};
use clop_util::bench::{quick, Runner};

fn synthetic_trace(len: usize, blocks: u32) -> TrimmedTrace {
    let mut state = 0xD1B54A32D192ED03u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    TrimmedTrace::from_indices((0..len).map(|_| (next() % blocks as u64) as u32))
}

fn main() {
    let r = Runner::from_args();
    // Smoke mode: tiny traces, every benchmark body still runs.
    let scale = if quick() { 50 } else { 1 };

    for len in [10_000usize, 50_000, 200_000] {
        let trace = synthetic_trace(len / scale, 128);
        r.bench_with_elements(
            &format!("trg/build/{}", len),
            Some((len / scale) as u64),
            || Trg::build(&trace, 256),
        );
    }

    // Sharded construction at explicit worker counts (bit-identical graph
    // for any count).
    {
        let trace = synthetic_trace(200_000 / scale, 128);
        for jobs in [1usize, 2, 8] {
            r.bench_with_elements(
                &format!("trg/build_sharded/200000/jobs{}", jobs),
                Some(trace.len() as u64),
                || Trg::build_jobs(&trace, 256, jobs),
            );
        }
    }

    let trace = synthetic_trace(50_000 / scale, 128);
    for q in [32usize, 128, 512] {
        r.bench(&format!("trg/window/{}", q), || Trg::build(&trace, q));
    }

    let trg = Trg::build(&trace, 256);
    for k in [8usize, 32, 128] {
        r.bench(&format!("trg/reduce/{}", k), || reduce(&trg, k, &trace));
    }

    r.bench("trg/layout_default", || {
        clop_trg::trg_layout(&trace, TrgConfig::default())
    });

    // Reference-shaped graph: 240k events over ~1000 blocks under the
    // default window (256) and slot count (128) give a near-complete TRG,
    // like the reference profiles' (~1000 blocks, ~440k edges). The
    // 128-block rows above cannot see the cost of a reduction that grows
    // with the edge count. Both rows share one trace, so their ratio is
    // machine-independent; quick mode keeps the full size, because a
    // shorter trace would shrink the build but not the near-complete graph.
    {
        let config = TrgConfig::default();
        let trace = synthetic_trace(240_000, 1000);
        r.bench_with_elements("trg/build_dense", Some(trace.len() as u64), || {
            Trg::build(&trace, config.window)
        });
        let trg = Trg::build(&trace, config.window);
        r.bench("trg/reduce_dense", || reduce(&trg, config.slots, &trace));
    }
}
