//! Block ids come from profiles the daemon does not control, so a valid,
//! checksummed shard may name any `u32`. Every entry point sizes its
//! tables by the trace rather than by its largest block id: a shard naming
//! block 4294967294 is folded, queried and answered like one naming block
//! 1, and the served orders equal the batch orders.
//!
//! Ids that share their low bits, as aligned addresses do, are folded and
//! answered the same way, and a shard naming many distinct ids but making
//! few pairs folds in memory bounded by its events.
//!
//! This is a binary of its own because the failure it guards against is
//! an allocation abort, which takes the whole test process down.

use clop_core::build_pipeline;
use clop_core::incremental::{AnalysisParams, VersionState};
use clop_serve::{admit, Admission, ServeConfig, Server, Session, SessionConfig};
use clop_trace::{split_shards_columnar, write_shard, BlockId, Pruner, StatsState, TrimmedTrace};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes the current thread holds and the most it has held, so
/// a test can bound what one call allocates while other tests run.
struct PerThread;

thread_local! {
    static HELD: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn account(delta: isize) {
    let _ = HELD.try_with(|h| {
        h.set(h.get() + delta);
        let _ = PEAK.try_with(|p| p.set(p.get().max(h.get())));
    });
}

unsafe impl GlobalAlloc for PerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        account(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        account(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PerThread = PerThread;

/// The result of `f` and the most bytes this thread held during it beyond
/// what it held before.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = HELD.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (out, (PEAK.with(Cell::get) - before) as usize)
}

const PIPELINES: [&str; 4] = ["function-affinity", "function-trg", "bb-affinity", "bb-trg"];

/// The two blocks of each hostile trace, the first one hotter.
const PAIRS: [(u32, u32); 2] = [(1, 4_294_967_294), (0, u32::MAX)];

/// A five-event trace alternating between the two blocks of `pair`.
fn trace((a, b): (u32, u32)) -> TrimmedTrace {
    TrimmedTrace::from_indices([a, b, a, b, a])
}

/// Valid CLSH shards of `t` (checksums included), one and two per trace.
fn shards(t: &TrimmedTrace, p: &AnalysisParams) -> Vec<Vec<Vec<u8>>> {
    [1, 2]
        .iter()
        .map(|&pieces| split_shards_columnar(t, pieces, p.affinity.w_max, p.trg.window))
        .collect()
}

fn batch_order(t: &TrimmedTrace, pipeline: &str, p: &AnalysisParams) -> Vec<u32> {
    let pipe = build_pipeline(pipeline, &p.pipeline_params()).unwrap();
    pipe.model.sequence(t).iter().map(|b| b.0).collect()
}

#[test]
fn admitted_shards_fold_and_answer_every_pipeline() {
    let p = AnalysisParams::default();
    for pair in PAIRS {
        let t = trace(pair);
        for files in shards(&t, &p) {
            let mut state = VersionState::new(p);
            for bytes in &files {
                let Admission::Accept { shard, .. } = admit(bytes, 0.0) else {
                    panic!("a valid shard of {:?} was not admitted", pair);
                };
                assert!(state.absorb_shard(&shard).unwrap());
            }
            for name in PIPELINES {
                let served: Vec<u32> = state
                    .layout_query(name)
                    .unwrap()
                    .order
                    .iter()
                    .map(|b| b.0)
                    .collect();
                assert_eq!(served, batch_order(&t, name, &p), "{:?} {}", pair, name);
            }
        }
    }
}

#[test]
fn the_daemon_answers_after_hostile_shards() {
    let p = AnalysisParams::default();
    let server = Server::start(ServeConfig {
        params: p,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut s = Session::new(server.addr(), SessionConfig::default()).unwrap();
    for (i, pair) in PAIRS.into_iter().enumerate() {
        let t = trace(pair);
        let version = format!("hostile-{}", i);
        for bytes in split_shards_columnar(&t, 2, p.affinity.w_max, p.trg.window) {
            s.send_shard(&version, &bytes).unwrap();
        }
        s.sync().unwrap();
        for name in ["bb-affinity", "bb-trg"] {
            let served = s.query(&version, name).unwrap();
            assert_eq!(served, batch_order(&t, name, &p), "{:?} {}", pair, name);
        }
    }
    assert_eq!(s.command("PING").unwrap(), "+PONG");
    assert_eq!(s.command("STOP").unwrap(), "+BYE");
    server.join();
}

#[test]
fn batch_entry_points_take_hostile_traces() {
    let p = AnalysisParams::default();
    for (a, b) in PAIRS {
        let t = trace((a, b));
        let mut blocks = vec![a, b];
        blocks.sort_unstable();
        for name in PIPELINES {
            let mut order = batch_order(&t, name, &p);
            order.sort_unstable();
            assert_eq!(order, blocks, "{}", name);
        }

        let pruned = Pruner::new(1).prune(&t);
        assert_eq!(pruned.kept, vec![BlockId(a)]);
        assert_eq!(pruned.trace.events(), &[BlockId(a)]);
        assert!((pruned.retention - 0.6).abs() < 1e-12);

        let mut state = StatsState::new();
        assert!(state.absorb(0, t.events()));
        let stats = state.finalize();
        assert_eq!(stats.heat_order(), &[BlockId(a), BlockId(b)]);
        assert_eq!(stats.heat_counts(), &[3, 2]);
        assert_eq!(
            stats.first_appearance().collect::<Vec<_>>(),
            vec![BlockId(a), BlockId(b)]
        );
    }
}

#[test]
fn ids_sharing_their_low_half_fold_and_answer_every_pipeline() {
    // 128 groups of 8 blocks, each group looped 4 times: 4096 events over
    // 1024 ids that all end in the same 16 bits.
    let t = TrimmedTrace::from_indices(
        (0..128u32).flat_map(|g| (0..32u32).map(move |i| (g * 8 + i % 8) << 16 | 0x7)),
    );
    let p = AnalysisParams::default();
    let mut state = VersionState::new(p);
    for bytes in split_shards_columnar(&t, 4, p.affinity.w_max, p.trg.window) {
        let Admission::Accept { shard, .. } = admit(&bytes, 0.0) else {
            panic!("a valid shard was not admitted");
        };
        assert!(state.absorb_shard(&shard).unwrap());
    }
    assert_eq!(state.index().num_distinct(), 1024);
    for name in PIPELINES {
        let served: Vec<u32> = state
            .layout_query(name)
            .unwrap()
            .order
            .iter()
            .map(|b| b.0)
            .collect();
        assert_eq!(served, batch_order(&t, name, &p), "{}", name);
    }
}

#[test]
fn many_distinct_ids_with_few_pairs_fold_in_memory_bounded_by_the_shard() {
    // The backward overlap scans 65,536 ids that never recur and the core
    // loops over 8 others: 65,544 distinct ids, but only the core's blocks
    // and the scan's last few ids make pairs. A valid shard may carry any
    // overlap; only its last `lookback` events matter.
    let p = AnalysisParams::default();
    let scan: Vec<u32> = (0..65_536u32).map(|j| j << 8 | 0xff).collect();
    let core: Vec<u32> = (0..4_096u32).map(|i| i % 8).collect();
    let lookback = p.affinity.w_max.max(2) as usize;
    let lookback = lookback.max(p.trg.window) + 1;
    let fold = |overlap: &[u32]| {
        let segment = TrimmedTrace::from_indices(overlap.iter().chain(&core).copied());
        let mut bytes = Vec::new();
        write_shard(&mut bytes, 0, overlap.len(), segment.len(), &segment).unwrap();
        let Admission::Accept { shard, .. } = admit(&bytes, 0.0) else {
            panic!("a valid shard was not admitted");
        };
        let mut state = VersionState::new(p);
        let (absorbed, peak) = peak_during(|| state.absorb_shard(&shard));
        assert!(absorbed.unwrap());
        (state, peak, segment.len())
    };
    let (mut wide, peak, events) = fold(&scan);
    assert!(
        peak <= 128 * events,
        "absorbing {} events held {} bytes at peak",
        events,
        peak
    );
    let (mut cut, _, _) = fold(&scan[scan.len() - lookback..]);
    for name in PIPELINES {
        let order = |state: &mut VersionState| -> Vec<u32> {
            let result = state.layout_query(name).unwrap();
            result.order.iter().map(|b| b.0).collect()
        };
        assert_eq!(order(&mut wide), order(&mut cut), "{}", name);
    }
}
