//! Property suite: the incremental TRG fold is bit-identical to the batch
//! builder for random shard permutations, including duplicate and
//! out-of-order delivery, and the stats-driven reduction matches the
//! trace-driven one.

use clop_trace::shard::shards;
use clop_trace::shardfile::{read_shard, split_shards_columnar};
use clop_trace::{StatsState, TraceStats, TrimmedTrace};
use clop_trg::{reduce, reduce_from_stats, Trg, TrgDelta, TrgState};
use clop_util::check::{check_n, vec_of_indices};
use clop_util::Rng;

fn sorted_edges(g: &Trg) -> Vec<(u32, u32, u64)> {
    let mut v: Vec<(u32, u32, u64)> = g.edges().map(|(x, y, w)| (x.0, y.0, w)).collect();
    v.sort_unstable();
    v
}

fn random_trimmed(rng: &mut Rng, max_len: usize, blocks: u32) -> TrimmedTrace {
    TrimmedTrace::from_indices(vec_of_indices(rng, max_len, blocks))
}

fn segment_deltas(t: &TrimmedTrace, k: usize, window: usize) -> Vec<TrgDelta> {
    shards(t, k, window + 1, 0)
        .iter()
        .enumerate()
        .map(|(i, sh)| {
            let seg = TrimmedTrace::from_events(t.events()[sh.start..sh.end].iter().copied());
            TrgDelta::measure(
                i as u64,
                &seg,
                window,
                sh.core_start - sh.start,
                sh.core_end - sh.start,
            )
        })
        .collect()
}

#[test]
fn random_permutations_with_duplicates_match_batch() {
    check_n("trg-incremental-permutations", 48, |rng| {
        let t = random_trimmed(rng, 600, 13);
        let window = rng.gen_index(24) + 1;
        let k = rng.gen_index(9) + 1;
        let batch = Trg::build(&t, window);

        let deltas = segment_deltas(&t, k, window);
        let mut schedule: Vec<usize> = (0..deltas.len()).collect();
        for _ in 0..rng.gen_index(deltas.len() + 1) {
            schedule.push(rng.gen_index(deltas.len().max(1)));
        }
        rng.shuffle(&mut schedule);

        let mut state = TrgState::new(window);
        for &i in &schedule {
            state.absorb(&deltas[i]).unwrap();
        }
        assert_eq!(state.shards_absorbed(), deltas.len() as u64);
        let folded = state.finalize();
        assert_eq!(
            sorted_edges(&folded),
            sorted_edges(&batch),
            "k={} window={} schedule={:?}",
            k,
            window,
            schedule
        );
    });
}

#[test]
fn shard_files_round_trip_into_identical_state() {
    // Full streaming representation: CLSH shard files carrying segments
    // sized for BOTH analyses (affinity w_max and the TRG window), decoded
    // and folded in reverse order.
    check_n("trg-incremental-shardfiles", 24, |rng| {
        let t = random_trimmed(rng, 500, 11);
        if t.is_empty() {
            return;
        }
        let window = rng.gen_index(16) + 1;
        let w_max = rng.gen_range_u32(2, 8);
        let pieces = rng.gen_index(6) + 1;
        let batch = Trg::build(&t, window);

        let mut state = TrgState::new(window);
        for bytes in split_shards_columnar(&t, pieces, w_max, window)
            .iter()
            .rev()
        {
            let sf = read_shard(&mut bytes.as_slice()).unwrap();
            let d = TrgDelta::measure(sf.seq, &sf.trace, window, sf.core_start, sf.core_end);
            state.absorb(&d).unwrap();
        }
        let folded = state.finalize();
        assert_eq!(sorted_edges(&folded), sorted_edges(&batch));
    });
}

#[test]
fn snapshot_mid_stream_resumes_identically() {
    check_n("trg-incremental-snapshot-resume", 24, |rng| {
        let t = random_trimmed(rng, 400, 10);
        let window = 8;
        let deltas = segment_deltas(&t, rng.gen_index(5) + 2, window);
        let cut = rng.gen_index(deltas.len() + 1);

        let mut state = TrgState::new(window);
        for d in &deltas[..cut] {
            state.absorb(d).unwrap();
        }
        let mut resumed = TrgState::from_bytes(&state.to_bytes()).unwrap();
        for d in &deltas[cut..] {
            resumed.absorb(d).unwrap();
        }
        for d in &deltas {
            assert!(!resumed.absorb(d).unwrap());
        }
        let folded = resumed.finalize();
        let batch = Trg::build(&t, window);
        assert_eq!(sorted_edges(&folded), sorted_edges(&batch));
    });
}

#[test]
fn partial_fold_of_a_later_shard_reduces() {
    // Shard 1 alone: its first-appearance order is [3, 0, 4, 5, 6], but
    // its edges also name blocks 1, 2, 7 and 8, whose first appearance
    // lies in shard 0's core. The reduction must still order every block
    // it sees.
    let t = TrimmedTrace::from_indices([0, 7, 8, 1, 2, 3, 0, 4, 5, 6, 4]);
    let window = 16;
    let regions = shards(&t, 2, window + 1, 0);
    let deltas = segment_deltas(&t, 2, window);
    let core = |i: usize| &t.events()[regions[i].core_start..regions[i].core_end];
    let mut trg_state = TrgState::new(window);
    let mut stats = StatsState::new();
    trg_state.absorb(&deltas[1]).unwrap();
    stats.absorb(1, core(1));
    let partial = trg_state.finalize();
    let order = stats.finalize();
    let node_ids: Vec<u32> = order.first_appearance().map(|b| b.0).collect();
    assert_eq!(node_ids, vec![3, 0, 4, 5, 6]);
    let mut expect: Vec<u32> = partial
        .edges()
        .flat_map(|(x, y, _)| [x.0, y.0])
        .chain(node_ids)
        .collect();
    expect.sort_unstable();
    expect.dedup();
    assert!(expect.contains(&7), "the shard's edges reach into shard 0");
    for k in [1usize, 2, 3, 128] {
        let out = reduce_from_stats(&partial, k, &order);
        let mut seq: Vec<u32> = out.sequence.iter().map(|b| b.0).collect();
        seq.sort_unstable();
        assert_eq!(seq, expect, "k={}", k);
    }

    // Completing the fold restores the batch output.
    trg_state.absorb(&deltas[0]).unwrap();
    stats.absorb(0, core(0));
    let batch = Trg::build(&t, window);
    for k in [1usize, 2, 3, 128] {
        assert_eq!(
            reduce_from_stats(&trg_state.finalize(), k, &stats.finalize()),
            reduce(&batch, k, &t),
            "k={}",
            k
        );
    }
}

#[test]
fn stats_driven_reduction_matches_trace_driven() {
    check_n("trg-reduce-from-stats", 32, |rng| {
        let t = random_trimmed(rng, 500, 12);
        let window = rng.gen_index(16) + 1;
        let k = rng.gen_index(6) + 1;
        let trg = Trg::build(&t, window);
        let stats = TraceStats::of(&t);
        assert_eq!(
            reduce_from_stats(&trg, k, &stats),
            reduce(&trg, k, &t),
            "window={} k={}",
            window,
            k
        );
    });
}
