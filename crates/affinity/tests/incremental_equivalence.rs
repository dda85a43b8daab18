//! Property suite: the incremental affinity fold is bit-identical to the
//! batch analyzer for random shard permutations, including duplicate and
//! out-of-order delivery, with every delta measured from a standalone
//! segment in local coordinates (the streaming ingestion path).

use clop_affinity::{AffinityDelta, AffinityState, PairThresholds};
use clop_trace::shard::shards;
use clop_trace::shardfile::{read_shard, split_shards_columnar};
use clop_trace::TrimmedTrace;
use clop_util::check::{check_n, vec_of_indices};
use clop_util::Rng;

fn sorted_pairs(p: &PairThresholds) -> Vec<(u32, u32, u32)> {
    let mut v: Vec<(u32, u32, u32)> = p.pairs().map(|(x, y, t)| (x.0, y.0, t)).collect();
    v.sort_unstable();
    v
}

fn random_trimmed(rng: &mut Rng, max_len: usize, blocks: u32) -> TrimmedTrace {
    TrimmedTrace::from_indices(vec_of_indices(rng, max_len, blocks))
}

/// Deltas from explicitly extracted standalone segments: raw `shards` at a
/// forced shard count `k` (machine-independent), each segment re-based to
/// local coordinates exactly as a CLSH shard file would carry it.
fn segment_deltas(t: &TrimmedTrace, k: usize, w_max: u32) -> Vec<AffinityDelta> {
    let w = w_max.max(2) as usize;
    shards(t, k, w + 1, w)
        .iter()
        .enumerate()
        .map(|(i, sh)| {
            let seg = TrimmedTrace::from_events(t.events()[sh.start..sh.end].iter().copied());
            AffinityDelta::measure(
                i as u64,
                &seg,
                w_max,
                sh.core_start - sh.start,
                sh.core_end - sh.start,
            )
        })
        .collect()
}

#[test]
fn random_permutations_with_duplicates_match_batch() {
    check_n("affinity-incremental-permutations", 48, |rng| {
        let t = random_trimmed(rng, 600, 14);
        let w_max = rng.gen_range_u32(2, 9);
        let k = rng.gen_index(9) + 1;
        let batch = PairThresholds::measure(&t, w_max);

        let deltas = segment_deltas(&t, k, w_max);
        // Arrival schedule: every delta at least once, plus random
        // duplicate re-deliveries, in shuffled order.
        let mut schedule: Vec<usize> = (0..deltas.len()).collect();
        for _ in 0..rng.gen_index(deltas.len() + 1) {
            schedule.push(rng.gen_index(deltas.len().max(1)));
        }
        rng.shuffle(&mut schedule);

        let mut state = AffinityState::new(w_max);
        for &i in &schedule {
            state.absorb(&deltas[i]).unwrap();
        }
        assert_eq!(state.shards_absorbed(), deltas.len() as u64);
        assert_eq!(
            sorted_pairs(&state.finalize()),
            sorted_pairs(&batch),
            "k={} w_max={} schedule={:?}",
            k,
            w_max,
            schedule
        );
    });
}

#[test]
fn shard_files_round_trip_into_identical_state() {
    // The full streaming representation: serialize shards to CLSH files,
    // decode them, fold in reverse order — still bit-identical to batch.
    check_n("affinity-incremental-shardfiles", 24, |rng| {
        let t = random_trimmed(rng, 500, 11);
        if t.is_empty() {
            return;
        }
        let w_max = rng.gen_range_u32(2, 8);
        let pieces = rng.gen_index(6) + 1;
        let batch = PairThresholds::measure(&t, w_max);

        let mut state = AffinityState::new(w_max);
        for bytes in split_shards_columnar(&t, pieces, w_max, 0).iter().rev() {
            let sf = read_shard(&mut bytes.as_slice()).unwrap();
            let d = AffinityDelta::measure(sf.seq, &sf.trace, w_max, sf.core_start, sf.core_end);
            state.absorb(&d).unwrap();
        }
        assert_eq!(sorted_pairs(&state.finalize()), sorted_pairs(&batch));
    });
}

#[test]
fn snapshot_mid_stream_resumes_identically() {
    // Serialize the state at a random point in the arrival order, decode
    // it, and continue folding: the final thresholds must equal both the
    // uninterrupted fold and the batch analyzer.
    check_n("affinity-incremental-snapshot-resume", 24, |rng| {
        let t = random_trimmed(rng, 400, 10);
        let w_max = 6;
        let deltas = segment_deltas(&t, rng.gen_index(5) + 2, w_max);
        let cut = rng.gen_index(deltas.len() + 1);

        let mut state = AffinityState::new(w_max);
        for d in &deltas[..cut] {
            state.absorb(d).unwrap();
        }
        let mut resumed = AffinityState::from_bytes(&state.to_bytes()).unwrap();
        for d in &deltas[cut..] {
            resumed.absorb(d).unwrap();
        }
        // Re-delivering everything after resume must change nothing.
        for d in &deltas {
            assert!(!resumed.absorb(d).unwrap());
        }
        assert_eq!(
            sorted_pairs(&resumed.finalize()),
            sorted_pairs(&PairThresholds::measure(&t, w_max))
        );
    });
}
