//! Shard-parallel w-window affinity measurement.
//!
//! The affinity analysis is a stream computation whose per-event work
//! depends only on the `w_max + 1` most recently used distinct blocks (the
//! walk). [`measure_region`] runs the one-pass analyzer over one
//! [`Shard`]: the backward overlap replays recency state, the core
//! attributes occurrences, and the forward extension resolves core
//! occurrences whose first partner access falls just past the core.
//! [`PairThresholds::measure_jobs`](crate::PairThresholds::measure_jobs)
//! fans the regions over the worker pool and merges with order-independent
//! reductions, so the result is bit-identical for any worker count.
//!
//! The kernel reads the trace only through its index
//! ([`clop_trace::TraceStats`]): the events as heat ranks, hottest first.
//! Every per-block and per-pair table is indexed by rank and sized by the
//! distinct-block count, so the hot pairs live in a small corner of the
//! pair table that stays cache-resident, and an id near `u32::MAX` costs
//! nothing. Block ids enter only where they decide a pair's lo/hi direction
//! (the lower id is `lo`) and in the callers that key the output.
//!
//! **Merge exactness.** Each shard reports, per pair and per direction, the
//! *max credited footprint* and the *count of credited occurrences*. Every
//! occurrence is attributed to exactly one core, and the overlap rules
//! guarantee the shard credits it with exactly the value a global pass
//! would (see the module docs in `clop_trace::shard` and DESIGN.md §10):
//!
//! * a finite forward witness `fp<p, q> <= w_max` implies the resolving
//!   partner access `q` lies within the forward extension (the window
//!   anchored at the last core event is contained in the one anchored at
//!   `p`), so the shard observes it;
//! * an infinite forward witness stays infinite as the window grows, so
//!   crediting the backward witness at shard end matches the global pass;
//! * the backward overlap (`w_max + 1` distinct blocks) makes the shard's
//!   walk — and hence every footprint read off it — exact for all core and
//!   extension positions.
//!
//! The merge is then `max` of thresholds and `sum` of credit counts; a pair
//! survives iff every occurrence of both blocks was credited (the counting
//! formulation of Definition 3's "every occurrence" quantifier — an
//! occurrence with no partner occurrence within the window is credited
//! nowhere, and the sum falls short of the trace-wide occurrence count).

use clop_trace::shard::Shard;
use clop_trace::TraceStats;
use clop_util::FxHashMap;

/// Per-shard, per-pair report in pair-creation order: the pair's heat
/// ranks `(lo, hi)`, `lo` being the block with the lower id, then the max
/// credited footprint and the per-direction credited-occurrence counts.
pub(crate) type ShardPairs = Vec<((u32, u32), (u32, u64, u64))>;

/// Resolution state for one direction (one block's occurrences) of a pair.
///
/// The direction does not store occurrence positions itself: those live in
/// the per-block append-only occurrence list, and `next` is a cursor into
/// it. An examination covers exactly `list[next..]` — a contiguous slice —
/// and the idle check is a single `next == list.len()` compare.
#[derive(Clone, Debug)]
struct DirState {
    /// Core occurrences with a finite backward witness, not yet examined by
    /// a partner access: `(global position, backward footprint)`, oldest
    /// first. Always a subset of the block's occurrence list at `next..`
    /// (pendings and list entries are appended together), so an examination
    /// consumes every pending by merging on position.
    pend: Vec<(u32, u32)>,
    /// Cursor into the block's occurrence list: entries before it are
    /// resolved (credited, or provably never creditable).
    next: u32,
    /// Max footprint credited so far.
    thr: u32,
    /// Number of occurrences credited (each with a finite footprint).
    fin: u32,
}

impl DirState {
    fn new() -> Self {
        DirState {
            pend: Vec::new(),
            next: 0,
            thr: 0,
            fin: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct PairState {
    lo: DirState,
    hi: DirState,
}

impl PairState {
    fn new() -> Self {
        PairState {
            lo: DirState::new(),
            hi: DirState::new(),
        }
    }
}

/// Pair-state table: a dense rank×rank index when the trace's distinct
/// block count is small (one array load per partner interaction instead of
/// a hash probe on the hot path), a hash map otherwise. Values are
/// `state index + 1`; 0 means absent and [`DEAD`] marks a killed pair.
const DENSE_PAIR_MAX: usize = 1024;

/// Pair-table sentinel for a pair with an *uncovered* occurrence — one
/// whose partner never comes within the window in either direction. The
/// final filter requires every occurrence of both blocks to be credited,
/// so such a pair can never survive: all further maintenance for it is
/// skipped, reducing each interaction to one table load. Skipping only
/// withholds credits (never adds them), so the merged counts still fall
/// short of the trace-wide occurrence totals for every worker count and
/// the pair is filtered identically regardless of sharding.
const DEAD: u32 = u32::MAX;

/// Run the one-pass analyzer over one shard of the trace.
///
/// Per access `a` at position `now`, the walk holds the `w_max + 1` most
/// recently used blocks with their last-access positions. Each partner `x`
/// at walk depth `1..w_max` interacts with the pair `(a, x)`:
///
/// 1. `x`-direction pendings whose position left the walk window have an
///    infinite forward witness; they resolve to their backward witness.
/// 2. Un-credited core occurrences of `x` still inside the window resolve
///    to `min(backward, forward)` where the forward footprint is the count
///    of walk entries at or after the occurrence — `a` is their first
///    partner access, so this is exactly Definition 3's per-occurrence
///    minimum.
/// 3. The current occurrence of `a` becomes a pending with backward
///    witness `depth(x) + 1`.
///
/// Occurrences whose partner never comes within the window in either
/// direction are credited nowhere, which the caller detects by counting.
///
/// `sh` indexes `stats.ranked_events()`; ranks only steer internal
/// indexing and cannot affect results.
pub(crate) fn measure_region(stats: &TraceStats, w_max: u32, sh: Shard) -> ShardPairs {
    let ev = stats.ranked_events();
    let ids = stats.heat_order();
    let nd = stats.num_distinct();
    let walk_len = w_max as usize + 1;
    // Per-block core-occurrence positions, append-only. Directions index
    // into these with their `next` cursor; nothing is ever pruned, so the
    // cursors stay valid and examinations read contiguous slices.
    let mut occ: Vec<Vec<u32>> = vec![Vec::new(); nd];
    // The walk — the `walk_len` most recently used distinct blocks with
    // their last-access positions, most recent first — is maintained
    // directly as two parallel contiguous arrays: truncated LRU promotion
    // is exact for the top `k` entries, and an 84-byte rotate beats
    // enumerating a linked recency list every access.
    let mut walk_blocks: Vec<u32> = Vec::with_capacity(walk_len);
    let mut walk_times: Vec<u32> = Vec::with_capacity(walk_len);

    let dense = nd <= DENSE_PAIR_MAX;
    // Triangular packing: half the footprint of a square matrix, and the
    // hottest pairs (both ranks small) cluster at the front.
    let tri = |ra: usize, rx: usize| {
        let (lo, hi) = if ra < rx { (ra, rx) } else { (rx, ra) };
        lo * nd - lo * (lo + 1) / 2 + hi
    };
    let mut idx: Vec<u32> = if dense {
        vec![0; nd * (nd + 1) / 2]
    } else {
        Vec::new()
    };
    let mut idx_map: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    let mut states: Vec<PairState> = Vec::new();
    let mut keys: Vec<(u32, u32)> = Vec::new();

    // A block occurrence older than the window start can never be credited
    // by a pair created now: it has no pending for this pair (the pair did
    // not exist — had the partner been within the window at that access,
    // the pair would have been created then) and the window start only
    // moves forward, so its forward witness is infinite for good. A pair
    // born with such an occurrence on either side is dead on arrival.
    let born_dead = |occ: &[Vec<u32>], r: u32, wstart: u32| {
        occ[r as usize].first().is_some_and(|&p| p < wstart)
    };

    // The index IS the trace position (`now`, window arithmetic), not just
    // a subscript; an enumerate/skip chain would bury that.
    #[allow(clippy::needless_range_loop)]
    for t in sh.start..sh.end {
        let ra = ev[t];
        let now = t as u32;
        // Promote `a` to the front of the walk. If `a` sits below the
        // truncation depth it is indistinguishable from unseen: either way
        // the other entries shift down one slot and the deepest falls off.
        let d = match walk_blocks.iter().position(|&b| b == ra) {
            Some(d) => d,
            None => {
                if walk_blocks.len() < walk_len {
                    walk_blocks.push(0);
                    walk_times.push(0);
                }
                walk_blocks.len() - 1
            }
        };
        walk_blocks.copy_within(0..d, 1);
        walk_times.copy_within(0..d, 1);
        walk_blocks[0] = ra;
        walk_times[0] = now;
        if t < sh.core_start {
            continue; // warm-up: recency state only
        }
        let in_core = t < sh.core_end;

        // First position still inside the walk window: a window starting
        // earlier holds more than w_max distinct blocks, so any footprint
        // read from it is infinite (beyond the bound). When the walk is
        // not yet full every position since the trace start is in window.
        let wstart = if walk_times.len() == walk_len {
            walk_times[walk_len - 1] + 1
        } else {
            0
        };

        let ai = ids[ra as usize];
        let plimit = walk_blocks.len().min(w_max as usize);
        // The depth `i` is the backward-witness footprint, not just a
        // subscript into the walk.
        #[allow(clippy::needless_range_loop)]
        for i in 1..plimit {
            let rx = walk_blocks[i];
            let cell = if dense {
                tri(ra as usize, rx as usize)
            } else {
                0
            };
            let raw = if dense {
                idx[cell]
            } else {
                idx_map.get(&(ra.min(rx), ra.max(rx))).copied().unwrap_or(0)
            };
            if raw == DEAD {
                continue;
            }
            let si = if raw == 0 {
                if born_dead(&occ, ra, wstart) || born_dead(&occ, rx, wstart) {
                    if dense {
                        idx[cell] = DEAD;
                    } else {
                        idx_map.insert((ra.min(rx), ra.max(rx)), DEAD);
                    }
                    continue;
                }
                states.push(PairState::new());
                // A pair's direction is fixed by block id: `lo` is the
                // block with the lower id. (Recomputed at each use: a flag
                // held across the loop body costs registers.)
                keys.push(if ai < ids[rx as usize] {
                    (ra, rx)
                } else {
                    (rx, ra)
                });
                let si = states.len();
                if dense {
                    idx[cell] = si as u32;
                } else {
                    idx_map.insert((ra.min(rx), ra.max(rx)), si as u32);
                }
                si
            } else {
                raw as usize
            };
            let st = &mut states[si - 1];
            let xdir = if ai < ids[rx as usize] {
                &mut st.hi
            } else {
                &mut st.lo
            };
            let list = &occ[rx as usize];
            // Fast path: no occurrence of x since the last examination —
            // nothing can be credited (pendings always have un-examined
            // list entries, so they imply `next < len` too).
            if (xdir.next as usize) < list.len() {
                // `a` is the first partner access after every un-examined
                // occurrence of x. Merge the pending queue (occurrences
                // with a finite backward witness) against the un-examined
                // tail of the occurrence list:
                //
                // * out-of-window occurrences have an infinite forward
                //   witness now and forever (windows only grow): the
                //   backward witness is exact, or absent — uncovered
                //   (skipped en masse by the partition below);
                // * in-window occurrences resolve to `min(backward,
                //   forward)`, the forward footprint being the count of
                //   walk entries at or after the occurrence — exactly
                //   Definition 3's per-occurrence minimum.
                let tail = &list[xdir.next as usize..];
                // Reverse scan: the in-window suffix is typically short and
                // freshly written, while the out-of-window prefix can be
                // long and cold.
                let mut in_win = tail.len();
                while in_win > 0 && tail[in_win - 1] >= wstart {
                    in_win -= 1;
                }
                // Pendings are a position-ordered subset of the tail, so
                // the out-of-window pendings map one-to-one into the
                // out-of-window tail prefix. Fewer pendings than prefix
                // entries means an uncovered occurrence: kill the pair.
                let pout = xdir.pend.partition_point(|&(pp, _)| pp < wstart);
                if pout < in_win {
                    if dense {
                        idx[cell] = DEAD;
                    } else {
                        idx_map.insert((ra.min(rx), ra.max(rx)), DEAD);
                    }
                    continue;
                }
                if xdir.thr == w_max {
                    // Saturated direction: the running max cannot grow
                    // (credits never exceed w_max), so only coverage
                    // counts matter. Every out-of-window pending credits
                    // its backward witness and every in-window tail entry
                    // credits a finite footprint — skip the per-entry
                    // value computation entirely.
                    xdir.fin += (pout + tail.len() - in_win) as u32;
                } else {
                    let mut pi = 0usize;
                    while pi < pout {
                        let (_, bw) = xdir.pend[pi];
                        pi += 1;
                        xdir.thr = xdir.thr.max(bw);
                        xdir.fin += 1;
                    }
                    for &p in &tail[in_win..] {
                        // The walk times are descending, so this
                        // branchless (auto-vectorized) count over the
                        // tiny L1-resident array equals the partition
                        // index.
                        let fw: u32 = walk_times.iter().map(|&tt| u32::from(tt >= p)).sum();
                        let v = match xdir.pend.get(pi) {
                            Some(&(pp, bw)) if pp == p => {
                                pi += 1;
                                bw.min(fw)
                            }
                            _ => fw,
                        };
                        xdir.thr = xdir.thr.max(v);
                        xdir.fin += 1;
                    }
                    // Every pending is either out of window or matched an
                    // in-window list entry: they are appended in the same
                    // step of the scan.
                    debug_assert_eq!(pi, xdir.pend.len());
                }
                xdir.pend.clear();
                xdir.next = list.len() as u32;
            }
            // The current occurrence of `a`: partner x at walk depth i
            // means a backward witness of footprint i + 1 <= w_max.
            if in_core {
                let adir = if ai < ids[rx as usize] {
                    &mut st.lo
                } else {
                    &mut st.hi
                };
                adir.pend.push((now, i as u32 + 1));
            }
        }

        if in_core {
            occ[ra as usize].push(now);
        }
    }

    // Shard end: surviving pendings never saw an in-window partner access;
    // the forward extension is maximal, so their global forward witness is
    // infinite too and the backward witness is exact.
    let mut out = ShardPairs::new();
    for ((lo, hi), mut st) in keys.into_iter().zip(states) {
        for dir in [&mut st.lo, &mut st.hi] {
            for (_, bw) in std::mem::take(&mut dir.pend) {
                dir.thr = dir.thr.max(bw);
                dir.fin += 1;
            }
        }
        let thr = st.lo.thr.max(st.hi.thr);
        // Pairs whose co-residence fell entirely in the overlap carry no
        // credits here; the shard owning the occurrences reports them.
        if thr > 0 {
            out.push(((lo, hi), (thr, u64::from(st.lo.fin), u64::from(st.hi.fin))));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::PairThresholds;
    use clop_trace::{BlockId, TrimmedTrace};

    fn random_trace(seed: u64, len: usize, blocks: u32) -> TrimmedTrace {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        TrimmedTrace::from_indices((0..len).map(|_| (next() % blocks as u64) as u32))
    }

    fn sorted_pairs(p: &PairThresholds) -> Vec<(u32, u32, u32)> {
        let mut v: Vec<(u32, u32, u32)> = p.pairs().map(|(x, y, t)| (x.0, y.0, t)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn sharded_measure_is_bit_identical_for_any_jobs() {
        for seed in 0..24u64 {
            let t = random_trace(seed, 400, 12);
            let reference = PairThresholds::measure_jobs(&t, 6, 1);
            for jobs in [2usize, 3, 5, 8, 64] {
                let sharded = PairThresholds::measure_jobs(&t, 6, jobs);
                assert_eq!(
                    sorted_pairs(&reference),
                    sorted_pairs(&sharded),
                    "seed {} jobs {}",
                    seed,
                    jobs
                );
            }
        }
    }

    #[test]
    fn sharded_measure_matches_naive_oracle() {
        for seed in 0..8u64 {
            let t = random_trace(seed.wrapping_add(100), 220, 9);
            let w_max = 5u32;
            for jobs in [1usize, 3, 7] {
                let eff = PairThresholds::measure_jobs(&t, w_max, jobs);
                for x in 0..9u32 {
                    for y in (x + 1)..9u32 {
                        let exact = clop_oracle::pair_threshold(&t, BlockId(x), BlockId(y))
                            .filter(|&v| v <= w_max);
                        assert_eq!(
                            eff.get(BlockId(x), BlockId(y)),
                            exact,
                            "seed {} jobs {} pair ({}, {})",
                            seed,
                            jobs,
                            x,
                            y
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_traces_shard_cleanly() {
        for ids in [vec![0u32], vec![0, 1], vec![0, 1, 0], vec![5, 9]] {
            let t = TrimmedTrace::from_indices(ids.clone());
            let reference = PairThresholds::measure_jobs(&t, 4, 1);
            for jobs in [2usize, 4, 16] {
                assert_eq!(
                    sorted_pairs(&reference),
                    sorted_pairs(&PairThresholds::measure_jobs(&t, 4, jobs)),
                    "ids {:?} jobs {}",
                    ids,
                    jobs
                );
            }
        }
    }
}
