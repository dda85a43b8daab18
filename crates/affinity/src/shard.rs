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
//! Every table is flat and indexed by rank or by pair: the core's
//! occurrence positions are one CSR whose rows are sized by the index's
//! counts, pair states are one array in creation order behind one hash map
//! on the packed rank pair (it holds only the pairs created), and older
//! pending runs live in one arena. Each block that makes an interaction
//! also keeps its partners by depth from its previous access with their
//! map values, so a walk that repeats (a loop) skips the probe. Block ids
//! enter only where they decide a pair's lo/hi direction (the lower id is
//! `lo`) and in the callers that key the output.
//!
//! **Cost.** Per event, a promotion in the `w_max + 1`-entry walk; per
//! partner interaction (`w_max - 1` per event), a memo read, a flag test
//! and a cursor compare, then either a run extension (one store) or a new
//! run, and at most one examination. An examination costs O(runs
//! resolved), with a forward count over the walk for an uncovered
//! occurrence and for each run whose witness exceeds the pair's credit so
//! far. An access of a block with no live pair whose first occurrence has
//! left the window makes no interaction at all: every pair it could touch
//! is dead, killed, or would be born dead. On traces without locality that
//! is most accesses (a 256-block random trace kills all of its 2.4k
//! pairs).
//!
//! **Memory.** The CSR holds one position per event, the per-block arrays
//! a few words per distinct block, and the walk at most `w_max + 1` of
//! them. The map, the pair states and the arena grow with the pairs
//! created and their runs. A memo row holds
//! at most `w_max - 1` entries and goes to a block at its first access
//! that makes an interaction: a block that only warms up the walk, or
//! whose pairs are all dead, costs none.
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
//!
//! **One pending per witness change.** Definition 3 credits each
//! occurrence of `a` with `min(bw, fw)`: `bw` is the footprint back to the
//! partner `x`'s previous access (the depth of `x` in the walk at the
//! access of `a`, plus one) and `fw` the footprint forward to `x`'s next
//! access. Only the per-pair maximum and the count of credited occurrences
//! are reported, and four facts let a run of occurrences stand for each of
//! its members:
//!
//! 1. Between two accesses of `x`, `x` only sinks in the walk, so the
//!    backward witnesses recorded for `a`'s occurrences never decrease, and
//!    none is recorded once `x` sinks to depth `w_max` (at most `w_max - 1`
//!    distinct values per `x`-interval).
//! 2. At `x`'s next access the forward witnesses of those occurrences never
//!    increase with position (the window start moves forward only), so the
//!    largest `min(bw, fw)` of a run of equal `bw` is the one of its
//!    earliest occurrence.
//! 3. An access of `x` that finds `a` at depth `>= w_max` does not examine
//!    `a`; every earlier occurrence of `a` is then out of window, and stays
//!    out for good, so runs carried past it credit their backward witness.
//! 4. Occurrences out of window at an examination form a prefix of the
//!    un-examined ones, because positions grow.
//!
//! So each pair direction keeps one record per run of equal backward
//! witness over consecutive occurrences (witness, first occurrence index
//! and position; the newest inline, older ones in the arena) and the index
//! of its first occurrence without a pending. An examination kills the
//! pair iff that uncovered occurrence lies out of window — the interaction
//! at which the per-occurrence engine found an out-of-window occurrence
//! with no pending. Otherwise it credits a run that starts out of window
//! with its witness (its out-of-window part credits exactly that and the
//! rest no more), a run inside the window with `min(bw, fw)` at its first
//! occurrence, and the uncovered in-window suffix with `fw` at its first
//! entry; every examined occurrence is credited, so the credit count is
//! the occurrence cursor. The per-occurrence engine survives as the
//! differential oracle of the tests (`shard/reference.rs`).

use clop_trace::shard::Shard;
use clop_trace::TraceStats;
use clop_util::FxHashMap;

/// Per-shard, per-pair report in pair-creation order: the pair's heat
/// ranks `(lo, hi)`, `lo` being the block with the lower id, then the max
/// credited footprint and the per-direction credited-occurrence counts.
pub(crate) type ShardPairs = Vec<((u32, u32), (u32, u64, u64))>;

/// No run, no recorded uncovered occurrence, no memo entry.
const NIL: u32 = u32::MAX;

/// Memo value of a pair born with an occurrence out of window (see
/// `born_dead` below). That test only ever turns true, so such a pair is
/// never created and the pair map does not hold it. A pair that loses
/// an occurrence later is marked [`KILLED`] instead, because it still
/// reports the credits it holds.
const DEAD: u32 = u32::MAX;

/// [`Pair::flags`] bits; the per-direction ones are shifted by `2 * d`.
/// `GAP`: [`Runs::gap`] holds the direction's first uncovered occurrence.
/// `OLDER`: [`Runs::older`] heads a chain of older runs.
/// `KILLED`: the pair has an *uncovered* occurrence — one whose partner
/// never comes within the window in either direction. The final filter
/// requires every occurrence of both blocks to be credited, so such a pair
/// can never survive: all further maintenance for it is skipped. Skipping
/// only withholds credits (never adds them), so the merged counts still
/// fall short of the trace-wide occurrence totals for every worker count
/// and the pair is filtered identically regardless of sharding.
const GAP: u32 = 1;
const OLDER: u32 = 2;
const KILLED: u32 = 16;

/// The part of a pair state every interaction reads. Per direction `d`
/// (0: the lower rank's occurrences, `row[next..]` of its CSR row still
/// un-examined):
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
struct Pair {
    /// Max footprint credited so far.
    thr: u32,
    /// Examination cursor. Every examined occurrence is credited, so it
    /// is also the direction's credit count.
    next: [u32; 2],
    /// One past the newest occurrence with a pending (`>= next`).
    covered: [u32; 2],
    /// The newest run's backward witness; 0 when the direction has none.
    bw: [u32; 2],
    /// `GAP`, `OLDER` and `KILLED` bits.
    flags: u32,
}

/// The part of a pair state a new run or an irregular examination reads.
#[derive(Clone, Copy, Debug)]
struct Runs {
    /// The first uncovered occurrence a push revealed (valid under `GAP`;
    /// trailing ones start at `covered`).
    gap: [u32; 2],
    /// The newest run's first occurrence index; it ends at `covered`.
    first: [u32; 2],
    /// The newest run's first occurrence position.
    pos: [u32; 2],
    /// Older runs in the arena, newest first (valid under `OLDER`).
    older: [u32; 2],
}

/// A run pushed out of a direction by a newer one.
#[derive(Clone, Copy, Debug)]
struct Run {
    bw: u32,
    pos: u32,
    len: u32,
    /// The next older run of the same direction, or `NIL`.
    prev: u32,
}

/// Every direction's older runs: one arena with a free list.
struct Arena {
    runs: Vec<Run>,
    free: u32,
}

impl Arena {
    fn push(&mut self, run: Run) -> u32 {
        if self.free == NIL {
            self.runs.push(run);
            (self.runs.len() - 1) as u32
        } else {
            let r = self.free;
            self.free = self.runs[r as usize].prev;
            self.runs[r as usize] = run;
            r
        }
    }
}

/// Forward footprint of a position `p`: the walk entries accessed at or
/// after it, `w_max + 1` (beyond the bound) for a position before the
/// window. The walk times are descending, so this branchless
/// (auto-vectorized) count over the tiny L1-resident array equals the
/// partition index.
fn forward(walk_times: &[u32], p: u32) -> u32 {
    walk_times.iter().map(|&t| u32::from(t >= p)).sum()
}

/// Run the one-pass analyzer over one shard of the trace; returns the
/// per-pair report and the core's occurrence count by heat rank.
///
/// Per access `a` at position `now`, the walk holds the `w_max + 1` most
/// recently used blocks with their last-access positions. Each partner `x`
/// at walk depth `i` in `1..w_max` interacts with the pair `(a, x)`:
///
/// 1. `x`'s un-examined occurrences are examined (see the module docs): the
///    pair dies if one without a pending has left the window, and
///    otherwise every one is credited — out-of-window ones with their
///    backward witness, in-window ones with `min(backward, forward)`, the
///    forward footprint being the count of walk entries at or after the
///    occurrence (`a` is their first partner access, so this is exactly
///    Definition 3's per-occurrence minimum).
/// 2. The current occurrence of `a` joins the direction's pendings with
///    backward witness `i + 1`, extending the newest run when the witness
///    is unchanged.
///
/// Occurrences whose partner never comes within the window in either
/// direction are credited nowhere, which the caller detects by counting.
///
/// `sh` indexes `stats.ranked_events()`; ranks only steer internal
/// indexing and cannot affect results.
pub(crate) fn measure_region(stats: &TraceStats, w_max: u32, sh: Shard) -> (ShardPairs, Vec<u32>) {
    let ev = stats.ranked_events();
    let ids = stats.heat_order();
    let nd = stats.num_distinct();
    let walk_len = w_max as usize + 1;
    // The core's occurrence positions, one CSR row per rank sized by the
    // index's count (an upper bound of the core's), filled left to right:
    // `row[r]` is the row's start and `fill[r]` its length so far.
    let mut row = Vec::with_capacity(nd);
    let mut total = 0usize;
    for &c in stats.heat_counts() {
        row.push(total);
        total += c as usize;
    }
    let mut occ = vec![0u32; total];
    let mut fill = vec![0u32; nd];
    // Per block: the position of its first core occurrence (`NIL` before
    // one), and its pairs created and not killed.
    let mut first_pos = vec![NIL; nd];
    let mut live = vec![0u32; nd];
    // The walk — the `walk_len` most recently used distinct blocks with
    // their last-access positions, most recent first — is maintained
    // directly as two parallel contiguous arrays: truncated LRU promotion
    // is exact for the top `k` entries, and an 84-byte rotate beats
    // enumerating a linked recency list every access. It never holds more
    // than the region's distinct blocks, whatever the window bound.
    let mut walk_blocks: Vec<u32> = Vec::with_capacity(walk_len.min(nd));
    let mut walk_times: Vec<u32> = Vec::with_capacity(walk_len.min(nd));

    // The pair map: `state index + 1` by packed rank pair.
    let mut table: FxHashMap<u64, u32> = FxHashMap::default();
    let mut pairs: Vec<Pair> = Vec::new();
    let mut pair_runs: Vec<Runs> = Vec::new();
    let mut keys: Vec<(u32, u32)> = Vec::new();
    let mut arena = Arena {
        runs: Vec::new(),
        free: NIL,
    };
    // Each block's partners at its previous access, by depth, with their
    // map values or `DEAD`: a block's walk mostly repeats from one access
    // to the next (loops), so most interactions skip the probe. The walk
    // holds at most `nd` blocks, which bounds the depth. `memo_row[r]` is
    // block r's row number, given at its first interacting access.
    let width = (w_max as usize).min(nd).saturating_sub(1);
    let mut memo_row = vec![NIL; nd];
    let mut memo: Vec<(u32, u32)> = Vec::new();

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
        // A block occurrence older than the window start can never be
        // credited by a pair created now: it has no pending for this pair
        // (the pair did not exist — had the partner been within the window
        // at that access, the pair would have been created then) and the
        // window start only moves forward, so its forward witness is
        // infinite for good. A pair born with such an occurrence on either
        // side is dead on arrival.
        let born_dead = |r: usize| first_pos[r] < wstart;

        let a = ra as usize;
        // This occurrence's index in `a`'s row (appended after the loop).
        let k = fill[a];
        // A block without a live pair whose first occurrence has left the
        // window has only dead pairs, killed ones, or pairs that would be
        // born dead: the access changes no pair state.
        let plimit = if live[a] == 0 && born_dead(a) {
            1
        } else {
            walk_blocks.len().min(w_max as usize)
        };
        let base = if plimit > 1 {
            if memo_row[a] == NIL {
                memo_row[a] = (memo.len() / width) as u32;
                memo.resize(memo.len() + width, (NIL, 0));
            }
            memo_row[a] as usize * width
        } else {
            0
        };
        // The depth `i` is the backward-witness footprint, not just a
        // subscript into the walk.
        #[allow(clippy::needless_range_loop)]
        for i in 1..plimit {
            let rx = walk_blocks[i];
            let x = rx as usize;
            let m = &mut memo[base + i - 1];
            if m.0 != rx {
                let key = (u64::from(ra.min(rx)) << 32) | u64::from(ra.max(rx));
                let mut v = table.get(&key).copied().unwrap_or(0);
                if v == 0 {
                    v = if born_dead(a) || born_dead(x) {
                        DEAD
                    } else {
                        pairs.push(Pair {
                            thr: 0,
                            next: [0; 2],
                            covered: [0; 2],
                            bw: [0; 2],
                            flags: 0,
                        });
                        pair_runs.push(Runs {
                            gap: [NIL; 2],
                            first: [0; 2],
                            pos: [0; 2],
                            older: [NIL; 2],
                        });
                        // A pair's direction is fixed by block id: `lo` is
                        // the block with the lower id.
                        keys.push(if ids[a] < ids[x] { (ra, rx) } else { (rx, ra) });
                        live[a] += 1;
                        live[x] += 1;
                        table.insert(key, pairs.len() as u32);
                        pairs.len() as u32
                    };
                }
                *m = (rx, v);
            }
            if m.1 == DEAD {
                continue;
            }
            let si = m.1 as usize - 1;
            let pair = &mut pairs[si];
            if pair.flags & KILLED != 0 {
                continue;
            }
            let (ad, xd) = if ra < rx { (0, 1) } else { (1, 0) };

            // Examine `x`: `a` is the first partner access after every
            // un-examined occurrence of x.
            let n = fill[x];
            if pair.next[xd] < n {
                let xflags = pair.flags >> (2 * xd);
                let mut thr = pair.thr;
                let gap = if xflags & GAP != 0 {
                    pair_runs[si].gap[xd]
                } else if pair.covered[xd] < n {
                    pair.covered[xd]
                } else {
                    NIL
                };
                if gap != NIL {
                    let p = occ[row[x] + gap as usize];
                    if p < wstart {
                        // Its forward witness is infinite for good.
                        pair.flags |= KILLED;
                        live[a] -= 1;
                        live[x] -= 1;
                        continue;
                    }
                    thr = thr.max(forward(&walk_times, p));
                }
                // A run credits `min(bw, fw)` at its first occurrence; one
                // that starts out of window reads a forward count of
                // `w_max + 1` there and so credits its witness. A witness
                // at or below the credit so far needs no count.
                let credit = |thr: u32, bw: u32, pos: u32| {
                    if bw <= thr {
                        thr
                    } else {
                        bw.min(forward(&walk_times, pos)).max(thr)
                    }
                };
                if pair.bw[xd] > thr {
                    thr = credit(thr, pair.bw[xd], pair_runs[si].pos[xd]);
                }
                if xflags & OLDER != 0 {
                    let mut r = pair_runs[si].older[xd];
                    while r != NIL {
                        let run = arena.runs[r as usize];
                        thr = credit(thr, run.bw, run.pos);
                        arena.runs[r as usize].prev = arena.free;
                        arena.free = r;
                        r = run.prev;
                    }
                }
                pair.thr = thr;
                pair.next[xd] = n;
                pair.covered[xd] = n;
                pair.bw[xd] = 0;
                pair.flags &= !((GAP | OLDER) << (2 * xd));
            }

            // The current occurrence of `a`: partner x at walk depth i
            // means a backward witness of footprint i + 1 <= w_max.
            if in_core {
                let bw = i as u32 + 1;
                if k != pair.covered[ad] || bw != pair.bw[ad] {
                    let runs = &mut pair_runs[si];
                    if k != pair.covered[ad] && pair.flags & (GAP << (2 * ad)) == 0 {
                        runs.gap[ad] = pair.covered[ad];
                        pair.flags |= GAP << (2 * ad);
                    }
                    if pair.bw[ad] != 0 {
                        let prev = if pair.flags & (OLDER << (2 * ad)) != 0 {
                            runs.older[ad]
                        } else {
                            NIL
                        };
                        runs.older[ad] = arena.push(Run {
                            bw: pair.bw[ad],
                            pos: runs.pos[ad],
                            len: pair.covered[ad] - runs.first[ad],
                            prev,
                        });
                        pair.flags |= OLDER << (2 * ad);
                    }
                    pair.bw[ad] = bw;
                    runs.first[ad] = k;
                    runs.pos[ad] = now;
                }
                pair.covered[ad] = k + 1;
            }
        }

        if in_core {
            occ[row[a] + k as usize] = now;
            fill[a] = k + 1;
            if k == 0 {
                first_pos[a] = now;
            }
        }
    }

    // Shard end: surviving pendings never saw an in-window partner access;
    // the forward extension is maximal, so their global forward witness is
    // infinite too and the backward witness is exact. A killed pair
    // reports the credits it held when it died, pendings included.
    let mut out = ShardPairs::new();
    for (((lo, hi), pair), runs) in keys.into_iter().zip(pairs).zip(pair_runs) {
        let mut thr = pair.thr;
        let mut fin = [0u64; 2];
        for (d, f) in fin.iter_mut().enumerate() {
            *f = u64::from(pair.next[d]);
            if pair.bw[d] != 0 {
                thr = thr.max(pair.bw[d]);
                *f += u64::from(pair.covered[d] - runs.first[d]);
            }
            let mut r = if pair.flags & (OLDER << (2 * d)) != 0 {
                runs.older[d]
            } else {
                NIL
            };
            while r != NIL {
                let run = arena.runs[r as usize];
                thr = thr.max(run.bw);
                *f += u64::from(run.len);
                r = run.prev;
            }
        }
        // Pairs whose co-residence fell entirely in the overlap carry no
        // credits here; the shard owning the occurrences reports them.
        if thr > 0 {
            let lo_dir = usize::from(lo > hi);
            out.push(((lo, hi), (thr, fin[lo_dir], fin[1 - lo_dir])));
        }
    }
    (out, fill)
}

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

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
    fn the_walk_is_sized_by_the_trace_not_the_window() {
        // A window bound past the trace's distinct blocks changes nothing,
        // and the largest one reserves nothing by it.
        let t = TrimmedTrace::from_indices([1u32, 2, 1, 3, 2, 1]);
        assert_eq!(
            sorted_pairs(&PairThresholds::measure(&t, 4)),
            sorted_pairs(&PairThresholds::measure(&t, u32::MAX))
        );
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
