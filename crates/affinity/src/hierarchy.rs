//! The affinity hierarchy (Definitions 4–5) and the layout traversal.
//!
//! Given pairwise thresholds, partitions are built level by level for `w`
//! from small to large. The paper's rule that "the lower-level group takes
//! precedence" is realized structurally: levels only *merge* the previous
//! level's groups (never split them), so a group formed at a small window —
//! the strongest affinity — survives intact at every coarser level. Two
//! groups merge at level `w` only when **every** cross pair has w-window
//! affinity (the clique condition of Definition 4).
//!
//! The final code order is the bottom-up traversal (paper §II-B): the
//! concatenation of the top level's groups, each group ordered by how its
//! sub-groups were merged, recursively down to single blocks in
//! first-appearance order.

use crate::analyzer::PairThresholds;
use crate::AffinityConfig;
use clop_trace::{BlockId, TraceStats, TrimmedTrace};

/// One level of the hierarchy: the w-window affinity partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AffinityPartition {
    w: u32,
    groups: Vec<Vec<BlockId>>,
}

impl AffinityPartition {
    /// The window size of this level.
    pub fn w(&self) -> u32 {
        self.w
    }

    /// The affinity groups, each in merge order (layout order).
    pub fn groups(&self) -> &[Vec<BlockId>] {
        &self.groups
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// The w-window affinity hierarchy of one trace.
#[derive(Clone, Debug)]
pub struct AffinityHierarchy {
    levels: Vec<AffinityPartition>,
    /// Final (top-level) atom list; concatenating it gives the layout.
    final_atoms: Vec<Vec<BlockId>>,
}

impl AffinityHierarchy {
    /// Build the hierarchy from pairwise thresholds.
    ///
    /// Blocks are seeded as singleton atoms in first-appearance order; at
    /// each level `w` in `config.w_min ..= config.w_max`, atoms merge
    /// greedily along affinity edges in ascending threshold order, subject
    /// to the all-cross-pairs clique condition.
    pub fn build(
        trace: &TrimmedTrace,
        thresholds: &PairThresholds,
        config: AffinityConfig,
    ) -> Self {
        Self::build_from_stats(&TraceStats::of(trace), thresholds, config)
    }

    /// [`AffinityHierarchy::build`] from the trace index alone — the
    /// incremental serving path folds [`clop_trace::StatsState`] from
    /// shards and never materializes the full trace.
    ///
    /// The hierarchy reads two statistics: first-appearance positions,
    /// only ever compared (edge tie-breaks, atom precedence, final-atom
    /// order), and occurrence counts (group heat, summed as atoms merge).
    /// Atoms are numbered by first appearance, so both are plain array
    /// reads and the atoms listed in index order are already in
    /// first-appearance order.
    pub fn build_from_stats(
        stats: &TraceStats,
        thresholds: &PairThresholds,
        config: AffinityConfig,
    ) -> Self {
        let ids = stats.heat_order();
        let first = stats.first_ranks();
        let n = first.len();
        // First-appearance position of each heat rank.
        let mut pos = vec![0usize; n];
        for (i, &r) in first.iter().enumerate() {
            pos[r as usize] = i;
        }

        // Union-find over first-appearance positions. Each root keeps its
        // atom's ordered members (the root's own block first) and its
        // summed heat.
        let mut parent: Vec<usize> = (0..n).collect();
        let mut members: Vec<Vec<BlockId>> = first.iter().map(|&r| vec![ids[r as usize]]).collect();
        let mut heat: Vec<u64> = first
            .iter()
            .map(|&r| stats.heat_counts()[r as usize])
            .collect();

        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }

        // The atoms, earliest first appearance first.
        let roots = |parent: &mut [usize]| -> Vec<usize> {
            (0..parent.len())
                .filter(|&i| find(parent, i) == i)
                .collect()
        };

        // Edges sorted by (threshold, first appearance of endpoints).
        let mut edges: Vec<(u32, usize, usize)> = thresholds
            .pairs()
            .filter_map(|(x, y, t)| {
                let (a, b) = (pos[stats.rank(x)? as usize], pos[stats.rank(y)? as usize]);
                Some((t, a.min(b), a.max(b)))
            })
            .collect();
        edges.sort_unstable();

        let mut levels = Vec::new();
        let mut ei = 0usize;
        for w in config.w_min..=config.w_max {
            while ei < edges.len() && edges[ei].0 <= w {
                let (_, x, y) = edges[ei];
                ei += 1;
                let (rx, ry) = (find(&mut parent, x), find(&mut parent, y));
                if rx == ry {
                    continue;
                }
                // Clique condition: every cross pair within the window.
                let ok = members[rx].iter().all(|&a| {
                    members[ry]
                        .iter()
                        .all(|&b| thresholds.has_affinity(a, b, w))
                });
                if !ok {
                    continue;
                }
                // The atom that appeared earlier keeps its position.
                let (keep, gone) = (rx.min(ry), rx.max(ry));
                let moved = std::mem::take(&mut members[gone]);
                members[keep].extend(moved);
                heat[keep] += heat[gone];
                parent[gone] = keep;
            }
            let groups = roots(&mut parent)
                .iter()
                .map(|&r| members[r].clone())
                .collect();
            levels.push(AffinityPartition { w, groups });
        }

        // Between-group order in the final layout: hottest groups first
        // (ties by first appearance). The bottom-up traversal fixes the
        // order *within* each group; packing the heavily-executed groups
        // together minimizes the hot footprint, so hot code occupies the
        // fewest cache lines.
        let mut top = roots(&mut parent);
        top.sort_unstable_by_key(|&r| (std::cmp::Reverse(heat[r]), r));

        AffinityHierarchy {
            levels,
            final_atoms: top
                .into_iter()
                .map(|r| std::mem::take(&mut members[r]))
                .collect(),
        }
    }

    /// The partition at window `w`, if that level was computed.
    pub fn partition_at(&self, w: u32) -> Option<&AffinityPartition> {
        self.levels.iter().find(|p| p.w == w)
    }

    /// All levels, smallest window first.
    pub fn levels(&self) -> &[AffinityPartition] {
        &self.levels
    }

    /// The bottom-up traversal: the optimized code-block order.
    pub fn layout(&self) -> Vec<BlockId> {
        self.final_atoms.iter().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::PairThresholds;

    fn build(ids: &[u32], w_max: u32) -> AffinityHierarchy {
        let t = TrimmedTrace::from_indices(ids.iter().copied());
        let thr = PairThresholds::measure(&t, w_max);
        AffinityHierarchy::build(&t, &thr, AffinityConfig { w_min: 2, w_max })
    }

    #[test]
    fn levels_coarsen_monotonically() {
        let h = build(&[1, 4, 2, 4, 2, 3, 5, 1, 4], 8);
        let mut prev = usize::MAX;
        for lvl in h.levels() {
            assert!(lvl.num_groups() <= prev, "w={} grew", lvl.w());
            prev = lvl.num_groups();
        }
    }

    #[test]
    fn lower_level_groups_never_split() {
        let h = build(&[1, 4, 2, 4, 2, 3, 5, 1, 4], 8);
        for pair in h.levels().windows(2) {
            let (lo, hi) = (&pair[0], &pair[1]);
            for g in lo.groups() {
                // Every lower-level group is wholly contained in exactly
                // one higher-level group.
                let containing = hi
                    .groups()
                    .iter()
                    .filter(|hg| g.iter().all(|b| hg.contains(b)))
                    .count();
                assert_eq!(containing, 1, "group {:?} split between levels", g);
            }
        }
    }

    #[test]
    fn layout_preserves_group_contiguity() {
        let h = build(&[1, 4, 2, 4, 2, 3, 5, 1, 4], 5);
        let layout = h.layout();
        for lvl in h.levels() {
            for g in lvl.groups() {
                let positions: Vec<usize> = g
                    .iter()
                    .map(|b| layout.iter().position(|x| x == b).unwrap())
                    .collect();
                let (min, max) = (
                    *positions.iter().min().unwrap(),
                    *positions.iter().max().unwrap(),
                );
                assert_eq!(
                    max - min + 1,
                    g.len(),
                    "group {:?} not contiguous in {:?}",
                    g,
                    layout
                );
            }
        }
    }

    #[test]
    fn all_blocks_appear_exactly_once_per_level() {
        let h = build(&[0, 1, 2, 0, 3, 1, 4, 2, 0, 3], 6);
        for lvl in h.levels() {
            let mut all: Vec<u32> = lvl.groups().iter().flatten().map(|b| b.0).collect();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3, 4], "w = {}", lvl.w());
        }
    }

    #[test]
    fn partition_at_unknown_level_is_none() {
        let h = build(&[1, 2], 4);
        assert!(h.partition_at(2).is_some());
        assert!(h.partition_at(99).is_none());
    }

    #[test]
    fn isolated_blocks_stay_singletons() {
        // No pair is ever within w=2: strictly increasing trace.
        let h = build(&[0, 1, 2, 3, 4, 5], 2);
        // All groups singletons except pairs adjacent once... in a single
        // pass each adjacent pair occurs exactly once and both occurrences
        // are each other's neighbours → they do have 2-window affinity.
        // Use a trace where blocks are separated instead:
        let h2 = build(&[0, 1, 2, 0, 2, 1, 2, 0, 1], 2);
        let lvl = h2.partition_at(2).unwrap();
        // 0,1,2 interleave irregularly; no pair always adjacent.
        assert_eq!(lvl.num_groups(), 3, "{:?}", lvl.groups());
        drop(h);
    }
}
