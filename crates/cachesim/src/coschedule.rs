//! Co-scheduling: choosing which programs to pair on a shared cache.
//!
//! The paper builds on the observation (Jiang et al., cited in §IV) that
//! optimal job co-scheduling on CMPs is hard and heuristics are needed.
//! With the footprint-composition model of [`crate::model`], pairwise
//! interference can be *predicted from solo traces alone*, which turns
//! pairing into a weighted matching problem. This module provides:
//!
//! * [`interference_matrix`] — predicted co-run miss probabilities for
//!   every ordered pair of programs,
//! * [`greedy_pairing`] — pairing by greedy matching (the standard
//!   co-scheduling baseline),
//! * [`optimal_pairing`] — exhaustive minimum-cost matching, affordable at
//!   co-scheduling fleet sizes,
//! * [`all_pairings`] — the full matching space, for ranking a schedule
//!   against every alternative,
//! * [`pairing_cost`] — evaluate any proposed pairing under the matrix.

use crate::model::CompositionModel;

/// Predicted interference for every ordered pair: `matrix[i][j]` is the
/// co-run miss probability of program `i` when sharing a cache of
/// `capacity` blocks with program `j`. Diagonals are self-pairs.
pub fn interference_matrix(models: &[CompositionModel], capacity: usize) -> Vec<Vec<f64>> {
    models
        .iter()
        .map(|subject| {
            models
                .iter()
                .map(|peer| subject.corun_miss_probability(peer, capacity, 1.0))
                .collect()
        })
        .collect()
}

/// The symmetric cost of pairing `i` with `j`: the sum of both directions'
/// predicted miss probabilities.
pub fn pair_cost(matrix: &[Vec<f64>], i: usize, j: usize) -> f64 {
    matrix[i][j] + matrix[j][i]
}

/// Greedily pair programs to minimize total predicted interference:
/// repeatedly take the cheapest unpaired pair. With an odd count, one
/// program is left to run alone (returned separately).
pub fn greedy_pairing(matrix: &[Vec<f64>]) -> Pairing {
    let n = matrix.len();
    let mut pairs = Vec::new();
    let mut used = vec![false; n];
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            candidates.push((pair_cost(matrix, i, j), i, j));
        }
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (_, i, j) in candidates {
        if !used[i] && !used[j] {
            used[i] = true;
            used[j] = true;
            pairs.push((i, j));
        }
    }
    let leftover = (0..n).find(|&i| !used[i]);
    (pairs, leftover)
}

/// Total predicted interference of a proposed pairing.
pub fn pairing_cost(matrix: &[Vec<f64>], pairs: &[(usize, usize)]) -> f64 {
    pairs.iter().map(|&(i, j)| pair_cost(matrix, i, j)).sum()
}

/// A schedule: the chosen pairs plus, for odd fleets, the program left
/// to run alone.
pub type Pairing = (Vec<(usize, usize)>, Option<usize>);

/// Every perfect matching of `0..n` (for odd `n`, every near-perfect
/// matching — each program may be the one left unpaired). The count is
/// (n-1)!! for even n, so this is only meant for the fleet sizes where
/// co-scheduling is decided by hand anyway (n ≤ ~12).
pub fn all_pairings(n: usize) -> Vec<Pairing> {
    fn recurse(unused: &[usize], current: &mut Vec<(usize, usize)>, out: &mut Vec<Pairing>) {
        match unused.len() {
            0 => out.push((current.clone(), None)),
            1 => out.push((current.clone(), Some(unused[0]))),
            _ => {
                let first = unused[0];
                for k in 1..unused.len() {
                    let partner = unused[k];
                    let rest: Vec<usize> = unused
                        .iter()
                        .copied()
                        .filter(|&x| x != first && x != partner)
                        .collect();
                    current.push((first, partner));
                    recurse(&rest, current, out);
                    current.pop();
                }
                // Odd counts: `first` may also be the leftover.
                if unused.len() % 2 == 1 {
                    let before = out.len();
                    recurse(&unused[1..], current, out);
                    for entry in &mut out[before..] {
                        entry.1 = Some(first);
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    let indices: Vec<usize> = (0..n).collect();
    recurse(&indices, &mut Vec::new(), &mut out);
    out
}

/// Exhaustive minimum-cost pairing. Greedy matching has a classic trap:
/// taking the cheapest pair first (say, the two smallest programs) can
/// force the two most expensive programs onto the same core. At
/// co-scheduling fleet sizes the full matching space is tiny, so the
/// optimum is affordable.
pub fn optimal_pairing(matrix: &[Vec<f64>]) -> Pairing {
    let n = matrix.len();
    if n == 0 {
        return (Vec::new(), None);
    }
    // `all_pairings(n)` is non-empty for n >= 1 (checked above); the
    // empty fallback is never reached.
    all_pairings(n)
        .into_iter()
        .min_by(|a, b| pairing_cost(matrix, &a.0).total_cmp(&pairing_cost(matrix, &b.0)))
        .unwrap_or((Vec::new(), None))
}

/// The worst (maximum-cost) pairing — useful as the adversarial
/// comparison in experiments.
pub fn worst_pairing(matrix: &[Vec<f64>]) -> Pairing {
    let n = matrix.len();
    let mut pairs = Vec::new();
    let mut used = vec![false; n];
    let mut candidates: Vec<(f64, usize, usize)> = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            candidates.push((pair_cost(matrix, i, j), i, j));
        }
    }
    candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    for (_, i, j) in candidates {
        if !used[i] && !used[j] {
            used[i] = true;
            used[j] = true;
            pairs.push((i, j));
        }
    }
    let leftover = (0..n).find(|&i| !used[i]);
    (pairs, leftover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clop_trace::TrimmedTrace;

    fn cyclic(n: u32, len: usize) -> CompositionModel {
        let t = TrimmedTrace::from_indices((0..len).map(|i| (i as u32) % n));
        CompositionModel::measure(&t, 256)
    }

    /// Two big programs and two small ones in a cache that fits big+small
    /// but not big+big: the good pairing mixes sizes.
    fn models() -> Vec<CompositionModel> {
        vec![
            cyclic(20, 2000),
            cyclic(20, 2000),
            cyclic(4, 400),
            cyclic(4, 400),
        ]
    }

    #[test]
    fn matrix_is_square_and_in_range() {
        let m = interference_matrix(&models(), 26);
        assert_eq!(m.len(), 4);
        for row in &m {
            assert_eq!(row.len(), 4);
            for &v in row {
                assert!((0.0..=1.0).contains(&v), "{}", v);
            }
        }
    }

    #[test]
    fn big_big_pairs_cost_more_than_big_small() {
        let m = interference_matrix(&models(), 26);
        assert!(pair_cost(&m, 0, 1) > pair_cost(&m, 0, 2));
    }

    #[test]
    fn greedy_mixes_sizes() {
        let m = interference_matrix(&models(), 26);
        let (pairs, leftover) = greedy_pairing(&m);
        assert_eq!(pairs.len(), 2);
        assert!(leftover.is_none());
        // No pair may hold both big programs (0 and 1).
        for &(i, j) in &pairs {
            assert!(
                !(i == 0 && j == 1),
                "greedy paired the two big programs: {:?}",
                pairs
            );
        }
    }

    #[test]
    fn greedy_beats_worst() {
        let m = interference_matrix(&models(), 26);
        let (good, _) = greedy_pairing(&m);
        let (bad, _) = worst_pairing(&m);
        assert!(pairing_cost(&m, &good) <= pairing_cost(&m, &bad));
    }

    #[test]
    fn odd_count_leaves_one_alone() {
        let ms = vec![cyclic(8, 400), cyclic(8, 400), cyclic(8, 400)];
        let m = interference_matrix(&ms, 20);
        let (pairs, leftover) = greedy_pairing(&m);
        assert_eq!(pairs.len(), 1);
        assert!(leftover.is_some());
    }

    #[test]
    fn empty_input() {
        let m = interference_matrix(&[], 16);
        let (pairs, leftover) = greedy_pairing(&m);
        assert!(pairs.is_empty());
        assert!(leftover.is_none());
    }

    #[test]
    fn all_pairings_counts() {
        assert_eq!(all_pairings(2).len(), 1);
        assert_eq!(all_pairings(3).len(), 3);
        assert_eq!(all_pairings(4).len(), 3);
        assert_eq!(all_pairings(6).len(), 15);
        // Odd n: every program appears as the leftover somewhere.
        let leftovers: std::collections::HashSet<usize> =
            all_pairings(5).iter().filter_map(|(_, l)| *l).collect();
        assert_eq!(leftovers.len(), 5);
    }

    /// The classic greedy-matching trap: the cheapest pair first forces
    /// the two most expensive programs together; exhaustive matching
    /// avoids it.
    #[test]
    fn optimal_escapes_greedy_trap() {
        // Symmetric cost halves (pair_cost doubles them, which preserves
        // the ordering): c(2,3)=0.1 is cheapest, but taking it forces
        // c(0,1)=10; the optimum is (0,2)+(1,3) at cost 2.
        let m = vec![
            vec![0.0, 10.0, 1.0, 5.0],
            vec![10.0, 0.0, 5.0, 1.0],
            vec![1.0, 5.0, 0.0, 0.1],
            vec![5.0, 1.0, 0.1, 0.0],
        ];
        let (greedy, _) = greedy_pairing(&m);
        let (optimal, leftover) = optimal_pairing(&m);
        assert!(leftover.is_none());
        assert!(greedy.contains(&(2, 3)), "greedy takes the cheap pair");
        assert!(pairing_cost(&m, &optimal) < pairing_cost(&m, &greedy));
        let mut sorted = optimal.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn optimal_never_worse_than_greedy() {
        let m = interference_matrix(&models(), 26);
        let (good, _) = greedy_pairing(&m);
        let (best, _) = optimal_pairing(&m);
        assert!(pairing_cost(&m, &best) <= pairing_cost(&m, &good) + 1e-12);
        // And it really is the minimum over the whole matching space.
        for (pairs, _) in all_pairings(4) {
            assert!(pairing_cost(&m, &best) <= pairing_cost(&m, &pairs) + 1e-12);
        }
    }

    #[test]
    fn pairing_cost_sums_pairs() {
        let m = interference_matrix(&models(), 26);
        let cost = pairing_cost(&m, &[(0, 2), (1, 3)]);
        assert!((cost - (pair_cost(&m, 0, 2) + pair_cost(&m, 1, 3))).abs() < 1e-12);
    }
}
