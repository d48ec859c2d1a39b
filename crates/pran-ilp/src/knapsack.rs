//! Combinatorial building blocks: 0/1 knapsack and bin-packing bounds.
//!
//! PRAN's cell→server placement is bin-packing-shaped (Proposition: the
//! joint problem is NP-hard because it embeds knapsack). The exact DP here
//! doubles as an oracle in tests of the ILP solver, and the bin-packing
//! lower bounds let the evaluation report how far heuristics are from *any*
//! packing, not just from the ILP's.

/// An item with an integral weight and a real value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Integral weight (capacity units).
    pub weight: u64,
    /// Value gained by including the item.
    pub value: f64,
}

/// Exact 0/1 knapsack via dynamic programming over capacity.
///
/// Returns the chosen item indices and the total value. Runs in
/// `O(items · capacity)` time and `O(items · capacity)` memory — intended
/// for oracle use at modest capacities, not production packing.
pub fn knapsack_exact(items: &[Item], capacity: u64) -> (Vec<usize>, f64) {
    let cap = capacity as usize;
    let n = items.len();
    // best[i][w]: max value using items[..i] with weight budget w.
    let mut best = vec![vec![0.0f64; cap + 1]; n + 1];
    for (i, it) in items.iter().enumerate() {
        let w_it = it.weight as usize;
        for w in 0..=cap {
            let skip = best[i][w];
            let take = if w_it <= w {
                best[i][w - w_it] + it.value
            } else {
                f64::NEG_INFINITY
            };
            best[i + 1][w] = skip.max(take);
        }
    }
    // Backtrack.
    let mut chosen = Vec::new();
    let mut w = cap;
    for i in (0..n).rev() {
        if (best[i + 1][w] - best[i][w]).abs() > 1e-12 {
            chosen.push(i);
            w -= items[i].weight as usize;
        }
    }
    chosen.reverse();
    (chosen, best[n][cap])
}

/// Continuous (L1) lower bound on the number of unit-capacity bins:
/// `⌈Σ sizes / capacity⌉`.
pub fn binpack_lower_bound_l1(sizes: &[f64], capacity: f64) -> usize {
    assert!(capacity > 0.0);
    let total: f64 = sizes.iter().sum();
    (total / capacity).ceil() as usize
}

/// Martello–Toth L2 lower bound for bin packing with parameter sweep.
///
/// For each threshold `k ∈ (0, capacity/2]`, items are split into large
/// (`> capacity − k`), medium (`(capacity/2, capacity − k]`) and small
/// (`[k, capacity/2]`); large+medium each need their own bin and the small
/// ones can only use leftover space in medium bins. Returns the max over a
/// grid of thresholds (and never less than L1).
pub fn binpack_lower_bound_l2(sizes: &[f64], capacity: f64) -> usize {
    assert!(capacity > 0.0);
    let l1 = binpack_lower_bound_l1(sizes, capacity);
    let mut best = l1;
    let mut thresholds: Vec<f64> = sizes
        .iter()
        .copied()
        .filter(|&s| s > 0.0 && s <= capacity / 2.0)
        .collect();
    thresholds.push(capacity / 2.0);
    for &k in &thresholds {
        let n1 = sizes.iter().filter(|&&s| s > capacity - k).count();
        let medium: Vec<f64> = sizes
            .iter()
            .copied()
            .filter(|&s| s > capacity / 2.0 && s <= capacity - k)
            .collect();
        let n2 = medium.len();
        let small_sum: f64 = sizes
            .iter()
            .copied()
            .filter(|&s| s >= k && s <= capacity / 2.0)
            .sum();
        let free_in_medium: f64 = medium.iter().map(|&s| capacity - s).sum();
        let overflow = small_sum - free_in_medium;
        let extra = if overflow > 0.0 {
            (overflow / capacity).ceil() as usize
        } else {
            0
        };
        best = best.max(n1 + n2 + extra);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_exact_matches_hand_solution() {
        let items = [
            Item {
                weight: 3,
                value: 10.0,
            },
            Item {
                weight: 4,
                value: 13.0,
            },
            Item {
                weight: 2,
                value: 7.0,
            },
        ];
        let (chosen, v) = knapsack_exact(&items, 6);
        assert_eq!(v, 20.0);
        assert_eq!(chosen, vec![1, 2]);
    }

    #[test]
    fn knapsack_exact_zero_capacity() {
        let items = [Item {
            weight: 1,
            value: 5.0,
        }];
        let (chosen, v) = knapsack_exact(&items, 0);
        assert!(chosen.is_empty());
        assert_eq!(v, 0.0);
    }

    #[test]
    fn l1_bound_basic() {
        assert_eq!(binpack_lower_bound_l1(&[0.5, 0.5, 0.5], 1.0), 2);
        assert_eq!(binpack_lower_bound_l1(&[], 1.0), 0);
    }

    #[test]
    fn l2_dominates_l1_on_big_items() {
        // Six items of size 0.6: L1 says 4 bins, truth (and L2) says 6.
        let sizes = [0.6; 6];
        assert_eq!(binpack_lower_bound_l1(&sizes, 1.0), 4);
        assert_eq!(binpack_lower_bound_l2(&sizes, 1.0), 6);
    }

    #[test]
    fn l2_equals_l1_when_items_small() {
        let sizes = [0.1; 10];
        assert_eq!(binpack_lower_bound_l2(&sizes, 1.0), 1);
    }
}
