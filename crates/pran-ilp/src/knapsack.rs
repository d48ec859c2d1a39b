//! Combinatorial building blocks: an exact 0/1 knapsack over real weights
//! and lower bounds on bin packing.
//!
//! PRAN's cell→server placement is bin-packing-shaped (Proposition: the
//! joint problem is NP-hard because it embeds knapsack). The bounds say
//! how many bins any packing needs: the continuous bound (L1), Martello–
//! Toth L2, and the Gilmore–Gomory pattern bound, whose pricing step is
//! the knapsack.

use crate::{solve_lp, Cmp, LinExpr, LpStatus, Model, Sense};

/// Exact 0/1 knapsack over real weights: the most valuable set of items
/// whose weights sum to at most `capacity`.
///
/// Returns the chosen indices (ascending) and their total value. Weights
/// must be finite and non-negative; an item of non-positive value is never
/// chosen. Depth-first branch and bound over the items in decreasing value
/// density, each branch bounded by the Dantzig (fractional) fill of the
/// items after it. A branch is cut only when that bound cannot beat the
/// best set found, so the answer is the optimum up to float summation.
/// Exponential in the worst case: meant for the tens of items that one
/// bin's pattern is chosen from.
pub fn knapsack_max(weights: &[f64], values: &[f64], capacity: f64) -> (Vec<usize>, f64) {
    assert_eq!(weights.len(), values.len());
    let mut order: Vec<usize> = (0..weights.len())
        .filter(|&i| values[i] > 0.0 && weights[i] <= capacity)
        .collect();
    // Densest first; a weightless item has infinite density.
    let density = |i: usize| values[i] / weights[i];
    order.sort_by(|&a, &b| density(b).total_cmp(&density(a)).then(a.cmp(&b)));
    let mut search = KnapsackSearch {
        weights: order.iter().map(|&i| weights[i]).collect(),
        values: order.iter().map(|&i| values[i]).collect(),
        capacity,
        taken: Vec::new(),
        best: 0.0,
        best_set: Vec::new(),
    };
    search.descend(0, 0.0, 0.0);
    let mut chosen: Vec<usize> = search.best_set.iter().map(|&k| order[k]).collect();
    chosen.sort_unstable();
    let value = chosen.iter().map(|&i| values[i]).sum();
    (chosen, value)
}

/// [`knapsack_max`]'s search state over its density-ordered items.
struct KnapsackSearch {
    weights: Vec<f64>,
    values: Vec<f64>,
    capacity: f64,
    /// Positions taken on the current branch.
    taken: Vec<usize>,
    best: f64,
    best_set: Vec<usize>,
}

impl KnapsackSearch {
    /// Decide item `k` onwards with `load` and `value` already taken.
    fn descend(&mut self, k: usize, load: f64, value: f64) {
        if value > self.best {
            self.best = value;
            self.best_set.clone_from(&self.taken);
        }
        if k == self.weights.len() || self.dantzig(k, load, value) <= self.best {
            return;
        }
        let (w, v) = (self.weights[k], self.values[k]);
        if load + w <= self.capacity {
            self.taken.push(k);
            self.descend(k + 1, load + w, value + v);
            self.taken.pop();
        }
        self.descend(k + 1, load, value);
    }

    /// The LP relaxation's value from item `k` on: whole items in density
    /// order while they fit, then a fraction of the first that does not.
    fn dantzig(&self, k: usize, load: f64, mut value: f64) -> f64 {
        let mut room = self.capacity - load;
        for (&w, &v) in self.weights[k..].iter().zip(&self.values[k..]) {
            if w <= room {
                room -= w;
                value += v;
            } else {
                return value + v * room / w;
            }
        }
        value
    }
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
///
/// Its compares are strict and take `capacity` as exact: where a bin also
/// admits a load a tolerance past `capacity`, L2 (like L1) can exceed the
/// bins a packing needs. The exact placer uses it only to decide whether
/// a pattern bound is worth computing, never as a bound in its model.
pub fn binpack_lower_bound_l2(sizes: &[f64], capacity: f64) -> usize {
    assert!(capacity > 0.0);
    let l1 = binpack_lower_bound_l1(sizes, capacity);
    let mut best = l1;
    let thresholds = sizes
        .iter()
        .copied()
        .filter(|&s| s > 0.0 && s <= capacity / 2.0)
        .chain(std::iter::once(capacity / 2.0));
    for k in thresholds {
        let n1 = sizes.iter().filter(|&&s| s > capacity - k).count();
        let medium = || {
            sizes
                .iter()
                .copied()
                .filter(move |&s| s > capacity / 2.0 && s <= capacity - k)
        };
        let n2 = medium().count();
        let small_sum: f64 = sizes
            .iter()
            .copied()
            .filter(|&s| s >= k && s <= capacity / 2.0)
            .sum();
        let free_in_medium: f64 = medium().map(|s| capacity - s).sum();
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

/// Rounds of row generation [`binpack_lower_bound_patterns`] runs at most.
const PATTERN_ROUNDS: usize = 200;

/// The Gilmore–Gomory (pattern) lower bound on the bins of `capacity`
/// that hold `sizes`.
///
/// A pattern is a set of items whose sizes sum to at most `capacity` —
/// the only fit test here, so a caller whose bins admit a load a
/// tolerance past their capacity passes the loosest load any of them
/// admits. The bound is the pattern LP's, `min Σ_p λ_p` subject to every
/// item being covered, reached through its dual
///
/// ```text
/// max Σ_i π_i   s.t.   Σ_{i∈p} π_i ≤ 1  ∀ pattern p,   0 ≤ π ≤ 1
/// ```
///
/// by row generation: solve the dual over the patterns found so far
/// (greedy ones to begin with), price the most violated pattern with
/// [`knapsack_max`], add it, repeat. Every round's `π` certifies a bound
/// by itself: `π / max_p π·p` is dual feasible, so any packing needs at
/// least `⌈Σπ / max_p π·p − 1e-9⌉` bins (the slack absorbs float
/// summation). The best certificate is returned, so a run cut short by
/// the round cap (200) weakens the bound but never makes it invalid.
/// Items of size ≤ 0 fit beside anything and items larger than
/// `capacity` fit no bin; both are left out.
pub fn binpack_lower_bound_patterns(sizes: &[f64], capacity: f64) -> usize {
    let mut items: Vec<f64> = sizes
        .iter()
        .copied()
        .filter(|&s| s > 0.0 && s <= capacity)
        .collect();
    items.sort_by(|a, b| b.total_cmp(a));
    let mut dual = Model::new();
    let pi: Vec<_> = items.iter().map(|_| dual.continuous(0.0, 1.0)).collect();
    dual.set_objective(Sense::Maximize, LinExpr::sum(pi.iter().copied()));
    // Seed rows: first-fit decreasing's bins, whose count is the most the
    // bound can reach, and each item with the items that fit beside it
    // taken largest first.
    let mut ffd: Vec<(f64, Vec<usize>)> = Vec::new();
    for (i, &s) in items.iter().enumerate() {
        match ffd.iter_mut().find(|(load, _)| load + s <= capacity) {
            Some((load, members)) => {
                *load += s;
                members.push(i);
            }
            None => ffd.push((s, vec![i])),
        }
    }
    let mut seeds: Vec<Vec<usize>> = ffd.iter().map(|(_, members)| members.clone()).collect();
    for (i, &first) in items.iter().enumerate() {
        let mut load = first;
        let mut members = vec![i];
        for (j, &s) in items.iter().enumerate() {
            if j != i && load + s <= capacity {
                load += s;
                members.push(j);
            }
        }
        members.sort_unstable();
        if !seeds.contains(&members) {
            seeds.push(members);
        }
    }
    for members in &seeds {
        dual.add_constraint(LinExpr::sum(members.iter().map(|&i| pi[i])), Cmp::Le, 1.0);
    }
    let mut best = 0;
    for _ in 0..PATTERN_ROUNDS {
        let solved = solve_lp(&dual);
        let Some(point) = solved
            .solution
            .filter(|_| solved.status == LpStatus::Optimal)
        else {
            break;
        };
        let prices: Vec<f64> = pi
            .iter()
            .map(|v| point.values[v.index()].clamp(0.0, 1.0))
            .collect();
        let (pattern, most) = knapsack_max(&items, &prices, capacity);
        if most > 0.0 {
            let total: f64 = prices.iter().sum();
            best = best.max((total / most - 1e-9).ceil() as usize);
        }
        // Done when the bound meets first fit, when no later π can certify
        // more than this one (the restricted dual only falls as rows are
        // added), or when no pattern is violated.
        if best >= ffd.len()
            || (point.objective - 1e-9).ceil() as usize <= best
            || most <= 1.0 + 1e-9
        {
            break;
        }
        dual.add_constraint(LinExpr::sum(pattern.iter().map(|&i| pi[i])), Cmp::Le, 1.0);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_max_matches_hand_solution() {
        let (chosen, v) = knapsack_max(&[3.0, 4.0, 2.0], &[10.0, 13.0, 7.0], 6.0);
        assert_eq!(v, 20.0);
        assert_eq!(chosen, vec![1, 2]);
        let (chosen, v) = knapsack_max(&[1.0], &[5.0], 0.0);
        assert!(chosen.is_empty());
        assert_eq!(v, 0.0);
    }

    #[test]
    fn knapsack_max_takes_weightless_items_and_skips_worthless_ones() {
        let (chosen, v) = knapsack_max(&[0.0, 5.0, 1.0], &[2.0, 9.0, 0.0], 4.0);
        assert_eq!((chosen, v), (vec![0], 2.0));
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

    #[test]
    fn pattern_bound_sees_what_l2_does_not() {
        // Seven items of 0.4 and three of 0.35: no three fit one bin, so
        // the ten need five bins, while Σ = 3.85 and L2 both say four.
        let mut sizes = vec![0.4; 7];
        sizes.extend([0.35; 3]);
        assert_eq!(binpack_lower_bound_l2(&sizes, 1.0), 4);
        assert_eq!(binpack_lower_bound_patterns(&sizes, 1.0), 5);
    }

    #[test]
    fn pattern_bound_drops_what_no_bin_needs_or_holds() {
        assert_eq!(binpack_lower_bound_patterns(&[], 1.0), 0);
        assert_eq!(binpack_lower_bound_patterns(&[0.0, 0.0], 1.0), 0);
        assert_eq!(binpack_lower_bound_patterns(&[2.0, 0.6, 0.6], 1.0), 2);
    }
}
