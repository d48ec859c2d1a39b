//! Admission control: who gets served when the pool cannot fit everyone.
//!
//! Placement assumes the pool can hold all cells; under flash crowds or
//! after failures it sometimes cannot. The admission problem — choose the
//! subset of cells to serve, maximizing priority-weighted admission subject
//! to pool capacity — is a knapsack-family ILP. Both an exact solve (via
//! `pran-ilp`, warm-started) and a priority-greedy heuristic are provided;
//! whatever is *not* admitted is what the spectrum app degrades.

use std::time::Duration;

use pran_ilp::{solve_ilp, BnbConfig, Cmp, IlpStatus, LinExpr, Model, Sense, VarId};

use super::heuristics::{place, Heuristic};
use super::{CellDemand, Placement, PlacementInstance};

/// A cell requesting admission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionRequest {
    /// Dense cell id.
    pub id: usize,
    /// Predicted GOPS demand if admitted.
    pub gops: f64,
    /// Admission weight (priority × users served, for example).
    pub weight: f64,
}

/// Result of an admission decision.
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// Admission flag per cell (indexed by request order).
    pub admitted: Vec<bool>,
    /// A feasible placement of the admitted cells.
    pub placement: Placement,
    /// Total admitted weight.
    pub weight: f64,
    /// Whether the outcome is proven optimal (exact path only).
    pub optimal: bool,
}

impl AdmissionOutcome {
    /// Number of admitted cells.
    pub fn count(&self) -> usize {
        self.admitted.iter().filter(|&&a| a).count()
    }
}

/// Exact admission: maximize Σ weight over admitted cells subject to the
/// pool's per-server capacities (cells are indivisible).
///
/// Formulation: binary `x_{c,s}` with `Σ_s x_{c,s} ≤ 1` (admission is the
/// sum) and the usual capacity rows; objective `max Σ w_c Σ_s x_{c,s}`.
pub fn admit_exact(
    requests: &[AdmissionRequest],
    servers: usize,
    capacity_gops: f64,
    budget: Duration,
) -> AdmissionOutcome {
    let mut m = Model::new("admission");
    let x: Vec<Vec<VarId>> = requests
        .iter()
        .map(|r| {
            (0..servers)
                .map(|s| m.binary(format!("x{}_{}", r.id, s)))
                .collect()
        })
        .collect();
    for (c, row) in x.iter().enumerate() {
        m.add_constraint(
            format!("admit{c}"),
            LinExpr::sum(row.iter().copied()),
            Cmp::Le,
            1.0,
        );
    }
    for s in 0..servers {
        let expr = LinExpr::weighted_sum(
            x.iter()
                .enumerate()
                .map(|(c, row)| (row[s], requests[c].gops)),
        );
        m.add_constraint(format!("cap{s}"), expr, Cmp::Le, capacity_gops);
    }
    let mut obj = LinExpr::new();
    for (c, row) in x.iter().enumerate() {
        for &v in row {
            obj.add_term(v, requests[c].weight);
        }
    }
    m.set_objective(Sense::Maximize, obj);

    // Warm start from the greedy outcome.
    let greedy = admit_greedy(requests, servers, capacity_gops);
    let mut initial = vec![0.0; m.num_vars()];
    for (c, row) in x.iter().enumerate() {
        if let Some(s) = greedy.placement.assignment[c] {
            initial[row[s].index()] = 1.0;
        }
    }
    let config = BnbConfig {
        max_nodes: 30_000,
        time_limit: budget,
        initial: Some(initial),
    };
    let result = solve_ilp(&m, &config);
    match &result.solution {
        Some(sol) => {
            let mut admitted = vec![false; requests.len()];
            let mut assignment = vec![None; requests.len()];
            for (c, row) in x.iter().enumerate() {
                for (s, &v) in row.iter().enumerate() {
                    if sol.is_set(v) {
                        admitted[c] = true;
                        assignment[c] = Some(s);
                    }
                }
            }
            let weight = requests
                .iter()
                .zip(&admitted)
                .filter(|(_, &a)| a)
                .map(|(r, _)| r.weight)
                .sum();
            AdmissionOutcome {
                admitted,
                placement: Placement { assignment },
                weight,
                optimal: result.status == IlpStatus::Optimal,
            }
        }
        None => greedy, // solver found nothing within limits: keep greedy
    }
}

/// Greedy admission: sort by weight density (weight per GOPS), admit while
/// a first-fit-decreasing placement of the admitted set stays feasible.
pub fn admit_greedy(
    requests: &[AdmissionRequest],
    servers: usize,
    capacity_gops: f64,
) -> AdmissionOutcome {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| {
        let da = requests[a].weight / requests[a].gops.max(1e-9);
        let db = requests[b].weight / requests[b].gops.max(1e-9);
        db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
    });

    let mut admitted = vec![false; requests.len()];
    // Incrementally FFD-pack admitted cells; a cell that cannot fit under
    // the current admitted set is skipped (not a hard stop — later lighter
    // cells may still fit).
    let mut current: Vec<CellDemand> = Vec::new();
    for &idx in &order {
        let mut trial = current.clone();
        trial.push(CellDemand::flat(requests[idx].id, requests[idx].gops));
        let demands: Vec<f64> = trial.iter().map(|c| c.gops).collect();
        let inst = PlacementInstance::uniform(&demands, servers, capacity_gops);
        if place(&inst, Heuristic::FirstFitDecreasing).complete() {
            current = trial;
            admitted[idx] = true;
        }
    }
    // Final placement of the admitted set, mapped back to request indices.
    let demands: Vec<f64> = current.iter().map(|c| c.gops).collect();
    let inst = PlacementInstance::uniform(&demands, servers, capacity_gops);
    let packed = place(&inst, Heuristic::FirstFitDecreasing);
    let mut assignment = vec![None; requests.len()];
    for (local, cell) in current.iter().enumerate() {
        let global = requests
            .iter()
            .position(|r| r.id == cell.id)
            .expect("admitted");
        assignment[global] = packed.placement.assignment[local];
    }
    let weight = requests
        .iter()
        .zip(&admitted)
        .filter(|(_, &a)| a)
        .map(|(r, _)| r.weight)
        .sum();
    AdmissionOutcome {
        admitted,
        placement: Placement { assignment },
        weight,
        optimal: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reqs(specs: &[(f64, f64)]) -> Vec<AdmissionRequest> {
        specs
            .iter()
            .enumerate()
            .map(|(id, &(gops, weight))| AdmissionRequest { id, gops, weight })
            .collect()
    }

    #[test]
    fn everyone_admitted_when_pool_fits() {
        // {60,40} and {50} partition into two 100-GOPS servers.
        let r = reqs(&[(50.0, 1.0), (60.0, 1.0), (40.0, 1.0)]);
        for outcome in [
            admit_greedy(&r, 2, 100.0),
            admit_exact(&r, 2, 100.0, Duration::from_secs(5)),
        ] {
            assert_eq!(outcome.count(), 3, "150 GOPS fits 2×100");
            assert_eq!(outcome.weight, 3.0);
        }
    }

    #[test]
    fn overload_drops_lowest_weight_density() {
        // One server of 100: cells (90 gops, w=1) and (50 gops, w=2) —
        // only one fits; the higher-density (and higher-weight) wins.
        let r = reqs(&[(90.0, 1.0), (50.0, 2.0)]);
        let g = admit_greedy(&r, 1, 100.0);
        assert_eq!(g.admitted, vec![false, true]);
        let e = admit_exact(&r, 1, 100.0, Duration::from_secs(5));
        assert_eq!(e.admitted, vec![false, true]);
        assert!(e.optimal);
    }

    #[test]
    fn exact_beats_greedy_on_knapsack_trap() {
        // Greedy by density admits the small high-density cell and then
        // cannot fit the two mediums; exact takes the mediums.
        // Server 100: a=(60,w3 → density .05), b=(50,w2.4 → .048),
        // c=(50,w2.4). greedy: a first (60), then b? 60+50>100 → skip, c
        // skip → weight 3. exact: b+c = 4.8.
        let r = reqs(&[(60.0, 3.0), (50.0, 2.4), (50.0, 2.4)]);
        let g = admit_greedy(&r, 1, 100.0);
        let e = admit_exact(&r, 1, 100.0, Duration::from_secs(5));
        assert_eq!(g.weight, 3.0);
        assert_eq!(e.weight, 4.8);
        assert!(e.weight > g.weight);
    }

    #[test]
    fn placements_are_always_feasible() {
        let r = reqs(&[
            (80.0, 1.0),
            (75.0, 1.5),
            (70.0, 0.5),
            (60.0, 2.0),
            (30.0, 1.0),
        ]);
        for outcome in [
            admit_greedy(&r, 2, 100.0),
            admit_exact(&r, 2, 100.0, Duration::from_secs(5)),
        ] {
            // Check capacity by hand.
            let mut load = vec![0.0; 2];
            for (c, a) in outcome.placement.assignment.iter().enumerate() {
                if let Some(s) = a {
                    assert!(outcome.admitted[c], "placed but not admitted");
                    load[*s] += r[c].gops;
                }
            }
            for l in load {
                assert!(l <= 100.0 + 1e-9);
            }
            // And every admitted cell is placed.
            for (c, &adm) in outcome.admitted.iter().enumerate() {
                assert_eq!(adm, outcome.placement.assignment[c].is_some(), "cell {c}");
            }
        }
    }

    #[test]
    fn empty_request_set() {
        let outcome = admit_greedy(&[], 2, 100.0);
        assert_eq!(outcome.count(), 0);
        assert_eq!(outcome.weight, 0.0);
    }

    #[test]
    fn greedy_skips_then_fits_lighter_cells() {
        // density order: a (1.0/100), b (0.9/95), c (0.5/10 → 0.05 highest).
        // order: c, a, b; server 100: c(10) + a(100)? no → skip a, b 95? 105 no.
        // Hmm: choose weights so skipping mid-list still admits later cells.
        let r = reqs(&[(100.0, 1.0), (95.0, 0.9), (10.0, 5.0), (80.0, 0.5)]);
        let g = admit_greedy(&r, 1, 100.0);
        // c admitted first (density 0.5); a and b no longer fit; d (80,
        // density 0.00625) fits alongside c (90 total).
        assert!(g.admitted[2]);
        assert!(g.admitted[3], "later lighter cell must still be tried");
        assert_eq!(g.count(), 2);
    }
}
