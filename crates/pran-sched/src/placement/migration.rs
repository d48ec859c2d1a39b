//! Migration planning between consecutive placements.
//!
//! Re-solving placement from scratch every epoch would churn cells between
//! servers (each move interrupts a cell for the state-transfer window), so
//! the controller plans *incremental* repacks: keep the current assignment
//! wherever it is still feasible and move the minimum load necessary.

use serde::{Deserialize, Serialize};

use super::{Allowed, CellDemand, Placement, PlacementInstance, ServerLoad, ServerSpec};

/// One cell move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Move {
    /// The migrating cell.
    pub cell: usize,
    /// `None` when the cell was previously unplaced.
    pub from: Option<usize>,
    /// Destination server.
    pub to: usize,
}

/// A set of moves turning one placement into another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// The moves, in no particular order.
    pub moves: Vec<Move>,
}

impl MigrationPlan {
    /// Number of cells that change servers.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// True when no cell moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Diff two placements into a migration plan.
///
/// # Panics
/// Panics if the placements have different lengths.
pub fn diff(old: &Placement, new: &Placement) -> MigrationPlan {
    assert_eq!(
        old.assignment.len(),
        new.assignment.len(),
        "placement size mismatch"
    );
    let moves = old
        .assignment
        .iter()
        .zip(new.assignment.iter())
        .enumerate()
        .filter_map(|(cell, (o, n))| match (o, n) {
            (_, None) => None, // becoming unplaced is an eviction, not a move
            (Some(a), Some(b)) if a == b => None,
            (o, Some(b)) => Some(Move {
                cell,
                from: *o,
                to: *b,
            }),
        })
        .collect();
    MigrationPlan { moves }
}

/// Incrementally repair `current` for the demands in `instance`:
/// keep every assignment that still fits, move the fewest/lightest cells
/// off overloaded servers, and place any unplaced cells.
///
/// Returns the new placement and the plan. The result is guaranteed
/// capacity-feasible when it validates; cells that fit nowhere remain
/// unplaced (the admission layer above decides what to drop).
pub fn incremental_repack(
    instance: &PlacementInstance,
    current: &Placement,
) -> (Placement, MigrationPlan) {
    repack(
        &instance.cells,
        &instance.servers,
        &instance.allowed,
        current,
    )
}

/// [`incremental_repack`] over an instance's parts, so the warm placer can
/// pair its booked demands with the caller's servers and mask without
/// copying either.
pub(super) fn repack(
    cells: &[CellDemand],
    servers: &[ServerSpec],
    allowed: &Allowed,
    current: &Placement,
) -> (Placement, MigrationPlan) {
    assert_eq!(
        current.assignment.len(),
        cells.len(),
        "placement size mismatch"
    );
    let mut assignment = current.assignment.clone();
    // Clear assignments that are no longer allowed (topology changed).
    for (cell, slot) in assignment.iter_mut().enumerate() {
        if let Some(s) = *slot {
            if s >= servers.len() || !allowed.is_allowed(cell, s) {
                *slot = None;
            }
        }
    }

    let mut load = vec![ServerLoad::default(); servers.len()];
    for (cell, slot) in assignment.iter().enumerate() {
        if let Some(s) = slot {
            let l = servers[*s].load_of(&cells[cell]);
            load[*s].general += l.general;
            load[*s].decode += l.decode;
        }
    }

    // Evict the lightest cells from each overloaded server until it fits —
    // lightest-first minimizes moved load while freeing capacity slowly,
    // but guarantees progress; ties broken by id for determinism. Both
    // resources count: a server whose accelerator is over-committed is
    // overloaded even with general headroom to spare.
    let mut to_place: Vec<usize> = assignment
        .iter()
        .enumerate()
        .filter_map(|(c, a)| a.is_none().then_some(c))
        .collect();
    // Overload is judged by the same tolerance `validate` uses: a
    // placement that validates must never be churned here.
    #[allow(clippy::needless_range_loop)] // `s` indexes both load and servers
    for s in 0..servers.len() {
        if servers[s].fits_load(load[s]) {
            continue;
        }
        let mut resident: Vec<usize> = assignment
            .iter()
            .enumerate()
            .filter_map(|(c, a)| (*a == Some(s)).then_some(c))
            .collect();
        resident.sort_by(|&a, &b| {
            cells[a]
                .gops
                .partial_cmp(&cells[b].gops)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for cell in resident {
            if servers[s].fits_load(load[s]) {
                break;
            }
            let l = servers[s].load_of(&cells[cell]);
            load[s].general -= l.general;
            load[s].decode -= l.decode;
            assignment[cell] = None;
            to_place.push(cell);
        }
    }

    // Place evicted/unplaced cells best-fit-decreasing into residual room.
    // Cells with a decode share first try accelerated servers (affinity,
    // matching `heuristics::place`), then the whole pool.
    to_place.sort_by(|&a, &b| {
        cells[b]
            .gops
            .partial_cmp(&cells[a].gops)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let has_accel = servers.iter().any(|s| s.accelerator.is_some());
    for cell in to_place {
        let demand = cells[cell];
        let row = allowed.row(cell);
        let best_fit = |accel_only: bool, load: &[ServerLoad]| {
            (0..servers.len())
                .filter(|&s| {
                    let spec = &servers[s];
                    let l = spec.load_of(&demand);
                    (!accel_only || spec.accelerator.is_some())
                        && row.allows(s)
                        && spec.fits_load(ServerLoad {
                            general: load[s].general + l.general,
                            decode: load[s].decode + l.decode,
                        })
                })
                .min_by(|&a, &b| {
                    let ra = servers[a].capacity_gops
                        - load[a].general
                        - servers[a].load_of(&demand).general;
                    let rb = servers[b].capacity_gops
                        - load[b].general
                        - servers[b].load_of(&demand).general;
                    ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
                })
        };
        let target = if has_accel && demand.decode_gops > 0.0 {
            best_fit(true, &load).or_else(|| best_fit(false, &load))
        } else {
            best_fit(false, &load)
        };
        if let Some(s) = target {
            let l = servers[s].load_of(&demand);
            load[s].general += l.general;
            load[s].decode += l.decode;
            assignment[cell] = Some(s);
        }
    }

    let new = Placement { assignment };
    let plan = diff(current, &new);
    (new, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::heuristics::{place, Heuristic};

    #[test]
    fn diff_finds_moves() {
        let old = Placement {
            assignment: vec![Some(0), Some(1), None],
        };
        let new = Placement {
            assignment: vec![Some(0), Some(2), Some(1)],
        };
        let plan = diff(&old, &new);
        assert_eq!(plan.len(), 2);
        assert!(plan.moves.contains(&Move {
            cell: 1,
            from: Some(1),
            to: 2
        }));
        assert!(plan.moves.contains(&Move {
            cell: 2,
            from: None,
            to: 1
        }));
    }

    #[test]
    fn identical_placements_no_moves() {
        let p = Placement {
            assignment: vec![Some(0), Some(1)],
        };
        assert!(diff(&p, &p).is_empty());
    }

    #[test]
    fn stable_when_still_feasible() {
        let inst = PlacementInstance::uniform(&[40.0, 40.0, 40.0], 3, 100.0);
        let current = Placement {
            assignment: vec![Some(0), Some(0), Some(1)],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(plan.is_empty(), "feasible placement must not churn");
        assert_eq!(new, current);
    }

    #[test]
    fn repack_resolves_overload_with_few_moves() {
        // Server 0 overloaded after demand growth: 60+60 > 100.
        let inst = PlacementInstance::uniform(&[60.0, 60.0, 10.0], 3, 100.0);
        let current = Placement {
            assignment: vec![Some(0), Some(0), Some(1)],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(inst.validate(&new).is_ok(), "{:?}", inst.validate(&new));
        assert_eq!(plan.len(), 1, "one move suffices: {plan:?}");
    }

    #[test]
    fn repack_places_new_cells() {
        let inst = PlacementInstance::uniform(&[50.0, 30.0], 2, 100.0);
        let current = Placement {
            assignment: vec![Some(0), None],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(inst.validate(&new).is_ok());
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.moves[0].from, None);
    }

    #[test]
    fn repack_leaves_unplaceable_cells_out() {
        let inst = PlacementInstance::uniform(&[90.0, 90.0, 90.0], 2, 100.0);
        let current = Placement {
            assignment: vec![Some(0), Some(1), None],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert_eq!(new.placed(), 2);
        assert!(plan.is_empty());
    }

    #[test]
    fn repack_handles_topology_shrink() {
        // Server 1 disappears (allowed matrix forbids it now).
        let mut inst = PlacementInstance::uniform(&[50.0, 40.0], 2, 100.0);
        inst.allowed = vec![vec![true, false], vec![true, false]].into();
        let current = Placement {
            assignment: vec![Some(1), Some(0)],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(inst.validate(&new).is_ok());
        assert_eq!(plan.len(), 1);
        assert_eq!(new.assignment[0], Some(0));
    }

    /// Pinned from `tests/tests/proptest_cross.proptest-regressions`:
    /// FFD packs both cells onto one server at 199.985/200 GOPS; a 0.18 %
    /// growth pushes it to 200.35 and repack must move exactly one cell —
    /// the lighter one — onto the empty spare, never leaving an overload.
    #[test]
    fn pinned_regression_growth_just_past_capacity() {
        let demands = [81.11015613411035, 118.87534850668013];
        let growth = 1.0018224024772355;
        let inst = PlacementInstance::uniform(&demands, 2, 200.0);
        let seed = place(&inst, Heuristic::FirstFitDecreasing);
        assert!(seed.complete());
        assert_eq!(seed.placement.assignment, vec![Some(0), Some(0)]);

        let grown: Vec<f64> = demands.iter().map(|d| d * growth).collect();
        let grown_inst = PlacementInstance::uniform(&grown, 2, 200.0);
        let (new, plan) = incremental_repack(&grown_inst, &seed.placement);
        assert!(
            grown_inst.validate(&new).is_ok(),
            "{:?}",
            grown_inst.validate(&new)
        );
        assert_eq!(plan.len(), 1, "one move suffices: {plan:?}");
        assert_eq!(plan.moves[0].cell, 0, "the lighter cell moves");
    }

    /// A placement at capacity-plus-float-dust validates as feasible and
    /// therefore must not be churned: overload detection uses the same
    /// tolerance as `validate`, not a strict compare.
    #[test]
    fn repack_ignores_float_dust_overload() {
        let inst = PlacementInstance::uniform(&[120.00000001, 80.0], 2, 200.0);
        let current = Placement {
            assignment: vec![Some(0), Some(0)],
        };
        assert!(inst.validate(&current).is_ok());
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(
            plan.is_empty(),
            "feasible-within-tolerance placement churned: {plan:?}"
        );
        assert_eq!(new, current);
    }

    #[test]
    fn repack_resolves_accelerator_overload() {
        use crate::placement::Accelerator;
        // Server 0's accelerator shrinks in-flight (say a firmware cap):
        // decode 50 on a 40-GOPS accelerator must evict a cell even though
        // the general load (60/200) is comfortable.
        let mut inst = PlacementInstance::uniform(&[30.0, 30.0], 2, 200.0);
        inst.servers[0].accelerator = Some(Accelerator {
            decode_capacity_gops: 40.0,
            decode_speedup: 4.0,
        });
        inst.servers[1].accelerator = Some(Accelerator {
            decode_capacity_gops: 40.0,
            decode_speedup: 4.0,
        });
        inst.cells[0].decode_gops = 25.0;
        inst.cells[1].decode_gops = 25.0;
        let current = Placement {
            assignment: vec![Some(0), Some(0)],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(inst.validate(&new).is_ok(), "{:?}", inst.validate(&new));
        assert_eq!(plan.len(), 1, "one decode eviction suffices: {plan:?}");
    }

    #[test]
    fn repack_composes_with_heuristic_seed() {
        // Start from an FFD placement, grow demands 20 %, repack.
        let demands: Vec<f64> = (0..20).map(|i| 15.0 + (i as f64 * 9.1) % 40.0).collect();
        let inst = PlacementInstance::uniform(&demands, 20, 100.0);
        let seed = place(&inst, Heuristic::FirstFitDecreasing);
        let grown: Vec<f64> = demands.iter().map(|d| d * 1.2).collect();
        let grown_inst = PlacementInstance::uniform(&grown, 20, 100.0);
        let (new, plan) = incremental_repack(&grown_inst, &seed.placement);
        assert!(grown_inst.validate(&new).is_ok());
        // Churn should be a small fraction of cells.
        assert!(plan.len() <= 10, "churn {} too high", plan.len());
    }
}
