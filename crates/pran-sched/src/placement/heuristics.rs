//! Fast placement heuristics: the per-epoch production path.
//!
//! Classic decreasing-order packing with fronthaul filtering. Best fit
//! finds each cell's server through an index of the open servers,
//! O(cells log cells + servers log servers + cells · log servers) for a
//! whole solve on a shared mask; first fit scans, O(cells × servers). Either way a solve is polynomial where the ILP is
//! exponential — the trade PRAN's control plane makes at the fast
//! timescale — at the cost of occasionally opening an extra server (E5
//! measures how often).

use super::migration::FitIndex;
use super::{CellDemand, Placement, PlacementInstance, ServerLoad};

/// Which packing rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heuristic {
    /// First-fit decreasing: first open server with room.
    FirstFitDecreasing,
    /// Best-fit decreasing: open server leaving the least residual room.
    BestFitDecreasing,
}

impl Heuristic {
    /// All heuristics.
    pub fn all() -> [Heuristic; 2] {
        [Heuristic::FirstFitDecreasing, Heuristic::BestFitDecreasing]
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Heuristic::FirstFitDecreasing => "FFD",
            Heuristic::BestFitDecreasing => "BFD",
        }
    }
}

/// Result of a heuristic placement attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicResult {
    /// The (possibly partial) placement produced.
    pub placement: Placement,
    /// Cells that could not be placed anywhere (overload).
    pub unplaced: Vec<usize>,
}

impl HeuristicResult {
    /// True if every cell found a server.
    pub fn complete(&self) -> bool {
        self.unplaced.is_empty()
    }
}

/// Cell indices by decreasing demand, equal demands in index order: the
/// order every heuristic here considers cells in, and the one the exact
/// model's symmetry restriction ranks them by (`ilp::build_model`).
pub(crate) fn decreasing_order(instance: &PlacementInstance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..instance.cells.len()).collect();
    order.sort_by(|&a, &b| {
        instance.cells[b]
            .gops
            .partial_cmp(&instance.cells[a].gops)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    order
}

/// Pack cells onto servers with the chosen heuristic.
///
/// Cells are considered in decreasing demand order. Servers are preferred
/// in increasing cost order (cheapest first) among already-used ones per
/// the heuristic's rule; a new server is opened (cheapest first) only when
/// no used server fits.
///
/// # Accelerator affinity
///
/// When the pool is heterogeneous, a cell with a decode share
/// (`decode_gops > 0`) first looks for a home among *accelerated* servers
/// (same heuristic rule, restricted candidate set) and falls back to the
/// full pool only when no accelerated server fits. Cells without a decode
/// share — and every cell in a homogeneous pool — go through the exact
/// unrestricted selection, so the pre-accelerator behavior is preserved
/// bit-for-bit by construction.
///
/// # Cost
///
/// Best fit finds each cell's server through an index of the open
/// servers by residual room per class of identical specs
/// (`migration::FitIndex`): O(cells log cells + servers log servers) to
/// sort, then O(log servers) per cell and class, plus the walk past
/// servers a per-cell mask or a decode share rules out. First fit scans
/// every server for every cell, O(cells × servers).
pub fn place(instance: &PlacementInstance, heuristic: Heuristic) -> HeuristicResult {
    let span = pran_telemetry::trace::span("sched.place");
    let (result, _) = match heuristic {
        Heuristic::BestFitDecreasing => best_fit_decreasing(instance, usize::MAX),
        _ => (scan(instance, heuristic), false),
    };
    record(span, instance, heuristic, &result, false);
    result
}

/// [`place`]'s best fit, unless it puts load on at least `servers`
/// servers: `None` then, as soon as the `servers`-th is loaded. A server
/// best fit has loaded stays loaded, so the rest of the solve could only
/// add more; the warm placer's consolidation backstop needs no more than
/// that answer (`warm.rs`).
pub(crate) fn place_bfd_below(
    instance: &PlacementInstance,
    servers: usize,
) -> Option<HeuristicResult> {
    let span = pran_telemetry::trace::span("sched.place");
    let (result, stopped) = best_fit_decreasing(instance, servers);
    record(
        span,
        instance,
        Heuristic::BestFitDecreasing,
        &result,
        stopped,
    );
    (!stopped).then_some(result)
}

/// Count a solve in the metrics registry and finish its span; a stopped
/// solve counts the cells it had found no room for.
fn record(
    span: pran_telemetry::trace::Span,
    instance: &PlacementInstance,
    heuristic: Heuristic,
    result: &HeuristicResult,
    stopped: bool,
) {
    if pran_telemetry::enabled() {
        let registry = pran_telemetry::metrics::global();
        let labels = [("heuristic", heuristic.label())];
        registry.inc("sched.place.solves", &labels, 1);
        registry.inc(
            "sched.place.unplaced",
            &labels,
            result.unplaced.len() as u64,
        );
        span.finish_with(&[
            ("heuristic", heuristic.label().into()),
            ("cells", instance.cells.len().into()),
            (
                "servers_used",
                instance.servers_used(&result.placement).into(),
            ),
            ("unplaced", result.unplaced.len().into()),
            ("stopped", stopped.into()),
        ]);
    }
}

/// Server opening order: cheapest, then largest; equal servers by id.
fn open_order(instance: &PlacementInstance) -> Vec<usize> {
    let mut open_order: Vec<usize> = (0..instance.servers.len()).collect();
    open_order.sort_by(|&a, &b| {
        let sa = &instance.servers[a];
        let sb = &instance.servers[b];
        sa.cost
            .partial_cmp(&sb.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                sb.capacity_gops
                    .partial_cmp(&sa.capacity_gops)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    open_order
}

/// Best-fit decreasing through a [`FitIndex`] tagged by rank in
/// [`open_order`], so that equal rooms go to the first server in that
/// order, as [`scan`]'s `min_by` sends them. A server enters its class's
/// index when its first cell lands there; until then its class offers
/// it, lowest rank first, as the next server to open.
///
/// Stops once `stop_at` servers carry load, returning the partial
/// placement and `true`. Only a placement that adds load to a server
/// makes the count grow, so it bounds the finished count from below —
/// unless some cell puts a negative share on some server (or a NaN),
/// and then the solve runs to the end.
fn best_fit_decreasing(instance: &PlacementInstance, stop_at: usize) -> (HeuristicResult, bool) {
    let servers = &instance.servers;
    let has_accel = instance.has_accelerators();
    let loads_grow = |c: &CellDemand| {
        c.gops >= 0.0 && (!has_accel || (c.decode_gops >= 0.0 && c.gops - c.decode_gops >= 0.0))
    };
    let stop_at = if stop_at == usize::MAX || instance.cells.iter().all(loads_grow) {
        stop_at
    } else {
        usize::MAX
    };
    let open_order = open_order(instance);
    let mut index = FitIndex::closed(servers, &instance.allowed, &open_order);
    let mut residual: Vec<f64> = servers.iter().map(|s| s.capacity_gops).collect();
    let mut decode_used: Vec<f64> = vec![0.0; servers.len()];
    let mut used = vec![false; servers.len()];
    let mut loaded = vec![false; servers.len()];
    let mut carrying = 0;
    let mut assignment = vec![None; instance.cells.len()];
    let mut unplaced = Vec::new();
    let mut stopped = stop_at == 0;

    for cell in decreasing_order(instance) {
        if stopped {
            break;
        }
        let demand = instance.cells[cell];
        let row = instance.allowed.row(cell);
        let admits = |rank: usize, need: ServerLoad| {
            let s = open_order[rank];
            row.allows(s) && servers[s].fits_decode(decode_used[s] + need.decode)
        };
        // Affinity pass (accelerated candidates only), then the
        // unrestricted pass.
        let target = if has_accel && demand.decode_gops > 0.0 {
            index
                .best_fit(&demand, true, admits)
                .or_else(|| index.first_closed(&demand, true, admits))
                .or_else(|| index.best_fit(&demand, false, admits))
                .or_else(|| index.first_closed(&demand, false, admits))
        } else {
            index
                .best_fit(&demand, false, admits)
                .or_else(|| index.first_closed(&demand, false, admits))
        };
        let Some(rank) = target else {
            unplaced.push(cell);
            continue;
        };
        let s = open_order[rank];
        let l = servers[s].load_of(&demand);
        let before = residual[s];
        residual[s] -= l.general;
        decode_used[s] += l.decode;
        if used[s] {
            index.moved(rank, before, residual[s]);
        } else {
            used[s] = true;
            index.open(rank, residual[s]);
        }
        assignment[cell] = Some(s);
        if !loaded[s] && (l.general > 0.0 || l.decode > 0.0) {
            loaded[s] = true;
            carrying += 1;
            stopped = carrying >= stop_at;
        }
    }

    let result = HeuristicResult {
        placement: Placement { assignment },
        unplaced,
    };
    (result, stopped)
}

/// First or best fit by scanning every server in [`open_order`]
/// for every cell. Production best fit goes through
/// [`best_fit_decreasing`]; this scan's best fit is the oracle its tests
/// hold it to.
fn scan(instance: &PlacementInstance, heuristic: Heuristic) -> HeuristicResult {
    let order = decreasing_order(instance);

    let mut residual: Vec<f64> = instance.servers.iter().map(|s| s.capacity_gops).collect();
    // Decode load accrued per server (only accelerated servers ever
    // accrue any; see `ServerSpec::load_of`).
    let mut decode_used: Vec<f64> = vec![0.0; instance.servers.len()];
    let mut used = vec![false; instance.servers.len()];
    let mut assignment = vec![None; instance.cells.len()];
    let mut unplaced = Vec::new();
    let has_accel = instance.has_accelerators();
    let open_order = open_order(instance);

    for &cell in &order {
        let demand = instance.cells[cell];
        let prefer_accel = has_accel && demand.decode_gops > 0.0;
        let row = instance.allowed.row(cell);
        // Same tolerance as `validate`/`incremental_repack`: a heuristic
        // must never admit a cell that validation would reject. On plain
        // servers `load_of` puts the whole demand on the general cores,
        // reproducing the pre-accelerator arithmetic exactly.
        let fits = |s: usize, residual: &[f64], decode_used: &[f64]| {
            let spec = &instance.servers[s];
            let l = spec.load_of(&demand);
            row.allows(s)
                && spec.fits(spec.capacity_gops - residual[s] + l.general)
                && spec.fits_decode(decode_used[s] + l.decode)
        };
        // `accel_only` restricts the candidate set during the affinity
        // pass; `false` is the full (legacy) selection.
        let select = |accel_only: bool, residual: &[f64], decode_used: &[f64]| {
            let admit = |s: usize| {
                (!accel_only || instance.servers[s].accelerator.is_some())
                    && fits(s, residual, decode_used)
            };
            match heuristic {
                Heuristic::FirstFitDecreasing => {
                    open_order.iter().copied().find(|&s| used[s] && admit(s))
                }
                Heuristic::BestFitDecreasing => open_order
                    .iter()
                    .copied()
                    .filter(|&s| used[s] && admit(s))
                    .min_by(|&a, &b| {
                        let need_a = instance.servers[a].load_of(&demand).general;
                        let need_b = instance.servers[b].load_of(&demand).general;
                        (residual[a] - need_a)
                            .partial_cmp(&(residual[b] - need_b))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    }),
            }
        };
        let open_new = |accel_only: bool, residual: &[f64], decode_used: &[f64]| {
            open_order.iter().copied().find(|&s| {
                !used[s]
                    && (!accel_only || instance.servers[s].accelerator.is_some())
                    && fits(s, residual, decode_used)
            })
        };

        // Affinity pass (accelerated candidates only), then the
        // unrestricted legacy pass.
        let target = if prefer_accel {
            select(true, &residual, &decode_used)
                .or_else(|| open_new(true, &residual, &decode_used))
                .or_else(|| select(false, &residual, &decode_used))
                .or_else(|| open_new(false, &residual, &decode_used))
        } else {
            select(false, &residual, &decode_used)
                .or_else(|| open_new(false, &residual, &decode_used))
        };

        match target {
            Some(s) => {
                let l = instance.servers[s].load_of(&demand);
                residual[s] -= l.general;
                decode_used[s] += l.decode;
                used[s] = true;
                assignment[cell] = Some(s);
            }
            None => unplaced.push(cell),
        }
    }

    HeuristicResult {
        placement: Placement { assignment },
        unplaced,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{Accelerator, Allowed, ProductMask, ServerSpec};
    use pran_fronthaul::Reachability;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ffd_packs_classic_example() {
        // Demands 7,6,3,2,2 into capacity 10 → FFD: [7,3],[6,2,2] = 2 bins.
        let inst = PlacementInstance::uniform(&[7.0, 6.0, 3.0, 2.0, 2.0], 5, 10.0);
        let r = place(&inst, Heuristic::FirstFitDecreasing);
        assert!(r.complete());
        assert!(inst.validate(&r.placement).is_ok());
        assert_eq!(inst.servers_used(&r.placement), 2);
    }

    #[test]
    fn all_heuristics_produce_valid_placements() {
        let demands: Vec<f64> = (0..30).map(|i| 10.0 + (i as f64 * 7.3) % 50.0).collect();
        let inst = PlacementInstance::uniform(&demands, 30, 100.0);
        for h in Heuristic::all() {
            let r = place(&inst, h);
            assert!(r.complete(), "{} left cells unplaced", h.label());
            assert!(inst.validate(&r.placement).is_ok(), "{} invalid", h.label());
            // FFD/BFD guarantee: ≤ 11/9·OPT + 1; check against the L1 bound.
            let used = inst.servers_used(&r.placement);
            let lb = inst.lower_bound_servers();
            assert!(
                used as f64 <= (11.0 / 9.0) * lb as f64 + 1.0 + 1e-9,
                "{}: {used} servers vs bound {lb}",
                h.label()
            );
        }
    }

    #[test]
    fn respects_fronthaul_restrictions() {
        let mut inst = PlacementInstance::uniform(&[50.0, 50.0], 2, 100.0);
        // Cell 0 may only use server 1, cell 1 only server 0.
        inst.allowed = vec![vec![false, true], vec![true, false]].into();
        let r = place(&inst, Heuristic::FirstFitDecreasing);
        assert!(r.complete());
        assert_eq!(r.placement.assignment[0], Some(1));
        assert_eq!(r.placement.assignment[1], Some(0));
    }

    #[test]
    fn overload_reports_unplaced() {
        let inst = PlacementInstance::uniform(&[80.0, 80.0, 80.0], 2, 100.0);
        let r = place(&inst, Heuristic::BestFitDecreasing);
        assert_eq!(r.unplaced.len(), 1);
        assert_eq!(r.placement.placed(), 2);
    }

    #[test]
    fn oversized_cell_unplaceable() {
        let inst = PlacementInstance::uniform(&[150.0], 3, 100.0);
        let r = place(&inst, Heuristic::FirstFitDecreasing);
        assert_eq!(r.unplaced, vec![0]);
    }

    #[test]
    fn zero_demand_cells_place_under_every_heuristic() {
        // Idle cells (predicted 0 GOPS) must still land on a server —
        // they need a home for when load returns — and cost nothing.
        let inst = PlacementInstance::uniform(&[0.0, 0.0, 0.0, 50.0], 2, 100.0);
        for h in Heuristic::all() {
            let r = place(&inst, h);
            assert!(r.complete(), "{}: unplaced {:?}", h.label(), r.unplaced);
            assert!(inst.validate(&r.placement).is_ok(), "{} invalid", h.label());
        }
    }

    #[test]
    fn oversized_cells_reported_unplaced_by_every_heuristic() {
        // A cell larger than any server can never fit; every heuristic
        // must report it via `unplaced` — not panic, not overload.
        let inst = PlacementInstance::uniform(&[150.0, 40.0, 250.0], 3, 100.0);
        for h in Heuristic::all() {
            let r = place(&inst, h);
            let mut unplaced = r.unplaced.clone();
            unplaced.sort_unstable();
            assert_eq!(unplaced, vec![0, 2], "{}", h.label());
            assert!(r.placement.assignment[1].is_some(), "{}", h.label());
            // Whatever was placed still respects capacity.
            for (s, l) in inst.server_loads(&r.placement).iter().enumerate() {
                assert!(inst.servers[s].fits(*l), "{}: server {s} at {l}", h.label());
            }
        }
    }

    #[test]
    fn all_zero_demand_all_zero_capacity_edge() {
        // Fully degenerate: zero-capacity servers accept zero-demand
        // cells (0 ≤ 0) and reject anything positive.
        let inst = PlacementInstance::uniform(&[0.0, 10.0], 2, 0.0);
        for h in Heuristic::all() {
            let r = place(&inst, h);
            assert_eq!(r.unplaced, vec![1], "{}", h.label());
            assert!(r.placement.assignment[0].is_some(), "{}", h.label());
        }
    }

    #[test]
    fn empty_instance_is_trivially_complete() {
        let inst = PlacementInstance::uniform(&[], 3, 100.0);
        for h in Heuristic::all() {
            let r = place(&inst, h);
            assert!(r.complete(), "{}", h.label());
            assert_eq!(inst.servers_used(&r.placement), 0);
        }
    }

    #[test]
    fn cheapest_servers_opened_first() {
        let mut inst = PlacementInstance::uniform(&[10.0], 2, 100.0);
        inst.servers[0].cost = 5.0;
        inst.servers[1].cost = 1.0;
        let r = place(&inst, Heuristic::FirstFitDecreasing);
        assert_eq!(
            r.placement.assignment[0],
            Some(1),
            "should pick the cheap server"
        );
    }

    #[test]
    fn heterogeneous_capacities() {
        let mut inst = PlacementInstance::uniform(&[120.0, 30.0], 2, 100.0);
        inst.servers[1].capacity_gops = 200.0;
        let r = place(&inst, Heuristic::FirstFitDecreasing);
        assert!(r.complete());
        assert_eq!(
            r.placement.assignment[0],
            Some(1),
            "big cell needs big server"
        );
    }

    #[test]
    fn empty_instance() {
        let inst = PlacementInstance::uniform(&[], 3, 100.0);
        let r = place(&inst, Heuristic::FirstFitDecreasing);
        assert!(r.complete());
        assert_eq!(r.placement.assignment.len(), 0);
    }

    #[test]
    fn decode_cells_prefer_accelerated_servers() {
        // Server 1 is accelerated; the decode-heavy cell must land there
        // under every heuristic even though server 0 opens first.
        let mut inst = PlacementInstance::uniform(&[60.0, 60.0], 2, 100.0);
        inst.servers[1].accelerator = Some(Accelerator {
            decode_capacity_gops: 40.0,
            decode_speedup: 4.0,
        });
        inst.cells[1].decode_gops = 30.0;
        for h in Heuristic::all() {
            let r = place(&inst, h);
            assert!(r.complete(), "{}", h.label());
            assert_eq!(
                r.placement.assignment[1],
                Some(1),
                "{}: decode cell should take the accelerated server",
                h.label()
            );
            assert!(inst.validate(&r.placement).is_ok(), "{}", h.label());
        }
    }

    #[test]
    fn decode_cells_fall_back_to_plain_servers() {
        // Server 1's accelerator is too small for either cell's decode
        // share (decode on an accelerated server always runs on the
        // accelerator — no spill to general cores), so both cells must
        // fall back to the plain servers 0 and 2.
        let mut inst = PlacementInstance::uniform(&[60.0, 60.0], 3, 100.0);
        inst.servers[1].accelerator = Some(Accelerator {
            decode_capacity_gops: 10.0,
            decode_speedup: 4.0,
        });
        inst.cells[0].decode_gops = 30.0;
        inst.cells[1].decode_gops = 30.0;
        for h in Heuristic::all() {
            let r = place(&inst, h);
            assert!(r.complete(), "{}", h.label());
            assert!(inst.validate(&r.placement).is_ok(), "{}", h.label());
            for c in 0..2 {
                assert_ne!(
                    r.placement.assignment[c],
                    Some(1),
                    "{}: the undersized accelerator must not host cell {c}",
                    h.label()
                );
            }
        }
    }

    #[test]
    fn accelerator_capacity_not_exceeded_by_packing() {
        // Three decode-heavy cells, one accelerator with room for two:
        // the third must fall back, never overload the accelerator.
        let mut inst = PlacementInstance::uniform(&[30.0, 30.0, 30.0], 3, 100.0);
        inst.servers[0].accelerator = Some(Accelerator {
            decode_capacity_gops: 40.0,
            decode_speedup: 4.0,
        });
        for c in 0..3 {
            inst.cells[c].decode_gops = 20.0;
        }
        for h in Heuristic::all() {
            let r = place(&inst, h);
            assert!(r.complete(), "{}", h.label());
            assert!(
                inst.validate(&r.placement).is_ok(),
                "{}: {:?}",
                h.label(),
                inst.validate(&r.placement)
            );
            let loads = inst.server_loads_split(&r.placement);
            assert!(loads[0].decode <= 40.0 + 1e-6, "{}", h.label());
        }
    }

    #[test]
    fn homogeneous_pool_ignores_decode_share() {
        // No accelerators anywhere: decode shares ride along on general
        // capacity and the placement equals the flat-demand placement.
        let demands = [70.0, 50.0, 30.0, 20.0];
        let flat = PlacementInstance::uniform(&demands, 4, 100.0);
        let mut split = flat.clone();
        for c in split.cells.iter_mut() {
            c.decode_gops = c.gops * 0.5;
        }
        for h in Heuristic::all() {
            let a = place(&flat, h);
            let b = place(&split, h);
            assert_eq!(
                a.placement,
                b.placement,
                "{}: decode share must be inert without accelerators",
                h.label()
            );
        }
    }

    /// One random best-fit input. Servers mix two capacities, three costs
    /// and plain and accelerated specs, so opening order is rarely id
    /// order and equal servers tie in it; masks take every shape. Demands
    /// are drawn one of four ways:
    /// - quantized to 5 GOPS, so rooms tie exactly;
    /// - continuous, some of them zero;
    /// - all equal;
    /// - a few values and their next ulps, so that distinct residuals
    ///   leave rooms that round to the same bits.
    fn random_case(rng: &mut SmallRng) -> PlacementInstance {
        let accelerated = |capacity: f64, decode: f64| ServerSpec {
            accelerator: Some(Accelerator {
                decode_capacity_gops: decode,
                decode_speedup: 4.0,
            }),
            ..ServerSpec::plain(0, capacity, 1.0)
        };
        let specs = [
            ServerSpec::plain(0, 100.0, 1.0),
            ServerSpec::plain(0, 160.0, 1.0),
            accelerated(100.0, 40.0),
            accelerated(160.0, 25.0),
        ];
        let costs = [1.0, 1.0, 0.5, 2.0];
        let n_servers = rng.gen_range(1..=16usize);
        let n_cells = rng.gen_range(0..=30usize);
        let kinds = rng.gen_range(1..=specs.len());
        let pricing = rng.gen_range(1..=costs.len());
        let servers: Vec<ServerSpec> = (0..n_servers)
            .map(|id| ServerSpec {
                id,
                cost: costs[rng.gen_range(0..pricing)],
                ..specs[rng.gen_range(0..kinds)]
            })
            .collect();
        let shape = rng.gen_range(0..4u32);
        let equal = rng.gen_range(1.0..60.0);
        let bases: Vec<f64> = (0..3).map(|_| rng.gen_range(1.0..60.0)).collect();
        let cells: Vec<CellDemand> = (0..n_cells)
            .map(|id| {
                let gops = match shape {
                    0 => 5.0 * rng.gen_range(0..=24u32) as f64,
                    1 if rng.gen_bool(0.1) => 0.0,
                    1 => rng.gen_range(0.5..90.0),
                    2 => equal,
                    _ => {
                        let base: f64 = bases[rng.gen_range(0..bases.len())];
                        f64::from_bits(base.to_bits() + rng.gen_range(0..3u64))
                    }
                };
                let decode_gops = match rng.gen_range(0..4u32) {
                    0 => 0.0,
                    1 => 5.0 * (gops / 5.0 * rng.gen_range(0.0..1.0f64)).floor(),
                    2 => gops * 0.5,
                    _ => gops * rng.gen_range(0.0..1.0),
                };
                CellDemand {
                    id,
                    gops,
                    decode_gops,
                }
            })
            .collect();
        let allowed = match rng.gen_range(0..4u32) {
            0 => Allowed::All,
            1 => Allowed::Uniform((0..n_servers).map(|_| rng.gen_bool(0.8)).collect()),
            2 => Allowed::PerCell(
                (0..n_cells)
                    .map(|_| (0..n_servers).map(|_| rng.gen_bool(0.7)).collect())
                    .collect(),
            ),
            _ => Allowed::Product(Box::new(ProductMask {
                cells: (0..n_cells).map(|_| rng.gen_bool(0.9)).collect(),
                servers: (0..n_servers).map(|_| rng.gen_bool(0.85)).collect(),
                reach: rng.gen_bool(0.5).then(|| {
                    let rows: Vec<Vec<bool>> = (0..3)
                        .map(|_| (0..n_servers).map(|_| rng.gen_bool(0.7)).collect())
                        .collect();
                    Reachability::from_rows(
                        (0..n_cells).map(|_| rows[rng.gen_range(0..3usize)].clone()),
                    )
                }),
            })),
        };
        PlacementInstance {
            cells,
            servers,
            allowed,
        }
    }

    /// The index picks what the scan picks, bit for bit, on 20,000 random
    /// inputs; and a bounded solve gives up exactly when the finished one
    /// loads its bound's worth of servers, else returns it unchanged.
    ///
    /// Mutants it kills: equal rooms to the lowest server id instead of
    /// the first in opening order; no affinity pass; every server indexed
    /// open from the start; the next server to open taken from the first
    /// class that fits rather than the lowest rank over all classes.
    #[test]
    fn bfd_index_matches_the_scan() {
        let mut rng = SmallRng::seed_from_u64(39);
        let (mut placed, mut stopped) = (0, 0);
        for case in 0..20_000 {
            let inst = random_case(&mut rng);
            let got = place(&inst, Heuristic::BestFitDecreasing);
            let want = scan(&inst, Heuristic::BestFitDecreasing);
            assert_eq!(got, want, "case {case}: {inst:?}");
            placed += got.placement.placed();

            let used = inst.servers_used(&got.placement);
            let bound = rng.gen_range(0..=used + 1);
            match place_bfd_below(&inst, bound) {
                Some(r) => {
                    assert!(used < bound, "case {case}: {used} servers, bound {bound}");
                    assert_eq!(r, got, "case {case}");
                }
                None => {
                    assert!(used >= bound, "case {case}: {used} servers, bound {bound}");
                    stopped += 1;
                }
            }
        }
        assert!(
            placed > 150_000,
            "the cases barely place anything: {placed}"
        );
        assert!(stopped > 10_000, "the bound barely stops: {stopped}");
    }
}
