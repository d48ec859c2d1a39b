//! Warm-start incremental placement with hysteresis.
//!
//! Re-solving placement from scratch every epoch costs `O(n log n)` in the
//! total cell count — at metro scale (10,000+ cells) the controller would
//! spend its epoch budget re-sorting cells whose demand barely moved. The
//! [`WarmPlacer`] instead carries *booked* per-cell demand between epochs:
//! each cell is booked at `actual × (1 + band)` when (re)packed, and stays
//! untouched while its actual demand remains inside the hysteresis band
//! `(booked / (1 + band)², booked]`. Only cells that cross the band (grew
//! past their booking, or shrank enough to be worth reclaiming) are marked
//! dirty and re-packed: an epoch moves only the dirty cells and those
//! evicted to make room for them. The booked instance is repaired with the
//! same deterministic
//! [`incremental_repack`](super::migration::incremental_repack) the cold
//! path uses, at O(cells + (servers + moved) · log servers): a linear pass
//! over bookings and loads, then a per-class index of server loads that
//! each moved cell queries.
//!
//! # Feasibility and the documented gap
//!
//! Booked demand always dominates actual demand (`actual ≤ booked` between
//! repacks, by construction of the band), so any placement that satisfies
//! [`ServerSpec::fits`](super::ServerSpec::fits) for the booked loads also
//! satisfies it for the actual loads — the warm placer never overloads a
//! server on real demand. The price is capacity: bookings inflate demand by
//! up to `(1 + band)`, and incremental repair does not re-optimize clean
//! cells, so the warm placer can use more servers than a cold-start
//! heuristic run on the actual demands. The documented (and
//! property-tested, `tests/tests/proptest_warm_placement.rs`) gap is
//! [`WARM_GAP_FACTOR`]: after every epoch the warm server count stays
//! within `⌈WARM_GAP_FACTOR × cold⌉ + 1` of the cold-start
//! best-fit-decreasing count (and hence of the ILP optimum on small
//! instances, since BFD itself is within `11/9 · OPT + 1`).
//!
//! The gap is *enforced*, not hoped for: incremental repair alone would
//! drift unboundedly under a long demand decline (clean cells are never
//! re-optimized, so the placement stays at its historical spread while a
//! cold solve of today's demands keeps shrinking). Each epoch ends with a
//! consolidation backstop. Where the warm placement places every cell,
//! the instance's `O(n)` server floor,
//! [`PlacementInstance::lower_bound_servers`], bounds from below every
//! cold solve that places them all, and one that places fewer is never
//! adopted; a warm count within the bound of the floor is within the
//! bound of any cold solve the backstop could adopt, and the epoch ends
//! there. Where a cell is left unplaced, the floor counts demand no cold
//! solve need carry, so the backstop takes 0 as its floor. Past the
//! floor's bound, a cold BFD solve runs, and if the warm count breaks the
//! bound against it (and it places at least as many cells) the placer
//! adopts the cold placement wholesale and re-books at actual demand,
//! restoring the bound by construction.
//!
//! On an accelerated pool the floor counts decode shares as offloaded,
//! though an accelerator holds only a few, so it sits below the cold
//! count and the cold solve starts in most epochs; it is stopped as soon
//! as its answer is known. BFD never unloads a server
//! it has loaded, so once it loads `k` servers with `gap_bound(k)` ≥ the
//! warm count, the cold count can only be at least `k` and the decision
//! is "keep": the solve stops there (`heuristics::place_bfd_below`) and
//! no epoch changes (`bounded_backstop_changes_no_epoch` holds a bounded
//! placer to one that solves to the end). What a started solve costs is
//! its two sorts, O(cells log cells + servers log servers), plus
//! O(log servers) per cell placed before it stops; an adopted solve
//! places every cell. On a plain pool the floor is close to the cold
//! count, and the backstop runs only in a sustained decline.

use serde::{Deserialize, Serialize};

use super::heuristics::{place, place_bfd_below, Heuristic};
use super::migration::{diff, repack, MigrationPlan};
use super::{Placement, PlacementInstance};

/// Multiplicative server-count gap the warm placer is documented (and
/// property-tested) to stay within, relative to a cold-start
/// best-fit-decreasing solve of the same actual demands:
/// `warm ≤ ⌈WARM_GAP_FACTOR × cold⌉ + 1`.
pub const WARM_GAP_FACTOR: f64 = 2.0;

/// Warm-start placement knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WarmConfig {
    /// Relative hysteresis band. A cell is re-packed only when its demand
    /// rises above its booking (`actual > booked`) or falls below
    /// `booked / (1 + band)²`; bookings are `actual × (1 + band)`.
    pub band: f64,
}

impl WarmConfig {
    /// Evaluation default: a 10 % hysteresis band, matching the pool's
    /// default demand headroom.
    pub fn default_eval() -> Self {
        WarmConfig { band: 0.10 }
    }

    /// Reject non-finite or negative bands with a typed error.
    pub fn validate(&self) -> Result<(), WarmConfigError> {
        if !self.band.is_finite() || self.band < 0.0 {
            return Err(WarmConfigError::BadBand(self.band));
        }
        Ok(())
    }
}

impl Default for WarmConfig {
    fn default() -> Self {
        Self::default_eval()
    }
}

/// Why a [`WarmConfig`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WarmConfigError {
    /// The hysteresis band is negative, NaN or infinite.
    BadBand(f64),
}

impl std::fmt::Display for WarmConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WarmConfigError::BadBand(b) => {
                write!(f, "warm-start hysteresis band {b} must be finite and ≥ 0")
            }
        }
    }
}

impl std::error::Error for WarmConfigError {}

/// Per-epoch warm-placement accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmStats {
    /// Cells in the instance this epoch.
    pub cells: usize,
    /// Cells whose demand crossed the hysteresis band (re-booked).
    pub dirty: usize,
    /// Cells that changed servers (or were newly placed).
    pub moves: usize,
}

/// Carries booked demands and the placement across epochs (see the module
/// docs for the feasibility argument).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WarmPlacer {
    config: WarmConfig,
    /// Booked GOPS per cell; `NAN`-free, 0.0 for never-booked cells.
    booked: Vec<f64>,
    /// Booked decode GOPS per cell, maintained in lockstep with `booked`
    /// so accelerator capacity is reserved with the same headroom
    /// discipline as general capacity (0.0 for cells with no decode
    /// share — the pre-accelerator behavior).
    booked_decode: Vec<f64>,
    placement: Placement,
}

/// [`WarmPlacer`] as it is read: placers serialized before accelerator
/// offload existed still parse, a missing `booked_decode` being all-zero
/// bookings of `booked`'s length. Not derived, because that default
/// depends on a sibling field.
#[derive(Deserialize)]
struct WarmPlacerWire {
    config: WarmConfig,
    booked: Vec<f64>,
    booked_decode: Option<Vec<f64>>,
    placement: Placement,
}

impl Deserialize for WarmPlacer {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let wire = WarmPlacerWire::read(r)?;
        Ok(WarmPlacer {
            config: wire.config,
            booked_decode: wire
                .booked_decode
                .unwrap_or_else(|| vec![0.0; wire.booked.len()]),
            booked: wire.booked,
            placement: wire.placement,
        })
    }
}

impl WarmPlacer {
    /// A fresh placer with no history.
    ///
    /// # Panics
    /// Panics when `config` does not [`WarmConfig::validate`].
    pub fn new(config: WarmConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        WarmPlacer {
            config,
            booked: Vec::new(),
            booked_decode: Vec::new(),
            placement: Placement::empty(0),
        }
    }

    /// The configured hysteresis band.
    pub fn config(&self) -> WarmConfig {
        self.config
    }

    /// The current placement (actual-demand feasible, see module docs).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The documented server-count bound relative to a cold-start solve
    /// using `cold` servers: `⌈WARM_GAP_FACTOR × cold⌉ + 1`, saturating at
    /// `usize::MAX` (the floor of a pool no server can load).
    pub fn gap_bound(cold_servers: usize) -> usize {
        ((WARM_GAP_FACTOR * cold_servers as f64).ceil() as usize).saturating_add(1)
    }

    /// Adopt an externally-mutated placement as the warm starting point.
    ///
    /// Control layers above the placer move cells between epochs (app
    /// `Migrate` actions, failover displacement, server drains); without
    /// adopting those moves the next [`WarmPlacer::epoch`] would repack
    /// against stale state. Bookings are kept — a cell the external layer
    /// unplaced simply fails the `placed` test and goes dirty next epoch.
    /// On growth new cells start unbooked; on shrink booking history is
    /// reset (dense cell ids renumber, so old bookings are meaningless).
    pub fn adopt(&mut self, placement: &Placement) {
        let n = placement.assignment.len();
        if self.booked.len() < n {
            self.booked.resize(n, 0.0);
            self.booked_decode.resize(n, 0.0);
        } else if self.booked.len() > n {
            self.booked = vec![0.0; n];
            self.booked_decode = vec![0.0; n];
        }
        self.placement = placement.clone();
    }

    /// Advance one epoch: re-book cells whose actual demand crossed the
    /// hysteresis band, repair the placement against the *booked* instance
    /// (topology changes in `instance.allowed`/`servers` are honoured —
    /// cells on now-forbidden servers are re-placed like any dirty cell),
    /// and return the new placement with churn accounting.
    ///
    /// Cells that fit nowhere remain unplaced, exactly as under
    /// [`incremental_repack`](super::migration::incremental_repack).
    pub fn epoch(&mut self, instance: &PlacementInstance) -> (Placement, MigrationPlan, WarmStats) {
        self.advance(instance, true)
    }

    /// [`WarmPlacer::epoch`], its backstop's cold solve stopped once its
    /// decision is known if `bounded`, else run to the end — the same
    /// epoch either way, which a test holds it to.
    fn advance(
        &mut self,
        instance: &PlacementInstance,
        bounded: bool,
    ) -> (Placement, MigrationPlan, WarmStats) {
        let n = instance.cells.len();
        // Cell set growth: new cells start unbooked and unplaced. Shrink
        // resets history (ids are dense, so a shrink renumbers cells).
        if self.booked.len() != n {
            if self.booked.len() < n {
                self.booked.resize(n, 0.0);
                self.booked_decode.resize(n, 0.0);
                self.placement.assignment.resize(n, None);
            } else {
                self.booked = vec![0.0; n];
                self.booked_decode = vec![0.0; n];
                self.placement = Placement::empty(n);
            }
        }

        let band = self.config.band;
        let shrink_floor = (1.0 + band) * (1.0 + band);
        let mut dirty = 0usize;
        let mut booked_cells = instance.cells.clone();
        for (cell, demand) in booked_cells.iter_mut().enumerate() {
            let actual = demand.gops;
            let booked = self.booked[cell];
            let placed = self.placement.assignment[cell].is_some();
            // The decode share must stay dominated by its booking too —
            // it moves with the same workload but not in lock proportion
            // (the fixed control cost shifts the ratio), so it gets its
            // own dominance test. With no decode share both sides are
            // 0.0 and the test is vacuous, preserving the pre-accelerator
            // band behavior exactly.
            let in_band = placed
                && actual <= booked
                && actual >= booked / shrink_floor
                && demand.decode_gops <= self.booked_decode[cell];
            if in_band {
                demand.gops = booked;
                demand.decode_gops = self.booked_decode[cell];
            } else {
                dirty += 1;
                let fresh = actual * (1.0 + band);
                let fresh_decode = demand.decode_gops * (1.0 + band);
                self.booked[cell] = fresh;
                self.booked_decode[cell] = fresh_decode;
                demand.gops = fresh;
                demand.decode_gops = fresh_decode;
                // The cell keeps its server: if the fresh booking still
                // fits there, no migration happens; if the server is now
                // overloaded, the repair layer below evicts and re-places
                // deterministically.
            }
        }

        let (mut new_placement, mut plan) = repack(
            &booked_cells,
            &instance.servers,
            &instance.allowed,
            &self.placement,
        );

        // Consolidation backstop (see module docs). With every cell placed,
        // the floor bounds any cold solve the backstop could adopt, so a
        // warm count inside `gap_bound(floor)` is inside `gap_bound(cold)`
        // too and the epoch stays O(n). Past it, the cold solve runs only
        // until it loads `keep_at` servers, the fewest whose bound already
        // holds the warm count.
        let used = instance.servers_used(&new_placement);
        let floor = if new_placement.placed() == n {
            instance.lower_bound_servers()
        } else {
            0
        };
        if used > Self::gap_bound(floor) {
            let keep_at = (0..=used)
                .find(|&k| Self::gap_bound(k) >= used)
                .expect("gap_bound(used) ≥ used");
            let cold = if bounded {
                place_bfd_below(instance, keep_at)
            } else {
                Some(place(instance, Heuristic::BestFitDecreasing))
            };
            if let Some(cold) = cold.filter(|cold| {
                used > Self::gap_bound(instance.servers_used(&cold.placement))
                    && cold.placement.placed() >= new_placement.placed()
            }) {
                // Adopt the cold solve wholesale and re-book at actual
                // demand (zero headroom — it re-accrues as cells next
                // cross the band). The count is now exactly the cold
                // count, inside the bound by construction.
                for (cell, demand) in instance.cells.iter().enumerate() {
                    self.booked[cell] = demand.gops;
                    self.booked_decode[cell] = demand.decode_gops;
                }
                dirty = n;
                plan = diff(&self.placement, &cold.placement);
                new_placement = cold.placement;
            }
        }

        self.placement = new_placement.clone();
        let stats = WarmStats {
            cells: n,
            dirty,
            moves: plan.len(),
        };
        (new_placement, plan, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::heuristics::{place, Heuristic};

    fn uniform(demands: &[f64], servers: usize, capacity: f64) -> PlacementInstance {
        PlacementInstance::uniform(demands, servers, capacity)
    }

    #[test]
    fn floor_counts_the_tolerance_fits_admits() {
        // Each cell sits just past the capacity but inside `fits`'s
        // tolerance, so best fit gives each its own server: 3. Dividing
        // the total by the raw capacity would floor it at 4.
        let cap = 100.0;
        let inst = uniform(&[cap * (1.0 + 5e-10); 3], 4, cap);
        let cold = place(&inst, Heuristic::BestFitDecreasing);
        assert!(cold.complete());
        let cold = inst.servers_used(&cold.placement);
        assert_eq!(cold, 3);
        let floor = inst.lower_bound_servers();
        assert!(floor <= cold, "floor {floor}");
    }

    #[test]
    fn first_epoch_places_like_cold_start() {
        let inst = uniform(&[50.0, 60.0, 70.0], 4, 200.0);
        let mut warm = WarmPlacer::new(WarmConfig::default_eval());
        let (p, _plan, stats) = warm.epoch(&inst);
        assert_eq!(stats.dirty, 3, "everything is dirty on the first epoch");
        assert_eq!(p.placed(), 3);
        assert!(inst.validate(&p).is_ok());
    }

    #[test]
    fn in_band_wobble_causes_no_churn() {
        let base = [50.0, 60.0, 70.0, 40.0];
        let inst = uniform(&base, 4, 200.0);
        let mut warm = WarmPlacer::new(WarmConfig { band: 0.10 });
        warm.epoch(&inst);
        // ±5 % wobble stays inside the 10 % band.
        let wobbled: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(i, d)| d * if i % 2 == 0 { 1.04 } else { 0.96 })
            .collect();
        let (_, plan, stats) = warm.epoch(&uniform(&wobbled, 4, 200.0));
        assert_eq!(stats.dirty, 0, "in-band cells must stay booked");
        assert!(plan.is_empty(), "no churn: {plan:?}");
    }

    #[test]
    fn out_of_band_growth_repacks_only_the_grown_cell() {
        let base = [50.0, 60.0, 70.0, 40.0];
        let inst = uniform(&base, 4, 200.0);
        let mut warm = WarmPlacer::new(WarmConfig { band: 0.10 });
        warm.epoch(&inst);
        let mut grown = base.to_vec();
        grown[2] *= 1.5; // well past the band
        let (p, _, stats) = warm.epoch(&uniform(&grown, 4, 200.0));
        assert_eq!(stats.dirty, 1);
        assert!(uniform(&grown, 4, 200.0).validate(&p).is_ok());
    }

    #[test]
    fn booked_loads_dominate_actual_loads() {
        // Feasibility transfer: after any epoch, actual server loads fit.
        let mut warm = WarmPlacer::new(WarmConfig { band: 0.2 });
        let mut demands = vec![30.0, 45.0, 60.0, 25.0, 80.0];
        for step in 0..10 {
            let factor = 1.0 + 0.07 * ((step % 3) as f64 - 1.0);
            for d in demands.iter_mut() {
                *d *= factor;
            }
            let inst = uniform(&demands, 6, 150.0);
            let (p, _, _) = warm.epoch(&inst);
            for (s, load) in inst.server_loads(&p).iter().enumerate() {
                assert!(
                    inst.servers[s].fits(*load),
                    "epoch {step}: server {s} at {load} GOPS overloaded on actual demand"
                );
            }
        }
    }

    #[test]
    fn stays_within_documented_gap_of_cold_start() {
        let mut warm = WarmPlacer::new(WarmConfig::default_eval());
        let mut demands: Vec<f64> = (0..24).map(|i| 20.0 + (i as f64 * 13.0) % 70.0).collect();
        for step in 0..8 {
            for (i, d) in demands.iter_mut().enumerate() {
                *d *= 1.0 + 0.05 * (((step + i) % 5) as f64 - 2.0) / 2.0;
            }
            let inst = uniform(&demands, 24, 200.0);
            let (p, _, _) = warm.epoch(&inst);
            let cold = place(&inst, Heuristic::BestFitDecreasing);
            let warm_used = inst.servers_used(&p);
            let cold_used = inst.servers_used(&cold.placement);
            assert!(
                warm_used <= WarmPlacer::gap_bound(cold_used),
                "epoch {step}: warm {warm_used} vs cold {cold_used}"
            );
        }
    }

    #[test]
    fn dead_server_forces_replacement() {
        let base = [50.0, 60.0];
        let inst = uniform(&base, 2, 200.0);
        let mut warm = WarmPlacer::new(WarmConfig::default_eval());
        let (p, _, _) = warm.epoch(&inst);
        let victim = p.assignment[0].unwrap();
        let mut shrunk = uniform(&base, 2, 200.0);
        shrunk.allowed = crate::placement::Allowed::Uniform((0..2).map(|s| s != victim).collect());
        let (p2, _, _) = warm.epoch(&shrunk);
        assert_ne!(p2.assignment[0], Some(victim));
        assert!(shrunk.validate(&p2).is_ok());
    }

    #[test]
    fn cell_set_growth_books_new_cells() {
        let mut warm = WarmPlacer::new(WarmConfig::default_eval());
        warm.epoch(&uniform(&[40.0, 40.0], 4, 200.0));
        let (p, _, stats) = warm.epoch(&uniform(&[40.0, 40.0, 40.0, 40.0], 4, 200.0));
        assert_eq!(stats.dirty, 2, "only the new cells are dirty");
        assert_eq!(p.placed(), 4);
    }

    #[test]
    #[should_panic(expected = "hysteresis band")]
    fn bad_band_rejected() {
        WarmPlacer::new(WarmConfig { band: -0.5 });
    }

    #[test]
    fn warm_bookings_respect_accelerator_capacity() {
        use crate::placement::{Accelerator, ServerLoad};
        // Half the pool accelerated, every cell with a decode share:
        // across growth/shrink epochs no server may exceed either
        // resource on *actual* demand.
        let mut warm = WarmPlacer::new(WarmConfig { band: 0.10 });
        let mut demands = vec![40.0, 55.0, 35.0, 60.0, 25.0, 45.0];
        for step in 0..8 {
            let factor = 1.0 + 0.08 * (((step % 4) as f64) - 1.5);
            for d in demands.iter_mut() {
                *d *= factor;
            }
            let mut inst = PlacementInstance::uniform(&demands, 6, 120.0);
            for s in 0..3 {
                inst.servers[s].accelerator = Some(Accelerator {
                    decode_capacity_gops: 60.0,
                    decode_speedup: 4.0,
                });
            }
            for c in inst.cells.iter_mut() {
                c.decode_gops = c.gops * 0.45;
            }
            let (p, _, _) = warm.epoch(&inst);
            for (s, load) in inst.server_loads_split(&p).iter().enumerate() {
                assert!(
                    inst.servers[s].fits_load(ServerLoad {
                        general: load.general,
                        decode: load.decode
                    }),
                    "epoch {step}: server {s} at {load:?} overloaded on actual demand"
                );
            }
        }
    }

    #[test]
    fn demand_collapse_triggers_consolidation() {
        // 24 busy cells spread over 24 servers, then demand collapses to
        // a trickle that fits one server. Incremental repair alone would
        // stay at the historical spread; the backstop must pull the
        // count back inside the documented gap of a cold solve.
        let mut warm = WarmPlacer::new(WarmConfig::default_eval());
        let busy = vec![100.0; 24];
        warm.epoch(&uniform(&busy, 24, 200.0));

        let idle = vec![5.0; 24];
        let inst = uniform(&idle, 24, 200.0);
        let (p, plan, stats) = warm.epoch(&inst);
        let cold = place(&inst, Heuristic::BestFitDecreasing);
        let warm_used = inst.servers_used(&p);
        let cold_used = inst.servers_used(&cold.placement);
        assert!(
            warm_used <= WarmPlacer::gap_bound(cold_used),
            "consolidation must restore the gap: warm {warm_used} vs cold {cold_used}"
        );
        assert_eq!(stats.dirty, 24, "consolidation re-books every cell");
        assert!(!plan.is_empty(), "consolidation moves cells");
        assert!(inst.validate(&p).is_ok());
    }

    /// The floor counts each cell at its general load, not its whole
    /// demand: ten cells of 60 GOPS whose 50-GOPS decode shares go to
    /// accelerators fit one server, and a four-server spread breaks the
    /// bound `gap_bound(1) = 3`. Counted whole, the cells gave a floor of
    /// 6, and 4 ≤ `gap_bound(6)` let the spread stand in every epoch.
    #[test]
    fn backstop_floor_takes_the_decode_share_off() {
        use crate::placement::{Accelerator, Placement};
        let mut inst = uniform(&[60.0; 10], 10, 100.0);
        for server in inst.servers.iter_mut() {
            server.accelerator = Some(Accelerator {
                decode_capacity_gops: 1_000.0,
                decode_speedup: 4.0,
            });
        }
        for cell in inst.cells.iter_mut() {
            cell.decode_gops = 50.0;
        }
        let cold = inst.servers_used(&place(&inst, Heuristic::BestFitDecreasing).placement);
        assert_eq!(cold, 1);
        let spread = Placement {
            assignment: (0..10).map(|c| Some(c % 4)).collect(),
        };
        assert!(inst.validate(&spread).is_ok());
        let mut warm = WarmPlacer::new(WarmConfig::default_eval());
        warm.adopt(&spread);
        for epoch in 0..3 {
            let (p, _, _) = warm.epoch(&inst);
            let used = inst.servers_used(&p);
            assert!(
                used <= WarmPlacer::gap_bound(cold),
                "epoch {epoch}: warm {used} vs cold {cold}"
            );
        }
    }

    /// A cell no server can take adds its demand to the floor but not to
    /// any cold solve, so the floor bounds the cold count only where every
    /// cell is placed. Four 90-GOPS cells each keep a server while they
    /// shrink to 10; the 1,000-GOPS cell fits nowhere. Cold best fit packs
    /// the four on one server, and a four-server spread breaks
    /// `gap_bound(1) = 3`, though the floor reads 11.
    #[test]
    fn an_unplaced_cell_does_not_lift_the_floor() {
        let mut warm = WarmPlacer::new(WarmConfig::default_eval());
        let (p, _, _) = warm.epoch(&uniform(&[90.0, 90.0, 90.0, 90.0, 1_000.0], 5, 100.0));
        assert_eq!((p.placed(), p.assignment[4]), (4, None));
        let inst = uniform(&[10.0, 10.0, 10.0, 10.0, 1_000.0], 5, 100.0);
        assert_eq!(inst.lower_bound_servers(), 11);
        let cold = inst.servers_used(&place(&inst, Heuristic::BestFitDecreasing).placement);
        assert_eq!(cold, 1);
        let (p, _, stats) = warm.epoch(&inst);
        let used = inst.servers_used(&p);
        assert!(
            used <= WarmPlacer::gap_bound(cold),
            "warm {used} vs cold {cold}"
        );
        assert_eq!((p.placed(), stats.dirty), (4, 5), "the cold solve adopted");
    }

    /// A pool whose servers all have zero capacity: a zero-demand cell
    /// fits there and the floor is `usize::MAX`, whose bound saturates; a
    /// cell with demand fits nowhere. Neither epoch overflows.
    #[test]
    fn a_zero_capacity_pool_saturates_the_bound() {
        assert_eq!(WarmPlacer::gap_bound(usize::MAX), usize::MAX);
        for demands in [&[0.0][..], &[0.0, 0.0], &[0.0, 10.0]] {
            let inst = uniform(demands, 2, 0.0);
            let (p, _, _) = WarmPlacer::new(WarmConfig::default_eval()).epoch(&inst);
            assert_eq!(inst.servers_used(&p), 0, "{demands:?}");
            assert_eq!(p.placed(), demands.iter().filter(|&&d| d == 0.0).count());
        }
        assert_eq!(uniform(&[0.0], 2, 0.0).lower_bound_servers(), usize::MAX);
    }

    /// Stopping the backstop's cold solve once its decision is known
    /// changes no epoch: over random demand walks on plain and half-
    /// accelerated pools, with collapses that make the backstop adopt and
    /// surges that spread the placement, a placer whose cold solves run
    /// to the end returns the same placement, plan and stats and ends
    /// each epoch in the same state.
    #[test]
    fn bounded_backstop_changes_no_epoch() {
        use crate::placement::Accelerator;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut rng = SmallRng::seed_from_u64(39);
        let (mut kept, mut adopted) = (0, 0);
        for walk in 0..400 {
            let n = rng.gen_range(2..=40usize);
            let mut inst = uniform(&vec![0.0; n], n, 200.0);
            if walk % 2 == 1 {
                for server in inst.servers.iter_mut().filter(|_| rng.gen_bool(0.5)) {
                    server.accelerator = Some(Accelerator {
                        decode_capacity_gops: 120.0,
                        decode_speedup: 4.0,
                    });
                }
            }
            let share = rng.gen_range(0.0..0.7);
            let mut demand: Vec<f64> = (0..n).map(|_| rng.gen_range(5.0..120.0)).collect();
            let mut bounded = WarmPlacer::new(WarmConfig {
                band: rng.gen_range(0.05..0.3),
            });
            let mut full = bounded.clone();
            for epoch in 0..12 {
                for (cell, &d) in inst.cells.iter_mut().zip(&demand) {
                    cell.gops = d;
                    cell.decode_gops = d * share;
                }
                let got = bounded.epoch(&inst);
                let want = full.advance(&inst, false);
                assert_eq!(got, want, "walk {walk}, epoch {epoch}: {inst:?}");
                assert_eq!(bounded, full, "walk {walk}, epoch {epoch}");

                // An adoption re-books at actual demand; a warm count
                // still past the floor's bound had its cold solve kept.
                if epoch > 0
                    && inst
                        .cells
                        .iter()
                        .zip(&bounded.booked)
                        .all(|(c, &b)| c.gops == b)
                {
                    adopted += 1;
                } else if inst.servers_used(&got.0)
                    > WarmPlacer::gap_bound(inst.lower_bound_servers())
                {
                    kept += 1;
                }

                let factor = match rng.gen_range(0..6u32) {
                    0 => 0.3,
                    1 => 2.0,
                    _ => rng.gen_range(0.8..1.2),
                };
                for d in demand.iter_mut() {
                    *d = (*d * factor * rng.gen_range(0.9..1.1f64)).clamp(1.0, 150.0);
                }
            }
        }
        assert!(adopted > 100, "the backstop barely adopts: {adopted}");
        assert!(kept > 100, "the backstop barely keeps: {kept}");
    }
}
