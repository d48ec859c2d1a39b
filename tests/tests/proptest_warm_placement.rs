//! Differential property tests: warm-start placement vs the cold-start
//! heuristic and the exact ILP (ISSUE 5 satellite 1).
//!
//! Over randomized demand walks the [`WarmPlacer`] must
//! (a) never violate [`ServerSpec::fits`] on *actual* demands — the
//!     feasibility-transfer argument in `pran_sched::placement::warm`,
//! (b) stay within the documented server-count gap of a cold
//!     best-fit-decreasing solve of the same actual demands, and
//! (c) on small instances, stay within the combined documented gap of the
//!     `pran-ilp` optimum (warm ≤ gap(cold) and cold ≤ 11/9·OPT + 1).
//!
//! (a) and (b) are held on plain pools and on pools where every other
//! server carries a decode accelerator, which takes each cell's decode
//! share off its general cores.

use proptest::prelude::*;

use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::ilp::solve_default;
use pran_sched::placement::{
    Accelerator, Placement, PlacementInstance, WarmConfig, WarmPlacer, WARM_GAP_FACTOR,
};

/// Every placed cell's server must fit its *actual* aggregate load, on
/// both resources.
fn assert_actual_feasible(inst: &PlacementInstance, p: &Placement) {
    for (server, load) in inst.server_loads_split(p).iter().enumerate() {
        assert!(
            inst.servers[server].fits_load(*load),
            "server {server} overloaded on actual demand: {load:?} GOPS"
        );
    }
}

/// The next epoch's demands: a deterministic pseudo-random drift of
/// ±30 %, clamped to 10..100 GOPS.
fn drift(current: &mut [f64], drift_seed: u64, epoch: usize) {
    let n = current.len();
    for (i, d) in current.iter_mut().enumerate() {
        let mix = drift_seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((epoch * n + i) as u64);
        let r = ((mix >> 33) % 1000) as f64 / 1000.0; // [0, 1)
        *d = (*d * (0.7 + 0.6 * r)).clamp(10.0, 100.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The core differential property, ≥256 randomized demand walks.
    #[test]
    fn warm_placement_feasible_and_within_gap_of_cold(
        demands in proptest::collection::vec(10.0f64..100.0, 1..24),
        band in 0.0f64..0.30,
        epochs in 1usize..6,
        drift_seed in 0u64..1_000,
    ) {
        let n = demands.len();
        // One 200-GOPS server per cell: bookings at ≤ 100 × 1.3 always
        // fit somewhere, so every cell is always placeable.
        let capacity = 200.0;
        let mut warm = WarmPlacer::new(WarmConfig { band });
        let mut current = demands.clone();
        for epoch in 0..epochs {
            let inst = PlacementInstance::uniform(&current, n, capacity);
            let (p, _plan, stats) = warm.epoch(&inst);
            prop_assert_eq!(p.placed(), n, "epoch {}: all cells placeable", epoch);
            prop_assert!(stats.dirty <= n);
            assert_actual_feasible(&inst, &p);

            // Differential vs the cold heuristic on the same actuals.
            let cold = place(&inst, Heuristic::BestFitDecreasing);
            let warm_used = inst.servers_used(&p);
            let cold_used = inst.servers_used(&cold.placement);
            prop_assert!(
                warm_used <= WarmPlacer::gap_bound(cold_used),
                "epoch {}: warm {} vs cold {} exceeds documented gap {}",
                epoch, warm_used, cold_used, WarmPlacer::gap_bound(cold_used)
            );

            drift(&mut current, drift_seed, epoch);
        }
    }

    /// The same walks on a pool where every other server carries a
    /// decode accelerator and each cell has a decode share. The warm
    /// placer's consolidation floor must count each cell at its general
    /// load there, or the gap goes unenforced.
    #[test]
    fn accelerated_warm_placement_feasible_and_within_gap_of_cold(
        demands in proptest::collection::vec(10.0f64..100.0, 1..24),
        shares in proptest::collection::vec(0.0f64..0.6, 24),
        band in 0.0f64..0.30,
        epochs in 1usize..6,
        drift_seed in 0u64..1_000,
    ) {
        let n = demands.len();
        // A booked cell needs at most 130 general and 78 decode GOPS, so
        // it fits any empty server and every cell is always placeable.
        let mut warm = WarmPlacer::new(WarmConfig { band });
        let mut current = demands.clone();
        for epoch in 0..epochs {
            let mut inst = PlacementInstance::uniform(&current, n, 200.0);
            for server in inst.servers.iter_mut().step_by(2) {
                server.accelerator = Some(Accelerator {
                    decode_capacity_gops: 100.0,
                    decode_speedup: 4.0,
                });
            }
            for (cell, share) in inst.cells.iter_mut().zip(&shares) {
                cell.decode_gops = cell.gops * share;
            }
            let (p, _plan, _stats) = warm.epoch(&inst);
            prop_assert_eq!(p.placed(), n, "epoch {}: all cells placeable", epoch);
            assert_actual_feasible(&inst, &p);

            let cold = place(&inst, Heuristic::BestFitDecreasing);
            let warm_used = inst.servers_used(&p);
            let cold_used = inst.servers_used(&cold.placement);
            prop_assert!(
                warm_used <= WarmPlacer::gap_bound(cold_used),
                "epoch {}: warm {} vs cold {} exceeds documented gap {}",
                epoch, warm_used, cold_used, WarmPlacer::gap_bound(cold_used)
            );

            drift(&mut current, drift_seed, epoch);
        }
    }

    /// On small instances the exact ILP optimum anchors the gap chain:
    /// cold BFD ≤ 11/9·OPT + 1, warm ≤ ⌈2·cold⌉ + 1.
    #[test]
    fn warm_placement_within_combined_gap_of_ilp(
        // Booked demand tops out at 75 × 1.25 < 100, so bookings always
        // fit a server and the instance stays feasible for the warm path.
        demands in proptest::collection::vec(10.0f64..75.0, 1..7),
        band in 0.0f64..0.25,
    ) {
        let n = demands.len();
        let inst = PlacementInstance::uniform(&demands, n, 100.0);
        let mut warm = WarmPlacer::new(WarmConfig { band });
        let (p, _, _) = warm.epoch(&inst);
        prop_assert_eq!(p.placed(), n);
        assert_actual_feasible(&inst, &p);
        let warm_used = inst.servers_used(&p);

        let cold = place(&inst, Heuristic::BestFitDecreasing);
        let cold_used = inst.servers_used(&cold.placement);

        let ilp = solve_default(&inst);
        if let (true, Some(opt_p)) = (ilp.optimal, &ilp.placement) {
            let opt_used = inst.servers_used(opt_p);
            prop_assert!(opt_used <= cold_used, "ILP can't be worse than BFD");
            let bfd_bound = (11.0 / 9.0 * opt_used as f64 + 1.0).floor() as usize;
            prop_assert!(
                cold_used <= bfd_bound,
                "BFD {} vs OPT {} breaks 11/9·OPT+1", cold_used, opt_used
            );
            let combined =
                (WARM_GAP_FACTOR * bfd_bound as f64).ceil() as usize + 1;
            prop_assert!(
                warm_used <= combined,
                "warm {} vs OPT {} exceeds combined gap {}",
                warm_used, opt_used, combined
            );
        }
    }

    /// Hysteresis actually suppresses churn: after converging, in-band
    /// wobble produces zero dirty cells and zero moves.
    #[test]
    fn in_band_wobble_never_churns(
        demands in proptest::collection::vec(20.0f64..80.0, 1..16),
        wobble in -0.04f64..0.04,
    ) {
        let n = demands.len();
        let mut warm = WarmPlacer::new(WarmConfig { band: 0.10 });
        warm.epoch(&PlacementInstance::uniform(&demands, n, 200.0));
        let wobbled: Vec<f64> = demands.iter().map(|d| d * (1.0 + wobble)).collect();
        let (_, plan, stats) =
            warm.epoch(&PlacementInstance::uniform(&wobbled, n, 200.0));
        prop_assert_eq!(stats.dirty, 0, "±4% stays inside the 10% band");
        prop_assert!(plan.is_empty());
    }
}
