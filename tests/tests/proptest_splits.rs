//! Property tests for the split-aware, accelerator-aware placement and
//! fronthaul layers (ISSUE 10 satellite 2).
//!
//! Over randomized heterogeneous instances — per-cell decode shares,
//! a minority of servers carrying finite-capacity accelerators — the
//! [`WarmPlacer`] must (a) place every cell (the instances are sized so
//! plain capacity alone suffices), (b) never violate
//! [`ServerSpec::fits_load`] on either resource (general cores *and*
//! accelerator capacity), and (c) stay within the documented server-count
//! gap of a cold split-aware best-fit-decreasing solve. Separately,
//! [`FunctionalSplit::fronthaul_bytes_per_tti`] must be monotone both in
//! PRB usage and down the split ladder.

use proptest::prelude::*;

use pran::SystemConfig;
use pran_phy::FunctionalSplit;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::{
    Accelerator, Allowed, CellDemand, PlacementInstance, ServerSpec, WarmConfig, WarmPlacer,
};
use pran_sim::{PoolAccel, PoolConfig, PoolConfigError, SplitPlan};

/// A heterogeneous instance: `demands[i] × decode_fracs[i]` GOPS of each
/// cell's demand is turbo decode; the first `servers/4` servers carry an
/// accelerator of `accel_cap` GOPS. One 400-GOPS server per cell keeps
/// every instance feasible on plain capacity alone (booked demand tops
/// out at 100 × 1.3 = 130, so three cells share a plain server and at
/// least a quarter of the pool never rejects decode).
fn heterogeneous_instance(
    demands: &[f64],
    decode_fracs: &[f64],
    accel_cap: f64,
) -> PlacementInstance {
    let n = demands.len();
    PlacementInstance {
        cells: demands
            .iter()
            .zip(decode_fracs)
            .enumerate()
            .map(|(id, (&gops, &frac))| CellDemand {
                id,
                gops,
                decode_gops: gops * frac,
            })
            .collect(),
        servers: (0..n)
            .map(|id| ServerSpec {
                id,
                capacity_gops: 400.0,
                cost: 1.0,
                accelerator: (id < n / 4).then_some(Accelerator {
                    decode_capacity_gops: accel_cap,
                    decode_speedup: 4.0,
                }),
            })
            .collect(),
        allowed: Allowed::All,
    }
}

/// Both resources of every server must fit its spec under the placement.
fn assert_two_resource_feasible(inst: &PlacementInstance, p: &pran_sched::placement::Placement) {
    for (server, load) in inst.server_loads_split(p).iter().enumerate() {
        assert!(
            inst.servers[server].fits_load(*load),
            "server {server} overloaded: general {} / decode {} GOPS",
            load.general,
            load.decode
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Warm placement on heterogeneous instances: every cell placed,
    /// both resources within capacity every epoch, and the server count
    /// within the documented gap of the cold split-aware BFD.
    #[test]
    fn warm_placement_respects_both_resources_and_gap(
        demands in proptest::collection::vec(10.0f64..100.0, 1..24),
        decode_fracs in proptest::collection::vec(0.0f64..0.5, 24),
        accel_cap in 20.0f64..250.0,
        band in 0.0f64..0.30,
        epochs in 1usize..5,
        drift_seed in 0u64..1_000,
    ) {
        let n = demands.len();
        let mut warm = WarmPlacer::new(WarmConfig { band });
        let mut current = demands.clone();
        for epoch in 0..epochs {
            let inst = heterogeneous_instance(&current, &decode_fracs[..n], accel_cap);
            let (p, _plan, stats) = warm.epoch(&inst);
            prop_assert_eq!(p.placed(), n, "epoch {}: all cells placeable", epoch);
            prop_assert!(stats.dirty <= n);
            assert_two_resource_feasible(&inst, &p);
            prop_assert!(inst.validate(&p).is_ok(), "epoch {}: placement validates", epoch);

            // Differential vs the cold split-aware heuristic on the same
            // actual (demand, decode) pairs.
            let cold = place(&inst, Heuristic::BestFitDecreasing);
            prop_assert_eq!(cold.placement.placed(), n, "cold solve must also fit");
            let warm_used = inst.servers_used(&p);
            let cold_used = inst.servers_used(&cold.placement);
            prop_assert!(
                warm_used <= WarmPlacer::gap_bound(cold_used),
                "epoch {}: warm {} vs cold {} exceeds documented gap {}",
                epoch, warm_used, cold_used, WarmPlacer::gap_bound(cold_used)
            );

            // Deterministic pseudo-random drift for the next epoch.
            for (i, d) in current.iter_mut().enumerate() {
                let mix = drift_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((epoch * n + i) as u64);
                let r = ((mix >> 33) % 1000) as f64 / 1000.0; // [0, 1)
                *d = (*d * (0.7 + 0.6 * r)).clamp(10.0, 100.0);
            }
        }
    }

    /// Every cold heuristic honors both resources on heterogeneous
    /// instances (the warm test above pins only BFD).
    #[test]
    fn cold_heuristics_respect_both_resources(
        demands in proptest::collection::vec(10.0f64..100.0, 1..24),
        decode_fracs in proptest::collection::vec(0.0f64..0.5, 24),
        accel_cap in 20.0f64..250.0,
    ) {
        let n = demands.len();
        let inst = heterogeneous_instance(&demands, &decode_fracs[..n], accel_cap);
        for h in Heuristic::all() {
            let r = place(&inst, h);
            prop_assert_eq!(r.placement.placed(), n, "{}: all cells placeable", h.label());
            assert_two_resource_feasible(&inst, &r.placement);
            prop_assert!(inst.validate(&r.placement).is_ok(), "{}", h.label());
        }
    }

    /// Fronthaul frame bytes are monotone in PRB usage for every split,
    /// monotone down the split ladder at equal usage, and bounded by the
    /// full-split IQ-like frame.
    #[test]
    fn fronthaul_bytes_monotone(
        max_prbs in 6u32..110,
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let p_lo = (f64::from(max_prbs) * lo).round() as u32;
        let p_hi = (f64::from(max_prbs) * hi).round() as u32;
        for split in FunctionalSplit::all() {
            // Monotone in PRBs.
            prop_assert!(
                split.fronthaul_bytes_per_tti(p_lo, max_prbs)
                    <= split.fronthaul_bytes_per_tti(p_hi, max_prbs),
                "{split}: bytes must not shrink as PRBs grow"
            );
        }
        for prbs in [p_lo, p_hi] {
            let full = FunctionalSplit::Full.fronthaul_bytes_per_tti(prbs, max_prbs);
            let s2 = FunctionalSplit::SplitII.fronthaul_bytes_per_tti(prbs, max_prbs);
            let s3 = FunctionalSplit::SplitIII.fronthaul_bytes_per_tti(prbs, max_prbs);
            prop_assert!(
                full >= s2 && s2 >= s3,
                "split ladder must shrink bytes: full {full} / II {s2} / III {s3}"
            );
            prop_assert!(s3 >= 1, "even the MAC-up split ships a report");
        }
    }

    /// Arbitrary valid split/accel configs round-trip through
    /// `pran::SystemConfig` JSON bit-for-bit (chaos-DSL style: the wire
    /// format is part of the contract).
    #[test]
    fn split_config_round_trips(
        tags in proptest::collection::vec(0u8..3, 1..32),
        uniform in any::<bool>(),
        fraction in 0.0f64..1.0,
        with_accel in any::<bool>(),
    ) {
        let mut c = SystemConfig::default_eval(4);
        c.split = if uniform {
            SplitPlan::Uniform(FunctionalSplit::all()[tags[0] as usize % 3])
        } else {
            SplitPlan::PerCell(
                tags.iter().map(|&t| FunctionalSplit::all()[t as usize % 3]).collect(),
            )
        };
        c.accel = with_accel.then_some(PoolAccel { fraction });
        let json = serde_json::to_string(&c).unwrap();
        let back: SystemConfig = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, c);
    }

    /// An out-of-range accelerated-server fraction comes back as the
    /// typed [`PoolConfigError::BadAccelFraction`] — never a panic, never
    /// silent acceptance.
    #[test]
    fn bad_accel_parameters_yield_typed_errors(
        over_fraction in 1.0f64..100.0,
        neg in -100.0f64..0.0,
    ) {
        prop_assume!(over_fraction > 1.0 + 1e-12);
        let base = PoolConfig::default_eval(4);

        let mut cfg = base.clone();
        cfg.accel = Some(PoolAccel { fraction: over_fraction });
        prop_assert!(matches!(
            cfg.validate(),
            Err(PoolConfigError::BadAccelFraction(_))
        ));

        let mut cfg = base;
        cfg.accel = Some(PoolAccel { fraction: neg - 1e-9 });
        prop_assert!(matches!(
            cfg.validate(),
            Err(PoolConfigError::BadAccelFraction(_))
        ));
    }

    /// Arbitrary bytes never panic the `SystemConfig` parser, and
    /// mutating the `split` tag to garbage is a typed rejection that
    /// names the unknown tag.
    #[test]
    fn arbitrary_config_input_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        tag_seed in 0u64..u64::MAX,
        tag_len in 1usize..12,
    ) {
        let junk = String::from_utf8_lossy(&bytes);
        // The vendored proptest has no string strategies; derive an
        // ASCII-alpha tag from a seed instead.
        let tag: String = (0..tag_len)
            .map(|i| {
                let x = tag_seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64)
                    .rotate_left(17);
                char::from(b'A' + (x % 52) as u8 % 26)
            })
            .collect();
        let _ = serde_json::from_str::<SystemConfig>(&junk); // Ok or Err, never panic

        let known = FunctionalSplit::all().iter().any(|s| format!("{s:?}") == tag);
        let mut v = serde_json::to_value(SystemConfig::default_eval(4)).unwrap();
        if let serde_json::Value::Object(root) = &mut v {
            root.insert("split".into(), serde_json::Value::String(tag.clone()));
        }
        match serde_json::from_str::<SystemConfig>(&v.to_json_string()) {
            Ok(_) => prop_assert!(known, "unknown tag {} must not parse", tag),
            Err(e) => {
                prop_assert!(!known, "known tag {} must parse: {}", tag, e);
                prop_assert!(e.to_string().contains(&tag), "error must name the tag: {}", e);
            }
        }
    }
}
