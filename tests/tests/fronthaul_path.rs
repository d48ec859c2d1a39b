//! Fronthaul integration: latency budgets feeding the placement layer's
//! reachability matrix.

use std::time::Duration;

use pran_fronthaul::{FaultConfig, FronthaulPath, FunctionalSplit};
use pran_phy::frame::{AntennaConfig, Bandwidth};
use pran_phy::mcs::Mcs;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::PlacementInstance;
use pran_sim::{
    LinkFault, MetroConfig, MetroError, MetroSimulator, PoolConfig, PoolConfigError, PoolSimulator,
    ResidentMetro,
};
use pran_traces::{generate, TraceConfig};

#[test]
fn latency_budget_builds_the_reachability_matrix() {
    // Three pool sites at 5/60/400 km; the placement layer must only see
    // the sites the HARQ budget (and burst size per split) permits.
    let bw = Bandwidth::Mhz20;
    let ant = AntennaConfig::pran_default();
    let mcs = Mcs::new(20);
    let split = FunctionalSplit::FrequencyDomain;
    let bytes_per_tti = (split.bandwidth_bps(bw, ant, 1.0, mcs) * 1e-3 / 8.0) as usize;
    // A full-load uplink subframe needs ~1.6 ms on a 100-GOPS core.
    let service = Duration::from_micros(1600);

    let sites = [5_000.0f64, 60_000.0, 400_000.0];
    let allowed_row: Vec<bool> = sites
        .iter()
        .map(|&m| FronthaulPath::metro(m).feasible(bytes_per_tti, service))
        .collect();
    assert_eq!(
        allowed_row,
        vec![true, true, false],
        "400 km must be out of reach"
    );

    // Feed the matrix into placement: cells can only land on reachable
    // sites even when the far site has infinite room.
    let demands = vec![200.0; 4];
    let mut inst = PlacementInstance::uniform(&demands, 3, 450.0);
    inst.allowed = pran_sched::placement::Allowed::Uniform(allowed_row.clone());
    let r = place(&inst, Heuristic::BestFitDecreasing);
    assert!(r.complete());
    for (cell, a) in r.placement.assignment.iter().enumerate() {
        assert_ne!(*a, Some(2), "cell {cell} placed beyond the HARQ horizon");
    }
}

#[test]
fn split_choice_changes_reach() {
    // The MAC-PHY split tolerates much more latency → strictly more sites
    // are reachable than under the CPRI-like splits.
    let bw = Bandwidth::Mhz20;
    let ant = AntennaConfig::pran_default();
    let mcs = Mcs::new(20);
    let service = Duration::from_micros(500);
    let sites = [10_000.0f64, 80_000.0, 200_000.0];

    let reach = |split: FunctionalSplit| -> usize {
        let bytes = (split.bandwidth_bps(bw, ant, 1.0, mcs) * 1e-3 / 8.0) as usize;
        sites
            .iter()
            .filter(|&&m| {
                let path = FronthaulPath::metro(m);
                // Both the HARQ budget and the split's own tolerance bind.
                path.feasible(bytes, service) && path.one_way(bytes) <= split.max_one_way_latency()
            })
            .count()
    };

    let iq = reach(FunctionalSplit::TimeDomainIq);
    let tb = reach(FunctionalSplit::TransportBlocks);
    assert!(
        tb > iq,
        "higher split must reach further: IQ {iq} vs TB {tb}"
    );
}

/// A link drop probability outside `[0, 1]`, or NaN, is a typed config
/// error at every pool gate — the single pool, the batch metro and the
/// resident metro — instead of a run that drops every frame or none.
#[test]
fn an_out_of_range_drop_probability_is_a_typed_config_error() {
    for drop_prob in [1.5, -0.1, f64::NAN] {
        let mut pool = PoolConfig::default_eval(4);
        pool.fronthaul = Some(LinkFault {
            config: FaultConfig {
                drop_prob,
                ..FaultConfig::clean()
            },
            seed: 1,
        });
        let is_bad_drop = |e: &PoolConfigError| match e {
            PoolConfigError::BadDropProb(p) => p.to_bits() == drop_prob.to_bits(),
            _ => false,
        };
        let mut trace = TraceConfig::default_day(8, 3);
        trace.duration_seconds = 3_600.0;
        trace.step_seconds = 600.0;
        let single = PoolSimulator::try_new(generate(&trace), pool.clone());
        assert!(
            single.as_ref().err().is_some_and(is_bad_drop),
            "pool, drop_prob {drop_prob}: {:?}",
            single.err()
        );
        let metro = MetroConfig::default_eval(8, 2);
        let bad_metro = |r: Result<(), MetroError>| {
            r.err()
                .is_some_and(|e| matches!(e, MetroError::Pool(ref p) if is_bad_drop(p)))
        };
        let batch = MetroSimulator::with_pool(metro, pool.clone(), trace.clone()).map(drop);
        assert!(bad_metro(batch), "metro, drop_prob {drop_prob}");
        let resident = ResidentMetro::with_pool(metro, pool, trace).map(drop);
        assert!(bad_metro(resident), "resident, drop_prob {drop_prob}");
    }
}
