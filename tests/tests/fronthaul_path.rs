//! Fronthaul integration: latency budgets feeding the placement layer's
//! reachability matrix.

use std::time::Duration;

use pran_fronthaul::{FronthaulPath, FunctionalSplit};
use pran_phy::frame::{AntennaConfig, Bandwidth};
use pran_phy::mcs::Mcs;
use pran_sched::placement::heuristics::{place, Heuristic};
use pran_sched::placement::PlacementInstance;

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
