//! The controller's kept state against the dense, uncached description of
//! the same thing.
//!
//! The controller keeps a factored feasibility mask, a per-cell cached
//! prediction and one placement instance across epochs, each updated
//! where a cell or server changes. The oracle here keeps only the facts
//! (who is active, alive, drained; every cell's report window and cap)
//! and re-derives everything from them on demand, the way the controller
//! used to each epoch: `allowed[cell][server]` as a cells × servers
//! matrix, demand through `ComputeModel::cell_gops_bidirectional`.
//! Over random operation sequences, with and without a bound topology
//! and with warm and cold placement, the two must agree exactly — every
//! pair, every demand bit, and the placement a shadow placer computes
//! from the dense instance.

use std::collections::VecDeque;
use std::time::Duration;

use proptest::prelude::*;

use pran::{Action, Controller, Snapshot, SystemConfig, PREDICT_WINDOW};
use pran_fronthaul::{edge_regional, FunctionalSplit, Topology};
use pran_phy::compute::ComputeModel;
use pran_sched::placement::migration::incremental_repack;
use pran_sched::placement::{
    CellDemand, Placement, PlacementInstance, ServerSpec, WarmConfig, WarmPlacer,
};

const SERVICE: Duration = Duration::from_micros(1600);
const MAX_CELLS: usize = 12;

/// Eight front-ends 25 km apart, two edge servers at one end and six
/// regional ones 60 km out: cells fall into four reach classes (edge
/// only, both, regional only, neither). Cells registered past the eighth
/// have no front-end and reach nothing.
fn four_class_topology() -> Topology {
    let mut topo = edge_regional(8, 25_000.0, 2, 6, 60.0, FunctionalSplit::TransportBlocks);
    topo.sites[0].position = (0.0, 5_000.0);
    topo
}

struct OracleCell {
    active: bool,
    utilization: f64,
    history: VecDeque<f64>,
    cap: Option<u32>,
}

/// The facts, and nothing derived from them.
struct Oracle {
    cfg: SystemConfig,
    topo: Option<Topology>,
    cells: Vec<OracleCell>,
    alive: Vec<bool>,
    drained: Vec<bool>,
}

impl Oracle {
    fn new(cfg: SystemConfig, topo: Option<Topology>) -> Self {
        let servers = cfg.pool.servers;
        Oracle {
            cfg,
            topo,
            cells: Vec::new(),
            alive: vec![true; servers],
            drained: vec![false; servers],
        }
    }

    /// `active ∧ alive ∧ ¬drained ∧ reachable`, reach asked of the
    /// topology's geometry directly.
    fn allowed(&self, cell: usize, server: usize) -> bool {
        let reachable = match &self.topo {
            None => true,
            Some(t) => {
                cell < t.front_ends.len() && t.feasible(cell, t.site_of_server(server), SERVICE)
            }
        };
        self.cells[cell].active && self.alive[server] && !self.drained[server] && reachable
    }

    /// Sliding-window max, capped, through the compute model, × headroom.
    fn predicted(&self, cell: usize) -> f64 {
        let c = &self.cells[cell];
        if !c.active {
            return 0.0;
        }
        let peak = c.history.iter().copied().fold(c.utilization, f64::max);
        let u = match c.cap {
            Some(cap) => peak.min(f64::from(cap) / f64::from(self.cfg.bandwidth.prbs())),
            None => peak,
        };
        ComputeModel::calibrated().cell_gops_bidirectional(
            self.cfg.bandwidth,
            self.cfg.antennas,
            u,
            self.cfg.mcs,
        ) * self.cfg.headroom
    }

    /// The instance as the controller used to build it every epoch.
    fn dense_instance(&self) -> PlacementInstance {
        let servers = self.alive.len();
        let specs = match &self.topo {
            Some(t) => t.server_specs(),
            None => vec![(self.cfg.pool.capacity_gops, self.cfg.pool.server_cost); servers],
        };
        let allowed: Vec<Vec<bool>> = (0..self.cells.len())
            .map(|c| (0..servers).map(|s| self.allowed(c, s)).collect())
            .collect();
        PlacementInstance {
            cells: (0..self.cells.len())
                .map(|c| CellDemand::flat(c, self.predicted(c)))
                .collect(),
            servers: specs
                .iter()
                .enumerate()
                .map(|(id, &(capacity, cost))| ServerSpec::plain(id, capacity, cost))
                .collect(),
            allowed: allowed.into(),
        }
    }
}

/// Every pair of the mask and every demand bit against the oracle.
fn assert_agrees(ctl: &Controller, oracle: &Oracle, step: usize) {
    let instance = ctl.instance();
    assert_eq!(instance.cells.len(), oracle.cells.len());
    for cell in 0..oracle.cells.len() {
        assert_eq!(
            ctl.predicted_gops(cell).to_bits(),
            oracle.predicted(cell).to_bits(),
            "step {step}: cell {cell} predicts {} but the uncached expression gives {}",
            ctl.predicted_gops(cell),
            oracle.predicted(cell)
        );
        let row = instance.allowed.row(cell);
        for server in 0..oracle.alive.len() {
            let expected = oracle.allowed(cell, server);
            assert_eq!(
                (instance.is_allowed(cell, server), row.allows(server)),
                (expected, expected),
                "step {step}: mask disagrees on cell {cell} × server {server}"
            );
        }
    }
    let view = ctl.view();
    for (server, v) in view.servers.iter().enumerate() {
        assert_eq!(
            v.usable(),
            oracle.alive[server] && !oracle.drained[server],
            "step {step}: view usability of server {server}"
        );
    }
}

/// Raw material for one operation: a kind selector, an index and a knob
/// in `[0, 1)` (the vendored proptest has no `prop_oneof!`).
type RawOp = (u8, u16, f64);

fn run(warm: bool, bound: bool, raw: &[RawOp]) {
    let topo = bound.then(four_class_topology);
    let servers = topo.as_ref().map_or(6, Topology::total_servers);
    let mut cfg = SystemConfig::default_eval(servers);
    cfg.warm = warm.then(WarmConfig::default_eval);
    let mut ctl = Controller::new(cfg.clone());
    if let Some(t) = &topo {
        ctl.bind_topology(t, SERVICE).expect("server counts match");
    }
    let mut oracle = Oracle::new(cfg, topo);
    let mut shadow = warm.then(|| WarmPlacer::new(WarmConfig::default_eval()));
    let mut now = Duration::ZERO;

    for (step, &(kind, index, knob)) in raw.iter().enumerate() {
        let cell = (!oracle.cells.is_empty()).then(|| index as usize % oracle.cells.len());
        let server = index as usize % servers;
        now += Duration::from_secs(1);
        match (kind % 14, cell) {
            (0, _) if oracle.cells.len() < MAX_CELLS => {
                assert_eq!(ctl.register_cell(), oracle.cells.len());
                oracle.cells.push(OracleCell {
                    active: true,
                    utilization: 0.0,
                    history: VecDeque::new(),
                    cap: None,
                });
            }
            (1, Some(c)) => {
                ctl.deregister_cell(c).expect("the cell exists");
                oracle.cells[c].active = false;
            }
            (2..=4, Some(c)) => {
                // Reports past either end of [0, 1] must clamp alike.
                let u = knob * 1.2 - 0.1;
                ctl.report_load(c, u).expect("the cell exists");
                let cell = &mut oracle.cells[c];
                cell.utilization = u.clamp(0.0, 1.0);
                if cell.history.len() == PREDICT_WINDOW {
                    cell.history.pop_front();
                }
                cell.history.push_back(u.clamp(0.0, 1.0));
            }
            (5, Some(c)) => {
                let prbs = (knob * 100.0) as u32;
                if ctl.apply_action(Action::CapPrbs { cell: c, prbs }).is_ok() {
                    oracle.cells[c].cap = Some(prbs);
                }
            }
            (6, Some(c)) => {
                // Rejected on a deregistered cell; the oracle follows suit.
                let applied = ctl.apply_action(Action::UncapPrbs { cell: c }).is_ok();
                if applied {
                    oracle.cells[c].cap = None;
                }
            }
            (7, _) => {
                ctl.apply_action(Action::Drain { server })
                    .expect("the server exists");
                oracle.drained[server] = true;
            }
            (8, _) => {
                ctl.apply_action(Action::Activate { server })
                    .expect("the server exists");
                oracle.drained[server] = false;
            }
            (9, _) => {
                ctl.server_failed(server, now).expect("the server exists");
                oracle.alive[server] = false;
            }
            (10, _) => {
                ctl.server_recovered(server, now)
                    .expect("the server exists");
                oracle.alive[server] = true;
            }
            (11, _) => {
                // Everything derived is rebuilt from the wire form.
                let text = serde_json::to_string(&ctl.snapshot()).expect("snapshot serializes");
                let snapshot: Snapshot = serde_json::from_str(&text).expect("and parses");
                ctl = Controller::try_restore(snapshot).expect("and restores");
            }
            (12 | 13, _) => {
                let dense = oracle.dense_instance();
                let before: Placement = ctl.placement().clone();
                let expected = match shadow.as_mut() {
                    Some(w) => {
                        w.adopt(&before);
                        w.epoch(&dense).0
                    }
                    None => incremental_repack(&dense, &before).0,
                };
                ctl.run_epoch(now);
                assert_eq!(
                    ctl.placement(),
                    &expected,
                    "step {step}: the kept instance placed differently from the dense one"
                );
                assert_eq!(ctl.instance().cells, dense.cells);
                assert_eq!(ctl.instance().servers, dense.servers);
            }
            _ => {}
        }
        assert_agrees(&ctl, &oracle, step);
    }
}

fn ops() -> proptest::collection::VecStrategy<(
    std::ops::Range<u8>,
    std::ops::Range<u16>,
    std::ops::Range<f64>,
)> {
    proptest::collection::vec((0u8..14, 0u16..1_000, 0.0f64..1.0), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cold_unbound(raw in ops()) {
        run(false, false, &raw);
    }

    #[test]
    fn warm_unbound(raw in ops()) {
        run(true, false, &raw);
    }

    #[test]
    fn cold_bound(raw in ops()) {
        run(false, true, &raw);
    }

    #[test]
    fn warm_bound(raw in ops()) {
        run(true, true, &raw);
    }
}

/// A fixed walk that is sure to cross every branch the random ones only
/// probably do: window eviction of the peak, a cap under the peak, a
/// drain and a failure of a loaded server, and a restore in the middle.
#[test]
fn scripted_walk_agrees() {
    let mut raw: Vec<RawOp> = Vec::new();
    for c in 0..10u16 {
        raw.push((0, 0, 0.0));
        raw.push((2, c, 0.3 + 0.05 * f64::from(c)));
    }
    raw.push((12, 0, 0.0));
    // Nine lower reports push the first peak out of every window.
    for round in 0..9u16 {
        for c in 0..10u16 {
            raw.push((2, c, 0.25 - 0.01 * f64::from(round)));
        }
        raw.push((12, 0, 0.0));
    }
    raw.extend([
        (5, 3, 0.10),
        (7, 0, 0.0),
        (12, 0, 0.0),
        (9, 2, 0.0),
        (11, 0, 0.0),
        (12, 0, 0.0),
        (1, 4, 0.0),
        (6, 3, 0.0),
        (8, 0, 0.0),
        (10, 2, 0.0),
        (12, 0, 0.0),
    ]);
    for warm in [false, true] {
        for bound in [false, true] {
            run(warm, bound, &raw);
        }
    }
}
