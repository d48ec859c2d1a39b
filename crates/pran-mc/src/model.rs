//! The abstract control-plane model: compact state, operations, and
//! transition semantics that mirror `pran::Controller` *exactly*.
//!
//! The model is not a re-idealization of the controller — it is a
//! projection of it. Wherever the concrete controller makes a decision
//! that affects observable state, the model either calls the same code
//! (`incremental_repack` for epochs, [`FailoverApp`] for crash response)
//! or mirrors the implementation line for line (the `Migrate` validation
//! in [`Model::mirror_migrate`]). Demands are precomputed through the
//! `ComputeModel::cell_gops_bidirectional` call the controller's
//! prediction makes, so every `f64` the model compares is *bitwise* equal
//! to the controller's and the conformance layer can use exact equality.
//!
//! The compression that makes exhaustive search feasible: a cell's report
//! history collapses to `(last, peak)` level indices. This is exact while
//! the sliding window never slides, i.e. while each cell has received at
//! most [`pran::PREDICT_WINDOW`] reports — which [`Model::new`] enforces
//! by bounding exploration depth.

use std::collections::VecDeque;
use std::time::Duration;

use pran::apps::FailoverApp;
use pran::{Action, CellView, ControlApp, PoolEvent, PoolView, ServerView, SystemConfig};
use pran_phy::compute::ComputeModel;
use pran_sched::placement::migration::incremental_repack;
use pran_sched::placement::{
    Allowed, CellDemand, Placement, PlacementInstance, ProductMask, ServerSpec,
};

use crate::conformance::Conformance;
use crate::view::{OpMix, ViewSemantics};

/// One abstract controller action. Each variant maps onto exactly one
/// concrete entry point of `pran::Controller` (or, for [`Operation::Fail`]
/// / [`Operation::Recover`] under stale semantics, onto a *physical* event
/// the controller has not heard about yet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// A load report: `Controller::report_load(cell, levels[level])`.
    Report {
        /// Reporting cell.
        cell: usize,
        /// Index into [`McConfig::levels`].
        level: usize,
    },
    /// A placement epoch: `Controller::run_epoch`.
    Epoch,
    /// A server physically dies. Under [`ViewSemantics::Linearizable`]
    /// the controller learns immediately (`server_failed` + failover
    /// app); under [`ViewSemantics::Stale`] the notification is queued.
    Fail {
        /// The dying server.
        server: usize,
    },
    /// A server physically comes back (`server_recovered`, or queued).
    Recover {
        /// The recovering server.
        server: usize,
    },
    /// Deliver the oldest pending liveness notification (stale semantics
    /// only): the point where the controller's belief catches up with one
    /// unit of physical truth.
    Deliver,
    /// An operator/app migration request: `Controller::apply_action`.
    Migrate {
        /// The cell to move.
        cell: usize,
        /// Destination server.
        to: usize,
    },
    /// A snapshot/restore drill: abstractly the identity, concretely the
    /// chaos harness's `pran_chaos::restore_drill`, which the conformance
    /// layer runs (the restore-fidelity invariant).
    Drill,
    /// Register a new cell (`Controller::register_cell`).
    Register,
    /// Deregister a cell (`Controller::deregister_cell`).
    Deregister {
        /// The cell to remove.
        cell: usize,
    },
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operation::Report { cell, level } => write!(f, "report(c{cell},l{level})"),
            Operation::Epoch => write!(f, "epoch"),
            Operation::Fail { server } => write!(f, "fail(s{server})"),
            Operation::Recover { server } => write!(f, "recover(s{server})"),
            Operation::Deliver => write!(f, "deliver"),
            Operation::Migrate { cell, to } => write!(f, "migrate(c{cell}→s{to})"),
            Operation::Drill => write!(f, "drill"),
            Operation::Register => write!(f, "register"),
            Operation::Deregister { cell } => write!(f, "deregister(c{cell})"),
        }
    }
}

/// A queued liveness notification the controller has not seen yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Notice {
    /// The server the notification is about.
    pub server: usize,
    /// `true` for a recovery, `false` for a crash.
    pub up: bool,
    /// Transitions since the physical event (the staleness age).
    pub age: u32,
}

/// A cell's abstract state: active flag plus the `(last, peak)` summary
/// of its report history (level indices; `None` = never reported).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct McCell {
    /// Registered and not deregistered.
    pub active: bool,
    /// Level index of the most recent report.
    pub last: Option<u8>,
    /// Level index of the sliding-window peak (max report so far).
    pub peak: Option<u8>,
}

/// The compact state the explorer enumerates. `now` is deliberately
/// absent: controller behaviour never branches on the clock, so folding
/// time out of the state collapses otherwise-identical schedules.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateView {
    /// Per-cell state (index = cell id).
    pub cells: Vec<McCell>,
    /// The controller's placement (mirrors `Controller::placement`).
    pub placement: Vec<Option<usize>>,
    /// The controller's *belief* about server liveness.
    pub believed: Vec<bool>,
    /// Physical truth about server liveness.
    pub truth: Vec<bool>,
    /// Undelivered liveness notifications, FIFO (stale semantics only).
    pub pending: VecDeque<Notice>,
}

/// What one transition did, beyond producing the next state.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// The successor state.
    pub next: StateView,
    /// Cells displaced by a crash handled in this step, with the outage
    /// each was charged (failover price, plus a worst-case epoch wait for
    /// cells the failover app could not re-place).
    pub outages: Vec<(usize, Duration)>,
}

/// Shape of one model-checking run: deployment, demand alphabet, view
/// semantics, exploration depth and operation mix.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// The system configuration the concrete controller runs with. Must
    /// have `warm: None` (the model mirrors the cold incremental repack).
    pub sys: SystemConfig,
    /// Cells registered at the initial state.
    pub cells: usize,
    /// Servers in the pool (identical specs; symmetry-reduced).
    pub servers: usize,
    /// The discrete utilization alphabet reports draw from, ascending,
    /// each in `[0, 1]`.
    pub levels: Vec<f64>,
    /// How the controller's view relates to physical truth.
    pub semantics: ViewSemantics,
    /// Exploration depth (operations per schedule). Bounded by
    /// [`pran::PREDICT_WINDOW`] so the `(last, peak)` history summary
    /// stays exact.
    pub depth: usize,
    /// Which operations the explorer generates.
    pub mix: OpMix,
    /// Ceiling on *physically* down servers at any instant — the solvable
    /// envelope under which invariants are expected to hold (mirrors the
    /// chaos sampler's "at most two unrecovered crashes" rule).
    pub max_down: usize,
    /// Extra cells `Register` may add beyond the initial `cells` (churn
    /// configurations only).
    pub churn_extra: usize,
    /// Whether the conformance layer checks the discovered states.
    pub conformance: Conformance,
}

impl McConfig {
    /// The E17 headline instance: 4 cells on 3 servers, two report
    /// levels, depth 6, at most one server down, full conformance.
    ///
    /// The levels are chosen so the envelope is *meant* to hold under
    /// linearizable views: at the top level a cell demands well under
    /// half a server, so all four cells fit on the two servers that
    /// survive a single failure.
    pub fn headline() -> Self {
        McConfig {
            sys: SystemConfig::default_eval(3),
            cells: 4,
            servers: 3,
            levels: vec![0.25, 0.5],
            semantics: ViewSemantics::Linearizable,
            depth: 6,
            mix: OpMix::default(),
            max_down: 1,
            churn_extra: 0,
            conformance: Conformance::Every,
        }
    }

    /// The same instance under stale views with staleness bound `k`.
    pub fn headline_stale(k: u32) -> Self {
        McConfig {
            semantics: ViewSemantics::Stale { k },
            ..Self::headline()
        }
    }

    /// A smaller churn configuration: register/deregister enabled.
    pub fn churn() -> Self {
        McConfig {
            sys: SystemConfig::default_eval(3),
            cells: 2,
            servers: 3,
            levels: vec![0.5],
            semantics: ViewSemantics::Linearizable,
            depth: 5,
            mix: OpMix {
                churn: true,
                ..OpMix::default()
            },
            max_down: 1,
            churn_extra: 2,
            conformance: Conformance::Every,
        }
    }
}

/// The transition system: precomputed demand table + mirrored semantics.
#[derive(Debug, Clone)]
pub struct Model {
    cfg: McConfig,
    /// `demand[level]` = the controller's `predicted_gops` for an active
    /// cell whose window peak is `levels[level]` (bitwise identical).
    demand: Vec<f64>,
    /// Predicted demand of an active cell that has never reported.
    demand_unreported: f64,
    capacity: f64,
}

impl Model {
    /// Build the transition system for a configuration.
    ///
    /// # Panics
    /// Panics on configurations the model cannot track exactly: warm
    /// placement enabled, depth beyond [`pran::PREDICT_WINDOW`], more
    /// than 5 servers (the symmetry canonicalizer enumerates
    /// permutations), or a non-ascending / out-of-range level alphabet.
    pub fn new(cfg: McConfig) -> Self {
        assert!(
            cfg.sys.warm.is_none(),
            "the model mirrors the cold incremental repack; warm placement is out of scope"
        );
        assert!(
            cfg.depth <= pran::PREDICT_WINDOW,
            "depth {} exceeds PREDICT_WINDOW {}: the (last, peak) history summary would be inexact",
            cfg.depth,
            pran::PREDICT_WINDOW
        );
        assert!(
            (1..=5).contains(&cfg.servers),
            "symmetry reduction enumerates server permutations; 1..=5 servers supported"
        );
        assert_eq!(
            cfg.sys.pool.servers, cfg.servers,
            "SystemConfig pool size must match the modelled deployment \
             (the conformance layer builds a concrete controller from it)"
        );
        if let ViewSemantics::Stale { k } = cfg.semantics {
            assert!(
                (1..=200).contains(&k),
                "staleness bound must be in 1..=200 (ages are byte-encoded)"
            );
        }
        assert!(cfg.cells >= 1, "need at least one cell");
        assert!(
            !cfg.levels.is_empty() && cfg.levels.len() < 250,
            "level alphabet must be non-empty and fit in a u8"
        );
        for w in cfg.levels.windows(2) {
            assert!(w[0] < w[1], "levels must be strictly ascending");
        }
        for &l in &cfg.levels {
            assert!((0.0..=1.0).contains(&l), "levels must be in [0, 1]");
        }
        // The expression the controller's prediction evaluates, so the
        // table is bitwise identical to it (a test below holds it there).
        let predicted = |u: f64| {
            let sys = &cfg.sys;
            ComputeModel::calibrated().cell_gops_bidirectional(
                sys.bandwidth,
                sys.antennas,
                u,
                sys.mcs,
            ) * sys.headroom
        };
        let demand: Vec<f64> = cfg.levels.iter().map(|&u| predicted(u)).collect();
        let demand_unreported = predicted(0.0);
        let capacity = cfg.sys.pool.capacity_gops;
        Model {
            cfg,
            demand,
            demand_unreported,
            capacity,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &McConfig {
        &self.cfg
    }

    /// The precomputed per-level demand table (`predicted_gops` of an
    /// active cell whose peak report is `levels[i]`).
    pub fn demand_table(&self) -> &[f64] {
        &self.demand
    }

    /// Predicted demand of an active cell that has never reported.
    pub fn demand_unreported(&self) -> f64 {
        self.demand_unreported
    }

    /// The initial state: `cells` registered cells, nothing reported,
    /// nothing placed, every server up and believed up.
    pub fn initial_state(&self) -> StateView {
        StateView {
            cells: vec![
                McCell {
                    active: true,
                    last: None,
                    peak: None,
                };
                self.cfg.cells
            ],
            placement: vec![None; self.cfg.cells],
            believed: vec![true; self.cfg.servers],
            truth: vec![true; self.cfg.servers],
            pending: VecDeque::new(),
        }
    }

    /// `Controller::predicted_gops`, abstracted: 0 for inactive cells,
    /// the table entry for the window peak otherwise.
    pub fn predicted(&self, state: &StateView, cell: usize) -> f64 {
        let c = &state.cells[cell];
        if !c.active {
            return 0.0;
        }
        match c.peak {
            Some(p) => self.demand[p as usize],
            None => self.demand_unreported,
        }
    }

    /// `Controller::view`, reconstructed from abstract state. Loads are
    /// summed in cell order, exactly as the controller does, so the
    /// floating-point results are bitwise identical. `now` is always
    /// zero — the model does not track time (compare everything else).
    pub fn view(&self, state: &StateView) -> PoolView {
        let mut view = PoolView::default();
        self.view_into(state, &mut view);
        view
    }

    /// [`Model::view`], written over `view`'s buffers.
    pub fn view_into(&self, state: &StateView, view: &mut PoolView) {
        view.now = Duration::ZERO;
        view.cells.clear();
        view.cells
            .extend(state.cells.iter().enumerate().map(|(c, cell)| CellView {
                id: c,
                active: cell.active,
                server: state.placement[c],
                utilization: cell.last.map_or(0.0, |l| self.cfg.levels[l as usize]),
                predicted_gops: self.predicted(state, c),
                prb_cap: None,
            }));
        view.servers.clear();
        view.servers.extend(
            state
                .believed
                .iter()
                .enumerate()
                .map(|(s, &alive)| ServerView {
                    id: s,
                    alive,
                    drained: false,
                    capacity_gops: self.capacity,
                    load_gops: 0.0,
                    cells: 0,
                }),
        );
        for cell in &view.cells {
            if let Some(s) = cell.server {
                view.servers[s].load_gops += cell.predicted_gops;
                view.servers[s].cells += 1;
            }
        }
    }

    /// The placement instance the controller holds in this state
    /// (allowed = active cell ∧ believed-alive server; the model has no
    /// drains or fronthaul topology).
    pub fn placement_instance(&self, state: &StateView) -> PlacementInstance {
        let cells: Vec<CellDemand> = (0..state.cells.len())
            .map(|c| CellDemand::flat(c, self.predicted(state, c)))
            .collect();
        let servers: Vec<ServerSpec> = (0..state.believed.len())
            .map(|id| ServerSpec::plain(id, self.capacity, self.cfg.sys.pool.server_cost))
            .collect();
        PlacementInstance {
            cells,
            servers,
            allowed: Allowed::Product(Box::new(ProductMask {
                cells: state.cells.iter().map(|c| c.active).collect(),
                servers: state.believed.clone(),
                reach: None,
            })),
        }
    }

    /// Mirror of `Controller::apply_action` for `Migrate` — the only
    /// action the failover app emits. Validation order, liveness source
    /// (belief, not truth) and the cell-order load sum are identical to
    /// the implementation, so accept/reject verdicts match exactly.
    /// Returns `true` when the migration was accepted (and applied).
    pub fn mirror_migrate(&self, state: &mut StateView, cell: usize, to: usize) -> bool {
        if cell >= state.cells.len() || !state.cells[cell].active {
            return false;
        }
        if to >= state.believed.len() {
            return false;
        }
        if !state.believed[to] {
            return false;
        }
        let mut load = 0.0;
        for c in 0..state.cells.len() {
            if c != cell && state.placement[c] == Some(to) {
                load += self.predicted(state, c);
            }
        }
        let server = ServerSpec::plain(to, self.capacity, self.cfg.sys.pool.server_cost);
        if !server.fits(load + self.predicted(state, cell)) {
            return false;
        }
        if state.placement[cell] != Some(to) {
            state.placement[cell] = Some(to);
        }
        true
    }

    /// Deliver a crash to the controller's belief: mark the server dead,
    /// displace its cells, and run the *real* [`FailoverApp`] over the
    /// post-displacement view (mirroring `Controller::server_failed`'s
    /// dispatch). Returns per-cell outages, charged as the chaos harness
    /// does: the failover price for re-placed cells, plus a pessimistic
    /// full-epoch wait for cells left unplaced.
    fn deliver_fail(&self, state: &mut StateView, server: usize) -> Vec<(usize, Duration)> {
        state.believed[server] = false;
        let displaced: Vec<usize> = (0..state.cells.len())
            .filter(|&c| state.placement[c] == Some(server))
            .collect();
        for &c in &displaced {
            state.placement[c] = None;
        }
        let view = self.view(state);
        let mut app = FailoverApp::new();
        for action in app.on_event(&PoolEvent::ServerFailed(server), &view) {
            if let Action::Migrate { cell, to } = action {
                self.mirror_migrate(state, cell, to);
            }
        }
        let price = self.cfg.sys.chaos.outage();
        displaced
            .iter()
            .map(|&c| {
                let outage = if state.placement[c].is_some() {
                    price
                } else {
                    price + self.cfg.sys.epoch
                };
                (c, outage)
            })
            .collect()
    }

    /// Apply one operation. The caller is responsible for only applying
    /// operations that [`Model::enabled_ops`](crate::view) generated for
    /// this state.
    pub fn apply(&self, state: &StateView, op: Operation) -> StepOutcome {
        let mut next = state.clone();
        // Every transition ages the backlog first, so a notice's age
        // counts the transitions *since* the one that enqueued it.
        for notice in next.pending.iter_mut() {
            notice.age += 1;
        }
        let mut outages = Vec::new();
        match op {
            Operation::Report { cell, level } => {
                let c = &mut next.cells[cell];
                let l = level as u8;
                c.last = Some(l);
                c.peak = Some(c.peak.map_or(l, |p| p.max(l)));
            }
            Operation::Epoch => {
                let instance = self.placement_instance(&next);
                let current = Placement {
                    assignment: next.placement.clone(),
                };
                let (placement, _plan) = incremental_repack(&instance, &current);
                next.placement = placement.assignment;
            }
            Operation::Fail { server } => {
                next.truth[server] = false;
                match self.cfg.semantics {
                    ViewSemantics::Linearizable => {
                        outages = self.deliver_fail(&mut next, server);
                    }
                    ViewSemantics::Stale { .. } => next.pending.push_back(Notice {
                        server,
                        up: false,
                        age: 0,
                    }),
                }
            }
            Operation::Recover { server } => {
                next.truth[server] = true;
                match self.cfg.semantics {
                    ViewSemantics::Linearizable => next.believed[server] = true,
                    ViewSemantics::Stale { .. } => next.pending.push_back(Notice {
                        server,
                        up: true,
                        age: 0,
                    }),
                }
            }
            Operation::Deliver => {
                let notice = next
                    .pending
                    .pop_front()
                    .expect("Deliver only enabled with a pending notice");
                if notice.up {
                    next.believed[notice.server] = true;
                } else {
                    outages = self.deliver_fail(&mut next, notice.server);
                }
            }
            Operation::Migrate { cell, to } => {
                self.mirror_migrate(&mut next, cell, to);
            }
            // Abstractly the identity; the conformance layer performs the
            // concrete snapshot → serialize → restore round-trip.
            Operation::Drill => {}
            Operation::Register => {
                next.cells.push(McCell {
                    active: true,
                    last: None,
                    peak: None,
                });
                next.placement.push(None);
            }
            Operation::Deregister { cell } => {
                next.cells[cell].active = false;
                next.placement[cell] = None;
            }
        }
        StepOutcome { next, outages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_envelope_is_solvable() {
        // The linearizable headline claim needs the instance to be
        // feasible in the worst case the op mix can reach: every cell at
        // the top level, `max_down` servers dead.
        let model = Model::new(McConfig::headline());
        let cfg = model.config();
        let top = *model.demand_table().last().unwrap();
        let live = cfg.servers - cfg.max_down;
        assert!(
            top * 2.0 <= model.capacity,
            "two top-level cells per server must fit: {} × 2 > {}",
            top,
            model.capacity
        );
        assert!(
            top * cfg.cells as f64 <= model.capacity * live as f64,
            "all cells must fit on the surviving servers"
        );
    }

    #[test]
    fn demand_table_matches_the_controller_bitwise() {
        let model = Model::new(McConfig::headline());
        let mut ctl = pran::Controller::new(model.config().sys.clone());
        let c = ctl.register_cell();
        assert_eq!(
            ctl.view().cells[c].predicted_gops,
            model.demand_unreported()
        );
        for (i, &level) in model.config().levels.clone().iter().enumerate() {
            ctl.report_load(c, level).unwrap();
            assert_eq!(
                ctl.view().cells[c].predicted_gops,
                model.demand_table()[i],
                "level {level} must predict identically"
            );
        }
    }

    #[test]
    fn linearizable_fail_runs_the_real_failover_app() {
        let model = Model::new(McConfig::headline());
        let mut state = model.initial_state();
        for c in 0..4 {
            state = model
                .apply(&state, Operation::Report { cell: c, level: 1 })
                .next;
        }
        state = model.apply(&state, Operation::Epoch).next;
        assert!(state.placement.iter().all(|p| p.is_some()), "all placed");
        let victim = state.placement[0].unwrap();
        let out = model.apply(&state, Operation::Fail { server: victim });
        assert!(!out.outages.is_empty(), "victim hosted cells");
        // Headline levels guarantee room on the survivors: every
        // displaced cell is re-placed at the failover price.
        let price = model.config().sys.chaos.outage();
        for (c, outage) in &out.outages {
            assert_eq!(
                *outage, price,
                "cell {c} should have been re-placed immediately"
            );
            assert!(out.next.placement[*c].is_some());
        }
        assert!(!out.next.believed[victim]);
        assert!(!out.next.truth[victim]);
    }

    #[test]
    fn stale_fail_queues_instead_of_delivering() {
        let model = Model::new(McConfig::headline_stale(2));
        let mut state = model.initial_state();
        state = model.apply(&state, Operation::Epoch).next;
        let victim = state.placement[0].unwrap();
        let out = model.apply(&state, Operation::Fail { server: victim });
        assert!(out.outages.is_empty(), "no delivery yet");
        assert!(out.next.believed[victim], "belief unchanged");
        assert!(!out.next.truth[victim]);
        assert_eq!(out.next.pending.len(), 1);

        // Ages tick per transition; Deliver catches belief up.
        let after = model.apply(&out.next, Operation::Epoch).next;
        assert_eq!(after.pending[0].age, 1);
        let delivered = model.apply(&after, Operation::Deliver);
        assert!(!delivered.next.believed[victim]);
        assert!(delivered.next.pending.is_empty());
    }
}
