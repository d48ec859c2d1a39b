//! The PRAN controller: logically centralized state + the action loop.
//!
//! The controller owns the authoritative view of cells, servers and the
//! current placement. Telemetry flows in via [`Controller::report_load`];
//! once per epoch [`Controller::run_epoch`] refreshes predictions, repacks
//! cells incrementally onto live servers and then gives every installed
//! [`ControlApp`] a chance to act. Failures do **not** trigger automatic
//! re-placement — recovering displaced cells is itself a control app
//! ([`crate::apps::FailoverApp`]), which is the paper's programmability
//! point: policy lives above the API, not inside the controller.

use std::collections::VecDeque;
use std::time::Duration;

use pran_insight::slo::{Alert, EpochSample, SloMonitor};
use pran_phy::compute::ComputeModel;
use pran_sched::placement::migration::incremental_repack;
use pran_sched::placement::{
    Allowed, CellDemand, Placement, PlacementInstance, ProductMask, ServerSpec, WarmPlacer,
};

use pran_fronthaul::topology::{Reachability, Topology};
use serde::{Deserialize, Serialize};

use crate::api::{Action, ActionError, CellView, ControlApp, PoolEvent, PoolView, ServerView};
use crate::config::SystemConfig;

/// Sliding window length (reports) for per-cell demand prediction.
///
/// Public so exhaustive verification (`pran-mc`) can bound exploration
/// depth to the regime where an abstract `(last, peak)` summary of the
/// report history is exact: while a cell has received fewer than
/// `PREDICT_WINDOW` reports the window never slides, so the predicted
/// peak is simply the maximum report seen.
pub const PREDICT_WINDOW: usize = 8;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct CellState {
    active: bool,
    utilization: f64,
    history: VecDeque<f64>,
    prb_cap: Option<u32>,
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct ServerState {
    alive: bool,
    drained: bool,
}

impl ServerState {
    /// Whether placement may use the server.
    fn usable(self) -> bool {
        self.alive && !self.drained
    }
}

/// Counters the controller maintains across its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Placement epochs executed.
    pub epochs: u64,
    /// Cells migrated (epochs + actions).
    pub migrations: u64,
    /// App actions applied.
    pub actions_applied: u64,
    /// App actions rejected by validation.
    pub actions_rejected: u64,
    /// Server failures handled.
    pub failovers: u64,
}

/// Per-epoch summary returned by [`Controller::run_epoch`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch sequence number (1-based).
    pub epoch: u64,
    /// Cells moved by the placement pass.
    pub migrations: usize,
    /// Servers in use after the pass.
    pub servers_used: usize,
    /// Cells left unplaced (overload).
    pub unplaced: usize,
    /// Cells whose demand crossed the warm-start hysteresis band and were
    /// re-booked this epoch. Equals the cell count when warm-start
    /// placement is off (the cold path re-decides every cell).
    pub dirty: usize,
    /// App actions applied this epoch.
    pub actions_applied: usize,
    /// App actions rejected this epoch.
    pub actions_rejected: usize,
}

/// Report of a server failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// The failed server.
    pub server: usize,
    /// Cells that lost their server.
    pub displaced: Vec<usize>,
    /// Cells re-placed by apps in direct response.
    pub replaced: usize,
}

/// Reachability and per-server specs derived from a bound [`Topology`],
/// as a snapshot carries them.
///
/// On the wire `allowed` is one server row per topology cell, the form
/// snapshots have always had; in memory identical rows are one class, so
/// neither direction builds a cells × servers matrix.
#[derive(Debug, Clone)]
struct TopologyBinding {
    reach: Reachability,
    /// `(capacity_gops, cost)` per server, in global order.
    specs: Vec<(f64, f64)>,
}

impl Serialize for TopologyBinding {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        sink.begin_object(2);
        sink.key("allowed");
        sink.begin_array(self.reach.class_of.len());
        for &class in &self.reach.class_of {
            sink.element();
            self.reach.rows[class].serialize(sink);
        }
        sink.end_array();
        sink.field("specs", &self.specs);
        sink.end_object();
    }
}

impl Deserialize for TopologyBinding {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        r.begin_object("object with field `allowed`")?;
        let (mut reach, mut specs) = (None, None);
        while let Some(key) = r.key()? {
            match &*key {
                "allowed" => reach = Some(read_reachability(r).map_err(|e| e.at("allowed"))?),
                "specs" => specs = Some(Deserialize::read(r).map_err(|e| e.at("specs"))?),
                _ => r.skip()?,
            }
        }
        Ok(TopologyBinding {
            reach: match reach {
                Some(reach) => reach,
                None => return Err(serde::Error::new("expected array, got null").at("allowed")),
            },
            specs: match specs {
                Some(specs) => specs,
                None => serde::absent("specs")?,
            },
        })
    }
}

/// An array of server rows, each handed to [`Reachability::from_rows`]
/// as it is read: identical rows become one class on the way, and no
/// cells × servers matrix exists at any point.
fn read_reachability(r: &mut serde::Reader<'_>) -> Result<Reachability, serde::Error> {
    r.begin_array("array")?;
    let mut bad = None;
    let reach = Reachability::from_rows(std::iter::from_fn(|| {
        let row = match r.element() {
            Ok(true) => Deserialize::read(r),
            Ok(false) => return None,
            Err(e) => Err(e),
        };
        row.map_err(|e| bad = Some(e)).ok()
    }));
    bad.map_or(Ok(reach), Err)
}

/// One audit-log entry: when, what happened, how many app actions were
/// applied/rejected in response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditEntry {
    /// Controller clock when the event fired.
    pub at: Duration,
    /// The event.
    pub event: PoolEvent,
    /// App actions applied in direct response.
    pub actions_applied: usize,
    /// App actions rejected in direct response.
    pub actions_rejected: usize,
}

/// Ring-buffer capacity of the audit log.
const AUDIT_CAPACITY: usize = 1024;

/// The logically centralized PRAN control plane.
///
/// `clone` forks it: the copy shares nothing with the original, and each
/// installed app is cloned with its hidden state.
#[derive(Clone)]
pub struct Controller {
    config: SystemConfig,
    model: ComputeModel,
    cells: Vec<CellState>,
    servers: Vec<ServerState>,
    placement: Placement,
    apps: Vec<Box<dyn ControlApp>>,
    stats: ControllerStats,
    now: Duration,
    audit: VecDeque<AuditEntry>,
    slo_monitor: SloMonitor,
    warm: Option<WarmPlacer>,
    /// The placement problem, kept across epochs instead of rebuilt each
    /// one. `cells[c].gops` is cell `c`'s current prediction, refreshed
    /// where a report, cap or (de)registration changes it; `servers` is
    /// built once; `allowed` is always an [`Allowed::Product`] whose
    /// factors follow `cells[c].active`, [`ServerState::usable`] and the
    /// bound topology, one entry per state change.
    instance: PlacementInstance,
    /// UL+DL GOPS by PRB count, each entry computed when first asked for
    /// (a load fraction rounds to a whole PRB grant, so no other demand
    /// values exist). Empty until the first prediction.
    gops_by_prbs: Vec<Option<f64>>,
    /// Per cell, the maximum of its report window — what its prediction
    /// was last computed from.
    window_peak: Vec<f64>,
    /// The view last shown to apps; refilled in place for the next.
    view: PoolView,
}

impl Controller {
    /// Build a controller over an empty cell set.
    pub fn new(config: SystemConfig) -> Self {
        let servers = vec![
            ServerState {
                alive: true,
                drained: false
            };
            config.pool.servers
        ];
        Self::assemble(config, Vec::new(), servers, Placement::empty(0), None, None)
    }

    /// A controller over the given durable state, with everything derived
    /// from it (instance, mask, predictions) rebuilt.
    fn assemble(
        config: SystemConfig,
        cells: Vec<CellState>,
        servers: Vec<ServerState>,
        placement: Placement,
        topology: Option<TopologyBinding>,
        warm: Option<WarmPlacer>,
    ) -> Self {
        let spec = |(id, (capacity_gops, cost))| ServerSpec::plain(id, capacity_gops, cost);
        let (reach, specs): (_, Vec<ServerSpec>) = match topology {
            Some(t) => (
                Some(t.reach),
                t.specs.into_iter().enumerate().map(spec).collect(),
            ),
            None => {
                let pool = (config.pool.capacity_gops, config.pool.server_cost);
                let specs = std::iter::repeat_n(pool, servers.len());
                (None, specs.enumerate().map(spec).collect())
            }
        };
        let instance = PlacementInstance {
            cells: (0..cells.len()).map(|c| CellDemand::flat(c, 0.0)).collect(),
            servers: specs,
            allowed: Allowed::Product(Box::new(ProductMask {
                cells: cells.iter().map(|c| c.active).collect(),
                servers: servers.iter().map(|s| s.usable()).collect(),
                reach,
            })),
        };
        let slo_monitor = SloMonitor::new(config.slo);
        let warm = warm.or_else(|| config.warm.map(WarmPlacer::new));
        let cells_len = cells.len();
        let mut controller = Controller {
            config,
            model: ComputeModel::calibrated(),
            cells,
            servers,
            placement,
            apps: Vec::new(),
            stats: ControllerStats::default(),
            now: Duration::ZERO,
            audit: VecDeque::new(),
            slo_monitor,
            warm,
            instance,
            gops_by_prbs: Vec::new(),
            window_peak: vec![0.0; cells_len],
            view: PoolView::default(),
        };
        for cell in 0..controller.cells.len() {
            controller.refresh_prediction(cell);
        }
        controller
    }

    /// Bind a multi-site [`Topology`]: placement will honour fronthaul
    /// reachability (cells only land on sites within the latency budget
    /// for `service_time` of per-subframe compute) and per-site server
    /// capacities/costs.
    ///
    /// Returns an error when the topology's server count disagrees with
    /// the pool configuration.
    pub fn bind_topology(
        &mut self,
        topology: &Topology,
        service_time: Duration,
    ) -> Result<(), ActionError> {
        if topology.total_servers() != self.config.pool.servers {
            return Err(ActionError::NoSuchServer(topology.total_servers()));
        }
        for (spec, (capacity_gops, cost)) in self
            .instance
            .servers
            .iter_mut()
            .zip(topology.server_specs())
        {
            spec.capacity_gops = capacity_gops;
            spec.cost = cost;
        }
        self.mask_mut().reach = Some(topology.reachability(service_time));
        Ok(())
    }

    /// The feasibility mask of the kept instance.
    fn mask(&self) -> &ProductMask {
        match &self.instance.allowed {
            Allowed::Product(mask) => mask,
            _ => unreachable!("the controller's instance always carries a product mask"),
        }
    }

    fn mask_mut(&mut self) -> &mut ProductMask {
        match &mut self.instance.allowed {
            Allowed::Product(mask) => mask,
            _ => unreachable!("the controller's instance always carries a product mask"),
        }
    }

    /// Change one server's state and its entry in the mask with it.
    fn set_server(&mut self, server: usize, change: impl FnOnce(&mut ServerState)) {
        change(&mut self.servers[server]);
        self.mask_mut().servers[server] = self.servers[server].usable();
    }

    /// Capacity of one server in GOPS (topology-aware).
    fn server_capacity(&self, server: usize) -> f64 {
        self.instance.servers[server].capacity_gops
    }

    /// Fronthaul reachability of a (cell, server) pair.
    fn reachable(&self, cell: usize, server: usize) -> bool {
        let reach = self.mask().reach.as_ref();
        reach.is_none_or(|r| r.allows(cell, server))
    }

    /// Install a control application (runs in installation order).
    pub fn install_app(&mut self, app: Box<dyn ControlApp>) {
        self.apps.push(app);
    }

    /// Register a new cell; returns its id.
    pub fn register_cell(&mut self) -> usize {
        let id = self.cells.len();
        self.cells.push(CellState {
            active: true,
            utilization: 0.0,
            history: VecDeque::with_capacity(PREDICT_WINDOW),
            prb_cap: None,
        });
        self.placement.assignment.push(None);
        self.instance.cells.push(CellDemand::flat(id, 0.0));
        self.mask_mut().cells.push(true);
        self.window_peak.push(0.0);
        self.refresh_prediction(id);
        self.dispatch_event(PoolEvent::CellRegistered(id));
        id
    }

    /// Remove a cell from the system.
    pub fn deregister_cell(&mut self, cell: usize) -> Result<(), ActionError> {
        let state = self
            .cells
            .get_mut(cell)
            .ok_or(ActionError::NoSuchCell(cell))?;
        state.active = false;
        self.mask_mut().cells[cell] = false;
        self.refresh_prediction(cell);
        self.placement.assignment[cell] = None;
        self.dispatch_event(PoolEvent::CellDeregistered(cell));
        Ok(())
    }

    /// Ingest a utilization report (PRB fraction in `[0, 1]`).
    pub fn report_load(&mut self, cell: usize, utilization: f64) -> Result<(), ActionError> {
        let state = self
            .cells
            .get_mut(cell)
            .ok_or(ActionError::NoSuchCell(cell))?;
        let u = utilization.clamp(0.0, 1.0);
        state.utilization = u;
        let evicted = if state.history.len() == PREDICT_WINDOW {
            state.history.pop_front()
        } else {
            None
        };
        state.history.push_back(u);
        // The window's maximum, and the prediction with it, can only move
        // when the new report exceeds it or the report that held it just
        // left. (A NaN fails both comparisons and takes the slow path.)
        let peak = self.window_peak[cell];
        if !(u <= peak && evicted.is_none_or(|e| e < peak)) {
            self.refresh_prediction(cell);
        }
        Ok(())
    }

    /// Predicted GOPS demand of a cell (sliding-window max × headroom).
    pub fn predicted_gops(&self, cell: usize) -> f64 {
        self.instance.cells[cell].gops
    }

    /// Recompute a cell's prediction after its reports, cap or activity
    /// changed.
    fn refresh_prediction(&mut self, cell: usize) {
        let state = &self.cells[cell];
        let peak = state
            .history
            .iter()
            .copied()
            .fold(state.utilization, f64::max);
        self.window_peak[cell] = peak;
        self.instance.cells[cell].gops = if state.active {
            let bandwidth = self.config.bandwidth;
            let u = match state.prb_cap {
                Some(cap) => peak.min(f64::from(cap) / f64::from(bandwidth.prbs())),
                None => peak,
            };
            if self.gops_by_prbs.is_empty() {
                self.gops_by_prbs = vec![None; bandwidth.prbs() as usize + 1];
            }
            // UL+DL GOPS depend on `u` only through the PRB grant it
            // rounds to, so the first utilization seen for a grant stands
            // for all of them.
            let gops = *self.gops_by_prbs[bandwidth.prbs_at(u) as usize].get_or_insert_with(|| {
                self.model.cell_gops_bidirectional(
                    bandwidth,
                    self.config.antennas,
                    u,
                    self.config.mcs,
                )
            });
            gops * self.config.headroom
        } else {
            0.0
        };
    }

    /// The placement problem the next epoch will solve: predicted demand
    /// per cell, server specs, and the feasibility mask.
    pub fn instance(&self) -> &PlacementInstance {
        &self.instance
    }

    /// Current placement (cell → server).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Snapshot for apps and operators.
    pub fn view(&self) -> PoolView {
        let mut view = PoolView::default();
        self.fill_view(&mut view);
        view
    }

    /// Overwrite `view` with the current state, reusing its buffers.
    /// Server loads are summed in cell order, so a given state always
    /// yields the same bits.
    fn fill_view(&self, view: &mut PoolView) {
        view.now = self.now;
        view.cells.clear();
        view.cells
            .extend(self.cells.iter().enumerate().map(|(c, state)| CellView {
                id: c,
                active: state.active,
                server: self.placement.assignment[c],
                utilization: state.utilization,
                predicted_gops: self.predicted_gops(c),
                prb_cap: state.prb_cap,
            }));
        view.servers.clear();
        view.servers
            .extend(
                self.servers
                    .iter()
                    .zip(&self.instance.servers)
                    .map(|(state, spec)| ServerView {
                        id: spec.id,
                        alive: state.alive,
                        drained: state.drained,
                        capacity_gops: spec.capacity_gops,
                        load_gops: 0.0,
                        cells: 0,
                    }),
            );
        for (cell, assigned) in self.placement.assignment.iter().enumerate() {
            if let Some(s) = *assigned {
                view.servers[s].load_gops += self.predicted_gops(cell);
                view.servers[s].cells += 1;
            }
        }
    }

    /// Execute one placement epoch at time `now`.
    pub fn run_epoch(&mut self, now: Duration) -> EpochReport {
        self.now = now;
        let repack_span = pran_telemetry::trace::span("ctrl.repack");
        let (new_placement, plan, dirty) = match self.warm.as_mut() {
            Some(w) => {
                // App actions, drains and failovers may have moved cells
                // since the last epoch; the warm state must start from
                // the placement they produced, not its own last output.
                w.adopt(&self.placement);
                let (p, plan, stats) = w.epoch(&self.instance);
                (p, plan, stats.dirty)
            }
            None => {
                let (p, plan) = incremental_repack(&self.instance, &self.placement);
                (p, plan, self.cells.len())
            }
        };
        repack_span.finish_with(&[("migrations", plan.len().into()), ("dirty", dirty.into())]);
        self.placement = new_placement;
        self.stats.epochs += 1;
        self.stats.migrations += plan.len() as u64;
        let unplaced = (0..self.cells.len())
            .filter(|&c| self.cells[c].active && self.placement.assignment[c].is_none())
            .count();
        let servers_used = self.instance.servers_used(&self.placement);

        // Apps act on the post-placement view.
        let apps_span = pran_telemetry::trace::span("ctrl.apps");
        let (applied, rejected) = self.run_apps(|app, view| app.on_epoch(view));
        apps_span.finish_with(&[("applied", applied.into()), ("rejected", rejected.into())]);
        let epoch = self.stats.epochs;
        if pran_telemetry::enabled() {
            pran_telemetry::trace::sim_event(
                "ctrl.epoch",
                now.as_micros() as u64,
                &[
                    ("epoch", epoch.into()),
                    ("migrations", plan.len().into()),
                    ("dirty", dirty.into()),
                    ("servers_used", servers_used.into()),
                    ("unplaced", unplaced.into()),
                    ("applied", applied.into()),
                    ("rejected", rejected.into()),
                ],
            );
        }
        // Feed the online SLO monitor: placed demand over alive,
        // undrained capacity, plus the unplaced-cell count. Breaches
        // surface via `slo_alerts` and as `insight.alert` events.
        let mut placed_gops = 0.0;
        for c in 0..self.cells.len() {
            if self.placement.assignment[c].is_some() {
                placed_gops += self.predicted_gops(c);
            }
        }
        let capacity_gops: f64 = (0..self.servers.len())
            .filter(|&s| self.servers[s].usable())
            .map(|s| self.server_capacity(s))
            .sum();
        self.slo_monitor.observe_epoch(&EpochSample {
            epoch,
            at_us: now.as_micros() as u64,
            utilization: (capacity_gops > 0.0).then(|| placed_gops / capacity_gops),
            unplaced: Some(unplaced as u64),
            ..EpochSample::default()
        });

        self.dispatch_event(PoolEvent::EpochCompleted {
            epoch,
            migrations: plan.len(),
        });

        EpochReport {
            epoch,
            migrations: plan.len(),
            servers_used,
            unplaced,
            dirty,
            actions_applied: applied,
            actions_rejected: rejected,
        }
    }

    /// Show every installed app the current view and apply what they ask
    /// for. No apps, no view.
    fn run_apps(
        &mut self,
        mut ask: impl FnMut(&mut dyn ControlApp, &PoolView) -> Vec<Action>,
    ) -> (usize, usize) {
        if self.apps.is_empty() {
            return (0, 0);
        }
        // `fill_view` reads all of `self`, so the buffer steps outside it
        // while it is written and shown.
        let mut view = std::mem::take(&mut self.view);
        self.fill_view(&mut view);
        let mut actions = Vec::new();
        for app in &mut self.apps {
            actions.extend(ask(app.as_mut(), &view));
        }
        self.view = view;
        self.apply_actions(&actions)
    }

    fn dispatch_event(&mut self, event: PoolEvent) {
        let (applied, rejected) = self.run_apps(|app, view| app.on_event(&event, view));
        if self.audit.len() == AUDIT_CAPACITY {
            self.audit.pop_front();
        }
        self.audit.push_back(AuditEntry {
            at: self.now,
            event,
            actions_applied: applied,
            actions_rejected: rejected,
        });
    }

    /// The audit log: the most recent [`PoolEvent`]s (bounded ring buffer)
    /// with the app responses they triggered — the operator's answer to
    /// "what did the control plane do and when".
    pub fn audit_log(&self) -> impl Iterator<Item = &AuditEntry> {
        self.audit.iter()
    }

    fn apply_actions(&mut self, actions: &[Action]) -> (usize, usize) {
        let mut applied = 0;
        let mut rejected = 0;
        for &a in actions {
            match self.apply_action(a) {
                Ok(()) => applied += 1,
                Err(_) => rejected += 1,
            }
        }
        self.stats.actions_applied += applied as u64;
        self.stats.actions_rejected += rejected as u64;
        (applied, rejected)
    }

    /// Validate and apply one action.
    pub fn apply_action(&mut self, action: Action) -> Result<(), ActionError> {
        match action {
            Action::Migrate { cell, to } => {
                if cell >= self.cells.len() || !self.cells[cell].active {
                    return Err(ActionError::NoSuchCell(cell));
                }
                if to >= self.servers.len() {
                    return Err(ActionError::NoSuchServer(to));
                }
                if !self.servers[to].usable() {
                    return Err(ActionError::ServerDown(to));
                }
                if !self.reachable(cell, to) {
                    return Err(ActionError::ServerDown(to)); // out of fronthaul reach
                }
                // Capacity check at predicted demand, with the tolerance
                // every placer and `validate` use.
                let mut load = 0.0;
                for c in 0..self.cells.len() {
                    if c != cell && self.placement.assignment[c] == Some(to) {
                        load += self.predicted_gops(c);
                    }
                }
                if !self.instance.servers[to].fits(load + self.predicted_gops(cell)) {
                    return Err(ActionError::WouldOverload { server: to });
                }
                if self.placement.assignment[cell] != Some(to) {
                    self.placement.assignment[cell] = Some(to);
                    self.stats.migrations += 1;
                }
                Ok(())
            }
            Action::CapPrbs { cell, prbs } => {
                if cell >= self.cells.len() || !self.cells[cell].active {
                    return Err(ActionError::NoSuchCell(cell));
                }
                if prbs > self.config.bandwidth.prbs() {
                    return Err(ActionError::BadPrbCap { prbs });
                }
                self.cells[cell].prb_cap = Some(prbs);
                self.refresh_prediction(cell);
                Ok(())
            }
            Action::UncapPrbs { cell } => {
                if cell >= self.cells.len() || !self.cells[cell].active {
                    return Err(ActionError::NoSuchCell(cell));
                }
                self.cells[cell].prb_cap = None;
                self.refresh_prediction(cell);
                Ok(())
            }
            Action::Drain { server } => {
                if server >= self.servers.len() {
                    return Err(ActionError::NoSuchServer(server));
                }
                self.set_server(server, |s| s.drained = true);
                // Displace its cells; the next epoch (or an app) re-places.
                for c in 0..self.cells.len() {
                    if self.placement.assignment[c] == Some(server) {
                        self.placement.assignment[c] = None;
                    }
                }
                Ok(())
            }
            Action::Activate { server } => {
                if server >= self.servers.len() {
                    return Err(ActionError::NoSuchServer(server));
                }
                self.set_server(server, |s| s.drained = false);
                Ok(())
            }
        }
    }

    /// Report a server failure at time `now`.
    ///
    /// The controller marks state and notifies apps; *re-placement is app
    /// policy* (install [`crate::apps::FailoverApp`] for the standard
    /// behaviour).
    pub fn server_failed(
        &mut self,
        server: usize,
        now: Duration,
    ) -> Result<FailureReport, ActionError> {
        if server >= self.servers.len() {
            return Err(ActionError::NoSuchServer(server));
        }
        self.now = now;
        self.set_server(server, |s| s.alive = false);
        let displaced: Vec<usize> = (0..self.cells.len())
            .filter(|&c| self.placement.assignment[c] == Some(server))
            .collect();
        for &c in &displaced {
            self.placement.assignment[c] = None;
        }
        self.stats.failovers += 1;
        self.dispatch_event(PoolEvent::ServerFailed(server));
        let replaced = displaced
            .iter()
            .filter(|&&c| self.placement.assignment[c].is_some())
            .count();
        Ok(FailureReport {
            server,
            displaced,
            replaced,
        })
    }

    /// Report a server recovery.
    pub fn server_recovered(&mut self, server: usize, now: Duration) -> Result<(), ActionError> {
        if server >= self.servers.len() {
            return Err(ActionError::NoSuchServer(server));
        }
        self.now = now;
        self.set_server(server, |s| s.alive = true);
        self.dispatch_event(PoolEvent::ServerRecovered(server));
        Ok(())
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The controller's current notion of time (last `run_epoch` /
    /// failure timestamp it was handed).
    pub fn now(&self) -> Duration {
        self.now
    }

    /// SLO alerts the per-epoch monitor has raised so far (see
    /// [`SystemConfig`]'s `slo` policy). Alerts are edge-triggered: one
    /// entry per incident, not per epoch in breach.
    pub fn slo_alerts(&self) -> &[Alert] {
        self.slo_monitor.alerts()
    }

    /// The online SLO monitor (alerts and breach flags).
    pub fn slo_monitor(&self) -> &SloMonitor {
        &self.slo_monitor
    }

    /// Capture the controller's durable state.
    ///
    /// The snapshot covers everything needed to restart the control plane
    /// on another machine (PRAN's controller-failover story): config,
    /// cell/server state, the placement, counters and the clock. Apps are
    /// code, not state — the caller re-installs them after
    /// [`Controller::restore`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            config: self.config.clone(),
            cells: self.cells.clone(),
            servers: self.servers.clone(),
            placement: self.placement.assignment.clone(),
            stats: self.stats,
            now: self.now,
            topology: self.mask().reach.as_ref().map(|reach| TopologyBinding {
                reach: reach.clone(),
                specs: self
                    .instance
                    .servers
                    .iter()
                    .map(|s| (s.capacity_gops, s.cost))
                    .collect(),
            }),
            warm: self.warm.clone(),
        }
    }

    /// Rebuild a controller from a snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot is internally inconsistent (placement length
    /// vs cell count, server indices out of range) — snapshots come from
    /// [`Controller::snapshot`] or its serialized form, so inconsistency
    /// means corruption. Callers that must survive a corrupt snapshot
    /// (e.g. chaos injection treating it as a checkable fault) use
    /// [`Controller::try_restore`].
    pub fn restore(snapshot: Snapshot) -> Self {
        match Self::try_restore(snapshot) {
            Ok(c) => c,
            Err(e) => panic!("{e}"),
        }
    }

    /// Rebuild a controller from a snapshot, rejecting an internally
    /// inconsistent one with a [`SnapshotError`] instead of panicking.
    pub fn try_restore(snapshot: Snapshot) -> Result<Self, SnapshotError> {
        if snapshot.placement.len() != snapshot.cells.len() {
            return Err(SnapshotError::PlacementCellMismatch {
                placement: snapshot.placement.len(),
                cells: snapshot.cells.len(),
            });
        }
        if snapshot.servers.len() != snapshot.config.pool.servers {
            return Err(SnapshotError::ServerCountMismatch {
                snapshot: snapshot.servers.len(),
                config: snapshot.config.pool.servers,
            });
        }
        for (cell, a) in snapshot.placement.iter().enumerate() {
            if let Some(server) = *a {
                if server >= snapshot.servers.len() {
                    return Err(SnapshotError::ServerIndexOutOfRange {
                        cell,
                        server,
                        servers: snapshot.servers.len(),
                    });
                }
            }
        }
        if let Some(binding) = &snapshot.topology {
            let servers = snapshot.servers.len();
            if binding.specs.len() != servers {
                return Err(SnapshotError::TopologySpecsMismatch {
                    specs: binding.specs.len(),
                    servers,
                });
            }
            let reach = &binding.reach;
            let rows = reach.class_of.iter().map(|&k| reach.rows[k].len());
            if let Some((cell, row)) = rows.enumerate().find(|&(_, row)| row != servers) {
                return Err(SnapshotError::TopologyRowMismatch { cell, row, servers });
            }
        }
        // Older snapshots carry no warm state; `assemble` re-seeds it from
        // the config so warm-start placement resumes (with a cold first
        // epoch).
        let mut controller = Self::assemble(
            snapshot.config,
            snapshot.cells,
            snapshot.servers,
            Placement {
                assignment: snapshot.placement,
            },
            snapshot.topology,
            snapshot.warm,
        );
        controller.stats = snapshot.stats;
        controller.now = snapshot.now;
        Ok(controller)
    }
}

/// Why [`Controller::try_restore`] rejected a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The placement vector's length disagrees with the cell table.
    PlacementCellMismatch {
        /// Placement entries in the snapshot.
        placement: usize,
        /// Cells in the snapshot.
        cells: usize,
    },
    /// The server table's length disagrees with the embedded config.
    ServerCountMismatch {
        /// Servers in the snapshot's state table.
        snapshot: usize,
        /// Servers per the snapshot's own `config.pool.servers`.
        config: usize,
    },
    /// A placement entry points past the server table.
    ServerIndexOutOfRange {
        /// The cell whose assignment is bad.
        cell: usize,
        /// The out-of-range server index.
        server: usize,
        /// Servers actually in the snapshot.
        servers: usize,
    },
    /// The bound topology's per-server specs disagree with the server
    /// table.
    TopologySpecsMismatch {
        /// Spec entries in the snapshot's topology binding.
        specs: usize,
        /// Servers in the snapshot.
        servers: usize,
    },
    /// A reachability row of the bound topology is not one entry per
    /// server.
    TopologyRowMismatch {
        /// The first topology cell whose row is bad.
        cell: usize,
        /// Entries in that row.
        row: usize,
        /// Servers in the snapshot.
        servers: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    // The phrasing matches the historical `restore` panic messages, which
    // callers (and tests) match on.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::PlacementCellMismatch { placement, cells } => write!(
                f,
                "snapshot placement/cell mismatch: {placement} placement entries for {cells} cells"
            ),
            SnapshotError::ServerCountMismatch { snapshot, config } => write!(
                f,
                "snapshot server-count mismatch: {snapshot} server states, config says {config}"
            ),
            SnapshotError::ServerIndexOutOfRange {
                cell,
                server,
                servers,
            } => write!(
                f,
                "snapshot server index out of range: cell {cell} on server {server} of {servers}"
            ),
            SnapshotError::TopologySpecsMismatch { specs, servers } => write!(
                f,
                "snapshot topology mismatch: {specs} server specs for {servers} servers"
            ),
            SnapshotError::TopologyRowMismatch { cell, row, servers } => write!(
                f,
                "snapshot topology mismatch: cell {cell} has {row} reachability entries \
                 for {servers} servers"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializable controller state (see [`Controller::snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// System configuration at capture time.
    pub config: SystemConfig,
    cells: Vec<CellState>,
    servers: Vec<ServerState>,
    placement: Vec<Option<usize>>,
    /// Lifetime counters at capture time.
    pub stats: ControllerStats,
    /// Controller clock at capture time.
    pub now: Duration,
    topology: Option<TopologyBinding>,
    /// Warm-start bookings + placement (absent in pre-warm snapshots).
    warm: Option<WarmPlacer>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(cells: usize, servers: usize) -> Controller {
        let mut c = Controller::new(SystemConfig::default_eval(servers));
        for i in 0..cells {
            assert_eq!(c.register_cell(), i);
        }
        c
    }

    #[test]
    fn epoch_places_all_cells() {
        let mut c = controller(6, 8);
        for i in 0..6 {
            c.report_load(i, 0.5).unwrap();
        }
        let r = c.run_epoch(Duration::from_secs(60));
        assert_eq!(r.unplaced, 0);
        assert!(r.servers_used >= 1);
        assert_eq!(r.migrations, 6, "first epoch places everyone");
        // Second epoch with same loads: no churn.
        let r2 = c.run_epoch(Duration::from_secs(120));
        assert_eq!(r2.migrations, 0);
    }

    #[test]
    fn warm_controller_converges_and_tracks_dirty_cells() {
        let mut cfg = SystemConfig::default_eval(8);
        cfg.warm = Some(pran_sched::placement::WarmConfig::default_eval());
        let mut c = Controller::new(cfg);
        for i in 0..6 {
            c.register_cell();
            c.report_load(i, 0.5).unwrap();
        }
        let r = c.run_epoch(Duration::from_secs(60));
        assert_eq!(r.unplaced, 0);
        assert_eq!(r.migrations, 6, "first epoch places everyone");
        assert_eq!(r.dirty, 6, "everything is dirty on the first epoch");
        // Same loads: every cell stays in band, nothing moves.
        let r2 = c.run_epoch(Duration::from_secs(120));
        assert_eq!(r2.migrations, 0);
        assert_eq!(r2.dirty, 0);
        // A 3 % wobble stays inside the 10 % band — still no churn. The
        // sliding-window max prediction keeps the predicted demand at the
        // 0.5 peak, so bookings hold.
        for i in 0..6 {
            c.report_load(i, 0.485).unwrap();
        }
        let r3 = c.run_epoch(Duration::from_secs(180));
        assert_eq!(r3.dirty, 0);
        assert_eq!(r3.migrations, 0);
    }

    #[test]
    fn warm_controller_survives_failover_and_apps() {
        use crate::apps::FailoverApp;
        let mut cfg = SystemConfig::default_eval(4);
        cfg.warm = Some(pran_sched::placement::WarmConfig::default_eval());
        let mut c = Controller::new(cfg);
        c.install_app(Box::new(FailoverApp::new()));
        for i in 0..6 {
            c.register_cell();
            c.report_load(i, 0.4).unwrap();
        }
        c.run_epoch(Duration::from_secs(60));
        let victim = c.placement().assignment[0].unwrap();
        c.server_failed(victim, Duration::from_secs(61)).unwrap();
        // The failover app re-placed displaced cells; the next warm epoch
        // must adopt those moves, keep everyone placed and avoid the dead
        // server.
        let r = c.run_epoch(Duration::from_secs(120));
        assert_eq!(r.unplaced, 0);
        assert!(c.placement().assignment.iter().all(|a| *a != Some(victim)));
    }

    #[test]
    fn report_load_validates_cell() {
        let mut c = controller(1, 2);
        assert!(c.report_load(0, 0.3).is_ok());
        assert_eq!(c.report_load(9, 0.3), Err(ActionError::NoSuchCell(9)));
    }

    #[test]
    fn prediction_uses_window_max() {
        let mut c = controller(1, 2);
        c.report_load(0, 0.9).unwrap();
        c.report_load(0, 0.1).unwrap();
        let high = c.predicted_gops(0);
        // Prediction reflects the recent 0.9 peak, not just the last 0.1.
        let mut c2 = controller(1, 2);
        c2.report_load(0, 0.1).unwrap();
        assert!(high > c2.predicted_gops(0) * 1.5);
    }

    #[test]
    fn prb_cap_reduces_prediction() {
        let mut c = controller(1, 2);
        c.report_load(0, 1.0).unwrap();
        let uncapped = c.predicted_gops(0);
        c.apply_action(Action::CapPrbs { cell: 0, prbs: 25 })
            .unwrap();
        let capped = c.predicted_gops(0);
        assert!(capped < uncapped * 0.6, "{capped} vs {uncapped}");
        c.apply_action(Action::UncapPrbs { cell: 0 }).unwrap();
        assert_eq!(c.predicted_gops(0), uncapped);
    }

    #[test]
    fn migrate_action_validated() {
        let mut c = controller(2, 2);
        for i in 0..2 {
            c.report_load(i, 0.5).unwrap();
        }
        c.run_epoch(Duration::from_secs(1));
        assert_eq!(
            c.apply_action(Action::Migrate { cell: 0, to: 99 }),
            Err(ActionError::NoSuchServer(99))
        );
        assert_eq!(
            c.apply_action(Action::Migrate { cell: 99, to: 0 }),
            Err(ActionError::NoSuchCell(99))
        );
        assert!(c.apply_action(Action::Migrate { cell: 0, to: 1 }).is_ok());
        assert_eq!(c.placement().assignment[0], Some(1));
    }

    #[test]
    fn migrate_rejected_when_overloading() {
        let mut c = controller(3, 3);
        for i in 0..3 {
            c.report_load(i, 1.0).unwrap();
        }
        c.run_epoch(Duration::from_secs(1));
        // Full-load cells ≈ 300+ GOPS predicted; two can't share 400 GOPS.
        let target = c.placement().assignment[1].unwrap();
        let err = c.apply_action(Action::Migrate {
            cell: 0,
            to: target,
        });
        assert_eq!(err, Err(ActionError::WouldOverload { server: target }));
    }

    /// A move is refused exactly when `validate` would reject the result:
    /// two cells filling a server to `capacity·(1 + 5e-10)` are within
    /// `ServerSpec::fits`' relative tolerance, though hundreds of GOPS
    /// past an absolute `1e-9` slack.
    #[test]
    fn migrate_admits_what_validate_accepts() {
        let mut probe = controller(2, 2);
        probe.report_load(0, 0.7).unwrap();
        probe.report_load(1, 0.4).unwrap();
        let (a, b) = (probe.predicted_gops(0), probe.predicted_gops(1));

        let mut cfg = SystemConfig::default_eval(2);
        cfg.pool.capacity_gops = (a + b) / (1.0 + 5e-10);
        let mut c = Controller::new(cfg);
        for load in [0.7, 0.4] {
            let cell = c.register_cell();
            c.report_load(cell, load).unwrap();
        }
        assert!(a + b > c.instance().servers[0].capacity_gops + 1e-9);
        c.apply_action(Action::Migrate { cell: 0, to: 0 }).unwrap();
        c.apply_action(Action::Migrate { cell: 1, to: 1 }).unwrap();
        assert_eq!(c.apply_action(Action::Migrate { cell: 1, to: 0 }), Ok(()));
        assert_eq!(c.placement().assignment, vec![Some(0), Some(0)]);
        assert!(c.instance().validate(c.placement()).is_ok());

        // Past the tolerance, both refuse.
        let mut cfg = SystemConfig::default_eval(2);
        cfg.pool.capacity_gops = (a + b) / (1.0 + 2e-9);
        let mut c = Controller::new(cfg);
        for load in [0.7, 0.4] {
            let cell = c.register_cell();
            c.report_load(cell, load).unwrap();
        }
        c.apply_action(Action::Migrate { cell: 0, to: 0 }).unwrap();
        c.apply_action(Action::Migrate { cell: 1, to: 1 }).unwrap();
        assert_eq!(
            c.apply_action(Action::Migrate { cell: 1, to: 0 }),
            Err(ActionError::WouldOverload { server: 0 })
        );
    }

    #[test]
    fn failure_without_apps_leaves_cells_unplaced() {
        let mut c = controller(4, 4);
        for i in 0..4 {
            c.report_load(i, 0.6).unwrap();
        }
        c.run_epoch(Duration::from_secs(1));
        let victim = c.placement().assignment[0].unwrap();
        let report = c.server_failed(victim, Duration::from_secs(2)).unwrap();
        assert!(!report.displaced.is_empty());
        assert_eq!(report.replaced, 0, "no failover app installed");
        // The next epoch repairs.
        let r = c.run_epoch(Duration::from_secs(60));
        assert_eq!(r.unplaced, 0);
    }

    #[test]
    fn drain_displaces_and_next_epoch_avoids_server() {
        let mut c = controller(2, 3);
        for i in 0..2 {
            c.report_load(i, 0.4).unwrap();
        }
        c.run_epoch(Duration::from_secs(1));
        let s = c.placement().assignment[0].unwrap();
        c.apply_action(Action::Drain { server: s }).unwrap();
        assert_ne!(c.placement().assignment[0], Some(s));
        let r = c.run_epoch(Duration::from_secs(60));
        assert_eq!(r.unplaced, 0);
        assert_ne!(
            c.placement().assignment[0],
            Some(s),
            "drained server avoided"
        );
        // Reactivation makes it eligible again.
        c.apply_action(Action::Activate { server: s }).unwrap();
    }

    #[test]
    fn apps_never_target_a_drained_server() {
        use crate::apps::{FailoverApp, LoadBalancerApp};
        // Five cells at 0.45 pack three-and-two onto two of four servers,
        // both above the 0.5 watermark, so every epoch the balancer sheds
        // one cell to the coldest server with room: an empty one.
        let mut c = controller(5, 4);
        c.install_app(Box::new(FailoverApp::new()));
        c.install_app(Box::new(LoadBalancerApp::new(0.5)));
        for i in 0..5 {
            c.report_load(i, 0.45).unwrap();
        }
        // Drain the server the balancer would pick: the first empty one.
        let empty = c.view().servers.iter().position(|s| s.cells == 0).unwrap();
        c.apply_action(Action::Drain { server: empty }).unwrap();
        assert!(!c.view().servers[empty].usable());
        assert!(c.view().servers[empty].alive, "drained, not dead");
        for epoch in 1..=3 {
            let r = c.run_epoch(Duration::from_secs(60 * epoch));
            assert_eq!(r.actions_rejected, 0, "epoch {epoch}: {r:?}");
            assert_eq!(r.unplaced, 0);
            assert_eq!(c.view().servers[empty].cells, 0);
        }
        assert!(
            c.stats().actions_applied > 0,
            "balancing must go on around the drained server"
        );
        // Failover likewise: the displaced cells land on usable servers.
        let victim = c.placement().assignment[0].unwrap();
        let report = c.server_failed(victim, Duration::from_secs(500)).unwrap();
        assert_eq!(report.replaced, report.displaced.len());
        assert_eq!(c.stats().actions_rejected, 0);
    }

    #[test]
    fn deregistered_cells_drop_out() {
        let mut c = controller(3, 3);
        for i in 0..3 {
            c.report_load(i, 0.5).unwrap();
        }
        c.run_epoch(Duration::from_secs(1));
        c.deregister_cell(1).unwrap();
        let r = c.run_epoch(Duration::from_secs(60));
        assert_eq!(r.unplaced, 0);
        assert_eq!(c.placement().assignment[1], None);
        assert_eq!(c.predicted_gops(1), 0.0);
    }

    #[test]
    fn view_reflects_state() {
        let mut c = controller(2, 2);
        c.report_load(0, 0.7).unwrap();
        c.report_load(1, 0.2).unwrap();
        c.run_epoch(Duration::from_secs(5));
        let v = c.view();
        assert_eq!(v.cells.len(), 2);
        assert_eq!(v.servers.len(), 2);
        assert_eq!(v.now, Duration::from_secs(5));
        assert!(v.cells[0].server.is_some());
        assert!((v.cells[0].utilization - 0.7).abs() < 1e-12);
        let total_cells: usize = v.servers.iter().map(|s| s.cells).sum();
        assert_eq!(total_cells, 2);
    }

    #[test]
    fn overload_raises_unplaced_slo_alert() {
        use pran_insight::SloMetric;
        // Six full-load cells cannot fit one 400-GOPS server: the epoch
        // leaves cells unplaced and the SLO monitor flags it once.
        let mut c = controller(6, 1);
        for i in 0..6 {
            c.report_load(i, 1.0).unwrap();
        }
        let r = c.run_epoch(Duration::from_secs(60));
        assert!(r.unplaced > 0);
        let alerts = c.slo_alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].metric, SloMetric::Unplaced);
        assert_eq!(alerts[0].epoch, 1);
        assert!(c.slo_monitor().in_breach(SloMetric::Unplaced));
        // Still unplaced next epoch: edge-triggered, no second alert.
        c.run_epoch(Duration::from_secs(120));
        assert_eq!(c.slo_alerts().len(), 1);
    }

    #[test]
    fn healthy_epochs_raise_no_slo_alerts() {
        let mut c = controller(4, 8);
        for i in 0..4 {
            c.report_load(i, 0.4).unwrap();
        }
        c.run_epoch(Duration::from_secs(60));
        c.run_epoch(Duration::from_secs(120));
        assert!(c.slo_alerts().is_empty());
        assert_eq!(c.slo_monitor().epochs(), 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = controller(2, 2);
        c.report_load(0, 0.5).unwrap();
        c.report_load(1, 0.5).unwrap();
        c.run_epoch(Duration::from_secs(1));
        c.run_epoch(Duration::from_secs(2));
        let s = c.stats();
        assert_eq!(s.epochs, 2);
        assert!(s.migrations >= 2);
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use crate::apps::FailoverApp;

    fn populated() -> Controller {
        let mut c = Controller::new(SystemConfig::default_eval(4));
        for i in 0..6 {
            c.register_cell();
            c.report_load(i, 0.3 + 0.1 * i as f64).unwrap();
        }
        c.apply_action(Action::CapPrbs { cell: 2, prbs: 25 })
            .unwrap();
        c.run_epoch(Duration::from_secs(60));
        c.server_failed(0, Duration::from_secs(61)).unwrap();
        c
    }

    #[test]
    fn snapshot_roundtrip_preserves_view() {
        let original = populated();
        let json = serde_json::to_string(&original.snapshot()).unwrap();
        let restored = Controller::restore(serde_json::from_str(&json).unwrap());
        assert_eq!(restored.view(), original.view());
        assert_eq!(restored.stats(), original.stats());
        assert_eq!(restored.placement(), original.placement());
    }

    #[test]
    fn restored_controller_continues_operating() {
        let original = populated();
        let mut restored = Controller::restore(original.snapshot());
        restored.install_app(Box::new(FailoverApp::new()));
        // The restored controller knows server 0 is dead and places
        // everyone on the survivors.
        for i in 0..6 {
            restored.report_load(i, 0.4).unwrap();
        }
        let report = restored.run_epoch(Duration::from_secs(120));
        assert_eq!(report.unplaced, 0);
        assert!(restored
            .placement()
            .assignment
            .iter()
            .all(|a| *a != Some(0)));
        // PRB cap survived the restart.
        assert_eq!(restored.view().cells[2].prb_cap, Some(25));
    }

    #[test]
    fn warm_state_survives_snapshot_roundtrip() {
        let mut cfg = SystemConfig::default_eval(4);
        cfg.warm = Some(pran_sched::placement::WarmConfig::default_eval());
        let mut c = Controller::new(cfg);
        for i in 0..4 {
            c.register_cell();
            c.report_load(i, 0.5).unwrap();
        }
        c.run_epoch(Duration::from_secs(60));
        let json = serde_json::to_string(&c.snapshot()).unwrap();
        let mut restored = Controller::restore(serde_json::from_str(&json).unwrap());
        for i in 0..4 {
            restored.report_load(i, 0.5).unwrap();
        }
        // Bookings came back with the snapshot: steady-state epoch, no
        // re-booking, no churn.
        let r = restored.run_epoch(Duration::from_secs(120));
        assert_eq!(r.dirty, 0, "bookings survived the restart");
        assert_eq!(r.migrations, 0);
    }

    #[test]
    #[should_panic(expected = "server-count mismatch")]
    fn corrupt_snapshot_rejected() {
        let c = populated();
        let mut snap = c.snapshot();
        snap.config.pool.servers = 99;
        Controller::restore(snap);
    }
}

#[cfg(test)]
mod audit_tests {
    use super::*;
    use crate::apps::FailoverApp;

    #[test]
    fn audit_records_events_in_order() {
        let mut c = Controller::new(SystemConfig::default_eval(3));
        c.install_app(Box::new(FailoverApp::new()));
        let a = c.register_cell();
        c.report_load(a, 0.5).unwrap();
        c.run_epoch(Duration::from_secs(60));
        c.server_failed(
            c.placement().assignment[a].unwrap(),
            Duration::from_secs(61),
        )
        .unwrap();
        let log: Vec<&AuditEntry> = c.audit_log().collect();
        assert!(log.len() >= 3, "register + epoch + failure");
        assert!(matches!(log[0].event, PoolEvent::CellRegistered(0)));
        assert!(log
            .iter()
            .any(|e| matches!(e.event, PoolEvent::ServerFailed(_))));
        // The failover app's response is visible on the failure entry.
        let failure = log
            .iter()
            .find(|e| matches!(e.event, PoolEvent::ServerFailed(_)))
            .unwrap();
        assert_eq!(failure.actions_applied, 1, "one migrate from the app");
        // Times are monotone.
        for w in log.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn audit_is_bounded() {
        let mut c = Controller::new(SystemConfig::default_eval(2));
        for _ in 0..1100 {
            let id = c.register_cell();
            c.deregister_cell(id).unwrap();
        }
        assert_eq!(c.audit_log().count(), AUDIT_CAPACITY);
    }
}
