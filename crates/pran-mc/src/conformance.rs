//! Conformance: driving a concrete [`pran::Controller`] to every
//! discovered state and asserting exact agreement with the model.
//!
//! The model was built to be a bitwise-faithful projection of the
//! controller; this module is where that claim is *checked* rather than
//! assumed. A real controller (with the real [`FailoverApp`] installed)
//! is driven through the same operations as the model, one step per
//! operation, and at each checked state the concrete `view()` is
//! compared against the view reconstructed from abstract state — cells
//! and servers, with `==` on every `f64`, no tolerance. Each checked
//! state also gets the concrete half of an [`Operation::Drill`], the
//! chaos harness's own [`restore_drill`] (snapshot → JSON →
//! `try_restore` → view equality): the restore-fidelity invariant
//! exercised at every state rather than at sampled instants.
//!
//! [`explore`](crate::explore()) carries the controller down the
//! discovery tree rather than replaying each state from the root: every
//! prefix of a discovered path is itself discovered, so a child's
//! controller is its parent's, forked with `clone`, plus one step. An
//! operation that drives nothing into the controller — a stale view's
//! `Fail` or `Recover`, which the controller has not heard about — forks
//! nothing: the child's controller *is* its parent's, so it shares the
//! parent's drill verdict too, and each controller object is drilled at
//! most once. Every state still gets its own view comparison. The
//! subtrees below depth 2 go to scoped worker threads, and the verdicts
//! merge in discovery order. [`replay_path`] is the same step folded
//! over one path from a fresh controller — the one-path oracle the walk
//! is tested against.
//!
//! A worker walks its subtrees on reused buffers: one model state per
//! depth, the child's written over the one below its parent's by
//! [`Model::apply_into`], and one pair of views that each comparison
//! fills, the controller's through [`Controller::view_into`] and the
//! model's through [`Model::view_into`]. The drill keeps its own
//! buffers ([`restore_drill`]).

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::Duration;

use pran::apps::FailoverApp;
use pran::{Controller, PoolView};
use pran_chaos::restore_drill;

use crate::explore::Tree;
use crate::model::{Model, Operation, StateView};
use crate::view::ViewSemantics;

/// Whether the discovered states get a concrete check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Conformance {
    /// No checks (exploration only).
    Off,
    /// Check every newly discovered state.
    Every,
}

/// Check `path` from the initial state on a fresh concrete controller:
/// one step per operation, then the state-level checks.
/// Returns a description of the first divergence, if any.
///
/// Step-level checks:
/// * `Drill` — a [`restore_drill`]: the restored view must equal the
///   pre-snapshot view, and the replay *continues on the restored
///   controller* so any restore drift would surface in the final
///   comparison too;
/// * under [`ViewSemantics::Stale`], `Fail`/`Recover` are physical-only
///   events the controller has not heard about, so nothing is driven
///   into it until the matching `Deliver`.
///
/// State-level check: after the last operation, the concrete `view()`
/// must equal the abstract view field-for-field (cells and servers;
/// `now` is excluded — the model does not track time), and a restore
/// drill must reproduce it.
pub fn replay_path(model: &Model, path: &[Operation]) -> Result<(), String> {
    let (ctl, state) = reach(model, path)?;
    compare_views(model, &ctl, &state, path, &mut Default::default())?;
    restore_drill(&ctl)
        .map(drop)
        .map_err(|e| drill_failed(path.len(), &e))
}

/// Whether `op` drives anything into the concrete controller. Under
/// [`ViewSemantics::Stale`], `Fail` and `Recover` are physical-only: the
/// controller hears of them at the matching `Deliver`.
fn drives(model: &Model, op: Operation) -> bool {
    let stale = matches!(model.config().semantics, ViewSemantics::Stale { .. });
    !(stale && matches!(op, Operation::Fail { .. } | Operation::Recover { .. }))
}

/// Step a fresh controller — the model's config, the real
/// [`FailoverApp`], its cells registered — and the model through `path`
/// from the initial state: [`drive`], then [`Model::apply`], per
/// operation.
fn reach(model: &Model, path: &[Operation]) -> Result<(Controller, StateView), String> {
    let cfg = model.config();
    let mut ctl = Controller::new(cfg.sys.clone());
    ctl.install_app(Box::new(FailoverApp::new()));
    for _ in 0..cfg.cells {
        ctl.register_cell();
    }
    let mut state = model.initial_state();
    let (mut next, mut outages) = (StateView::default(), Vec::new());
    for (i, &op) in path.iter().enumerate() {
        drive(model, &mut ctl, &state, i, op)?;
        model.apply_into(&state, op, &mut next, &mut outages);
        std::mem::swap(&mut state, &mut next);
    }
    Ok((ctl, state))
}

/// Drive operation `i` of a path, `op`, into `ctl`, from the model's
/// `state` before it, or return the step-level divergence (see
/// [`replay_path`]). An operation that [`drives`] nothing is `Ok`.
fn drive(
    model: &Model,
    ctl: &mut Controller,
    state: &StateView,
    i: usize,
    op: Operation,
) -> Result<(), String> {
    if !drives(model, op) {
        return Ok(());
    }
    let cfg = model.config();
    // Synthetic monotone clock: the controller never branches on time,
    // it only stamps it.
    let now = Duration::from_secs(i as u64 + 1);
    match op {
        Operation::Report { cell, level } => {
            ctl.report_load(cell, cfg.levels[level])
                .map_err(|e| format!("step {i} report({cell}): {e}"))?;
        }
        Operation::Epoch => {
            ctl.run_epoch(now);
        }
        Operation::Fail { server } => {
            ctl.server_failed(server, now)
                .map_err(|e| format!("step {i} fail({server}): {e}"))?;
        }
        Operation::Recover { server } => {
            ctl.server_recovered(server, now)
                .map_err(|e| format!("step {i} recover({server}): {e}"))?;
        }
        Operation::Deliver => {
            let notice = *state
                .pending
                .front()
                .ok_or_else(|| format!("step {i}: Deliver with empty backlog"))?;
            if notice.up {
                ctl.server_recovered(notice.server, now)
                    .map_err(|e| format!("step {i} deliver-recover: {e}"))?;
            } else {
                ctl.server_failed(notice.server, now)
                    .map_err(|e| format!("step {i} deliver-fail: {e}"))?;
            }
        }
        Operation::Drill => {
            *ctl = restore_drill(ctl).map_err(|e| drill_failed(i, &e))?;
        }
        Operation::Register => {
            ctl.register_cell();
        }
        Operation::Deregister { cell } => {
            ctl.deregister_cell(cell)
                .map_err(|e| format!("step {i} deregister({cell}): {e}"))?;
        }
    }
    Ok(())
}

/// The first state-level check at `state`, reached by `path`: the
/// concrete view must equal the abstract one. Both are written over
/// `views`, the controller's first. The second check is a restore drill
/// of `ctl` ([`restore_drill`]).
fn compare_views(
    model: &Model,
    ctl: &Controller,
    state: &StateView,
    path: &[Operation],
    [concrete, abstracted]: &mut [PoolView; 2],
) -> Result<(), String> {
    ctl.view_into(concrete);
    model.view_into(state, abstracted);
    if concrete.cells != abstracted.cells {
        return Err(format!(
            "cell views diverge after {path:?}: concrete {:?} vs model {:?}",
            concrete.cells, abstracted.cells
        ));
    }
    if concrete.servers != abstracted.servers {
        return Err(format!(
            "server views diverge after {path:?}: concrete {:?} vs model {:?}",
            concrete.servers, abstracted.servers
        ));
    }
    Ok(())
}

/// A [`restore_drill`] error, as the drill at step `step` reports it.
fn drill_failed(step: usize, e: &str) -> String {
    format!("step {step} drill: {e}")
}

/// Depth at which the tree is cut into work items. Every node down to
/// this depth is one item, reached by [`reach`] from a fresh controller;
/// an item *at* this depth also walks its whole subtree.
const CUT: usize = 2;

/// Check every discovered state of `tree` on `workers` threads and
/// return the divergences in discovery order — element for element what
/// [`replay_path`] on each state's path would return — and how many
/// restore round trips that took.
///
/// A step-level divergence poisons the subtree below it: every
/// descendant reports the same message, as its own replay would stop at
/// the same step. A state-level one (view or drill) does not.
pub(crate) fn check_tree(model: &Model, tree: &Tree, workers: usize) -> (Vec<String>, usize) {
    // BFS numbers the states level by level, so the nodes at depth ≤ CUT
    // are the ids below `items`, and those at CUT start at `subtrees`.
    let (mut subtrees, mut items) = (1, 1);
    for _ in 0..CUT {
        subtrees = items;
        items = tree.children(items - 1).end;
    }
    let cursor = AtomicU32::new(1);
    let work = || {
        let mut walk = Walk {
            model,
            tree,
            failures: Vec::new(),
            round_trips: 0,
            states: Vec::new(),
            outages: Vec::new(),
            views: Default::default(),
        };
        loop {
            let id = cursor.fetch_add(1, Ordering::Relaxed);
            if id >= items {
                return walk;
            }
            walk.item(id, id >= subtrees);
        }
    };
    let walks: Vec<Walk> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers.max(1)).map(|_| s.spawn(work)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("conformance worker panicked"))
            .collect()
    });
    let round_trips = walks.iter().map(|w| w.round_trips).sum();
    let mut failures: Vec<(u32, String)> = walks.into_iter().flat_map(|w| w.failures).collect();
    failures.sort_by_key(|&(id, _)| id);
    (failures.into_iter().map(|(_, e)| e).collect(), round_trips)
}

/// One controller object's [`restore_drill`] verdict, run on first demand.
/// Every state that shares the controller shares it.
type Drilled = OnceCell<Result<(), String>>;

/// One worker's share of [`check_tree`]: the divergences it found, by
/// state id, and the round trips it ran, with the buffers its states and
/// views are written in.
struct Walk<'a> {
    model: &'a Model,
    tree: &'a Tree,
    failures: Vec<(u32, String)>,
    round_trips: usize,
    /// The model's state at each depth of the path being walked: a
    /// child's is written over the buffer one below its parent's.
    states: Vec<StateView>,
    /// [`Model::apply_into`]'s outages, which the walk does not read.
    outages: Vec<(usize, Duration)>,
    /// [`compare_views`]'s two views.
    views: [PoolView; 2],
}

impl Walk<'_> {
    /// Check work item `id`, and its subtree when `descend`.
    fn item(&mut self, id: u32, descend: bool) {
        let mut path = self.tree.path(id);
        match reach(self.model, &path) {
            Err(e) if descend => self.poison(id, &e),
            Err(e) => self.failures.push((id, e)),
            Ok((ctl, state)) => {
                let depth = path.len();
                if self.states.len() <= depth {
                    self.states.resize_with(depth + 1, StateView::default);
                }
                self.states[depth] = state;
                if descend {
                    self.visit(id, &ctl, &Drilled::new(), &mut path);
                } else {
                    self.verdict(id, &ctl, &Drilled::new(), &path);
                }
            }
        }
    }

    /// Check state `id`, reached by `path`, whose model state is
    /// `states[path.len()]` and whose controller is `ctl` with verdict
    /// `drilled`, then each child, depth first. A child whose operation
    /// drives the controller gets a fork of `ctl` advanced by it; any
    /// other child's controller *is* `ctl`, so it shares `ctl` and
    /// `drilled` as they are.
    fn visit(&mut self, id: u32, ctl: &Controller, drilled: &Drilled, path: &mut Vec<Operation>) {
        self.verdict(id, ctl, drilled, path);
        let depth = path.len();
        if self.states.len() == depth + 1 {
            self.states.push(StateView::default());
        }
        for kid in self.tree.children(id) {
            let op = self.tree.op(kid);
            let (done, below) = self.states.split_at_mut(depth + 1);
            let (state, next) = (&done[depth], &mut below[0]);
            let fork = if drives(self.model, op) {
                let mut fork = ctl.clone();
                if let Err(e) = drive(self.model, &mut fork, state, depth, op) {
                    self.poison(kid, &e);
                    continue;
                }
                Some(fork)
            } else {
                None
            };
            self.model.apply_into(state, op, next, &mut self.outages);
            path.push(op);
            match &fork {
                Some(fork) => self.visit(kid, fork, &Drilled::new(), path),
                None => self.visit(kid, ctl, drilled, path),
            }
            path.pop();
        }
    }

    /// Record the state-level verdict for state `id`, reached by `path`:
    /// its own view comparison, then `ctl`'s round trip, run here only if
    /// no state sharing `ctl` has run it yet, and stamped with this
    /// state's step.
    fn verdict(&mut self, id: u32, ctl: &Controller, drilled: &Drilled, path: &[Operation]) {
        let state = &self.states[path.len()];
        if let Err(e) = compare_views(self.model, ctl, state, path, &mut self.views) {
            self.failures.push((id, e));
            return;
        }
        let trip = drilled.get_or_init(|| {
            self.round_trips += 1;
            restore_drill(ctl).map(drop)
        });
        if let Err(e) = trip {
            self.failures.push((id, drill_failed(path.len(), e)));
        }
    }

    /// Report `e` for `id` and every state below it.
    fn poison(&mut self, id: u32, e: &str) {
        self.failures.push((id, e.to_string()));
        for kid in self.tree.children(id) {
            self.poison(kid, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::McConfig;

    #[test]
    fn sampling_policies() {
        let mut cfg = McConfig::headline();
        cfg.depth = 3;
        let every = crate::explore(&Model::new(cfg.clone()));
        assert_eq!(every.conformance_checked, every.states - 1);
        cfg.conformance = Conformance::Off;
        let off = crate::explore(&Model::new(cfg));
        assert_eq!(off.conformance_checked, 0);
        assert!(off.conformance_failures.is_empty());
    }

    #[test]
    fn a_busy_linearizable_path_conforms() {
        let model = Model::new(McConfig::headline());
        let path = vec![
            Operation::Report { cell: 0, level: 1 },
            Operation::Report { cell: 1, level: 0 },
            Operation::Epoch,
            Operation::Fail { server: 0 },
            Operation::Drill,
            Operation::Report { cell: 2, level: 1 },
            Operation::Epoch,
            Operation::Recover { server: 0 },
            Operation::Epoch,
        ];
        replay_path(&model, &path).expect("model must conform to the controller");
    }

    #[test]
    fn a_stale_path_with_delivery_conforms() {
        let model = Model::new(McConfig::headline_stale(2));
        let path = vec![
            Operation::Report { cell: 0, level: 1 },
            Operation::Epoch,
            Operation::Fail { server: 0 },
            Operation::Epoch,
            Operation::Deliver,
            Operation::Epoch,
        ];
        replay_path(&model, &path).expect("stale replay must conform");
    }

    #[test]
    fn churn_paths_conform() {
        let model = Model::new(McConfig::churn());
        let path = vec![
            Operation::Report { cell: 0, level: 0 },
            Operation::Register,
            Operation::Epoch,
            Operation::Deregister { cell: 1 },
            Operation::Epoch,
        ];
        replay_path(&model, &path).expect("churn replay must conform");
    }

    /// Two top-level cells filling a server to `capacity·(1 + 5e-10)` are
    /// within `ServerSpec::fits`' relative tolerance, though far past an
    /// absolute `1e-9` slack. The epoch's repack packs them onto one
    /// server, and its failover must conform. The failover app admits a
    /// move only under `capacity` itself, so no enumerated operation takes
    /// the model's admission past it: the moves that do are held to
    /// `Controller::apply_action`'s verdict here, off a packed state,
    /// through [`Model::migrate`], the path the model's crash delivery
    /// takes.
    #[test]
    fn failover_and_moves_at_the_fit_boundary_conform() {
        let top = *Model::new(McConfig::headline())
            .demand_table()
            .last()
            .unwrap();
        let mut cfg = McConfig::headline();
        cfg.sys.pool.capacity_gops = 2.0 * top / (1.0 + 5e-10);
        assert!(2.0 * top > cfg.sys.pool.capacity_gops + 1e-9);
        let model = Model::new(cfg);
        let packed = [
            Operation::Report { cell: 0, level: 1 },
            Operation::Report { cell: 1, level: 1 },
            Operation::Epoch,
        ];
        let (mut ctl, mut state) = reach(&model, &packed).unwrap();
        let host = state.placement[0].expect("cell 0 placed");
        assert_eq!(state.placement[1], Some(host), "packed to the boundary");
        let failover = [&packed[..], &[Operation::Fail { server: host }]].concat();
        replay_path(&model, &failover).expect("the failover off the packed server must conform");

        let other = (host + 1) % model.config().servers;
        for to in [other, host] {
            let concrete = ctl
                .apply_action(pran::Action::Migrate { cell: 1, to })
                .is_ok();
            assert!(concrete, "the controller admits c1→s{to}");
            let instance = model.placement_instance(&state);
            assert!(
                Model::migrate(&instance, &mut state, 1, to),
                "the model must admit c1→s{to} as the controller does"
            );
            compare_views(&model, &ctl, &state, &packed, &mut Default::default()).unwrap();
        }
    }
}
