//! Fast failover as a control app.
//!
//! When a server dies, the controller only marks its cells unplaced — this
//! app supplies the recovery policy: best-fit re-placement of every
//! displaced cell onto the remaining live servers, immediately, without
//! waiting for the next placement epoch. (The paper's fast-failover claim
//! is that centralizing state makes this a pure control-plane operation.)

use crate::api::{Action, ControlApp, PoolEvent, PoolView};

/// Best-fit immediate re-placement of displaced cells.
#[derive(Debug, Clone, Default)]
pub struct FailoverApp {
    /// Failovers handled so far.
    pub handled: u64,
}

impl FailoverApp {
    /// New app.
    pub fn new() -> Self {
        Self::default()
    }

    fn replace_unplaced(view: &PoolView) -> Vec<Action> {
        // Residual capacity per usable (alive, undrained) server at predicted demand.
        let mut residual: Vec<f64> = view
            .servers
            .iter()
            .map(|s| {
                if s.usable() {
                    s.capacity_gops - s.load_gops
                } else {
                    f64::NEG_INFINITY
                }
            })
            .collect();
        // Displaced cells, heaviest first (harder to place). A deregistered
        // cell is unplaced too, but it is gone, not displaced.
        let mut cells: Vec<_> = view
            .cells
            .iter()
            .filter(|c| c.active && c.server.is_none())
            .collect();
        cells.sort_by(|a, b| {
            b.predicted_gops
                .partial_cmp(&a.predicted_gops)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut actions = Vec::new();
        for cell in cells {
            // Best fit: tightest residual that still holds the cell.
            let target = (0..residual.len())
                .filter(|&s| residual[s] >= cell.predicted_gops)
                .min_by(|&a, &b| {
                    (residual[a] - cell.predicted_gops)
                        .partial_cmp(&(residual[b] - cell.predicted_gops))
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
            if let Some(s) = target {
                residual[s] -= cell.predicted_gops;
                actions.push(Action::Migrate {
                    cell: cell.id,
                    to: s,
                });
            }
        }
        actions
    }
}

impl ControlApp for FailoverApp {
    fn name(&self) -> &'static str {
        "failover"
    }

    fn on_event(&mut self, event: &PoolEvent, view: &PoolView) -> Vec<Action> {
        match event {
            PoolEvent::ServerFailed(_) => {
                self.handled += 1;
                Self::replace_unplaced(view)
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CellView, ServerView};
    use std::time::Duration;

    fn view(cells: Vec<CellView>, servers: Vec<ServerView>) -> PoolView {
        PoolView {
            now: Duration::ZERO,
            cells,
            servers,
        }
    }

    fn cell(id: usize, server: Option<usize>, gops: f64) -> CellView {
        CellView {
            id,
            active: true,
            server,
            utilization: 0.5,
            predicted_gops: gops,
            prb_cap: None,
        }
    }

    fn server(id: usize, alive: bool, load: f64) -> ServerView {
        ServerView {
            id,
            alive,
            drained: false,
            capacity_gops: 100.0,
            load_gops: load,
            cells: 1,
        }
    }

    #[test]
    fn replaces_displaced_cells_best_fit() {
        let v = view(
            vec![
                cell(0, None, 30.0),
                cell(1, None, 60.0),
                cell(2, Some(1), 40.0),
            ],
            vec![
                server(0, false, 0.0),
                server(1, true, 40.0),
                server(2, true, 0.0),
            ],
        );
        let mut app = FailoverApp::new();
        let actions = app.on_event(&PoolEvent::ServerFailed(0), &v);
        // Heaviest (60) placed first → exact fit on server 1 (residual
        // 60 beats server 2's 100), then the 30 lands on server 2.
        assert_eq!(actions.len(), 2);
        assert!(actions.contains(&Action::Migrate { cell: 1, to: 1 }));
        assert!(actions.contains(&Action::Migrate { cell: 0, to: 2 }));
        assert_eq!(app.handled, 1);
    }

    #[test]
    fn never_targets_dead_servers() {
        let v = view(
            vec![cell(0, None, 10.0)],
            vec![server(0, false, 0.0), server(1, true, 95.0)],
        );
        let mut app = FailoverApp::new();
        let actions = app.on_event(&PoolEvent::ServerFailed(0), &v);
        assert!(actions.is_empty(), "no live server has room: {actions:?}");
    }

    /// A deregistered cell is unplaced but not displaced: a `Migrate` for
    /// it would only be rejected with `NoSuchCell`.
    #[test]
    fn leaves_deregistered_cells_alone() {
        use crate::{Controller, SystemConfig};
        let mut c = Controller::new(SystemConfig::default_eval(4));
        c.install_app(Box::new(FailoverApp::new()));
        for i in 0..3 {
            c.register_cell();
            c.report_load(i, 0.5).unwrap();
        }
        c.run_epoch(Duration::from_secs(60));
        c.deregister_cell(2).unwrap();
        let victim = c.placement().assignment[0].unwrap();
        let report = c.server_failed(victim, Duration::from_secs(90)).unwrap();
        assert!(!report.displaced.is_empty());
        assert_eq!(report.replaced, report.displaced.len());
        assert_eq!(c.stats().actions_rejected, 0);
        let entry = c.audit_log().last().unwrap();
        assert_eq!(entry.event, PoolEvent::ServerFailed(victim));
        assert_eq!(entry.actions_applied, report.displaced.len());
        assert_eq!(entry.actions_rejected, 0);
        assert_eq!(c.placement().assignment[2], None);
    }

    #[test]
    fn ignores_other_events() {
        let v = view(vec![cell(0, None, 10.0)], vec![server(1, true, 0.0)]);
        let mut app = FailoverApp::new();
        assert!(app.on_event(&PoolEvent::CellRegistered(0), &v).is_empty());
        assert!(app.on_epoch(&v).is_empty());
        assert_eq!(app.handled, 0);
    }
}
