//! Hot-spot relief: move one cell per epoch off the hottest server.
//!
//! Deliberately gentle — one migration per epoch — because every move
//! costs a state-transfer window. The placement pass already balances at
//! epoch scale; this app catches intra-epoch drift reported through load
//! telemetry.

use crate::api::{Action, ControlApp, PoolView};

/// Migrate one cell per epoch from the hottest server when it exceeds the
/// watermark.
#[derive(Debug, Clone)]
pub struct LoadBalancerApp {
    /// Utilization above which the hottest server sheds load.
    pub high_watermark: f64,
    /// Migrations proposed so far.
    pub proposed: u64,
}

impl LoadBalancerApp {
    /// Create with a high watermark in `(0, 1]`.
    pub fn new(high_watermark: f64) -> Self {
        assert!(high_watermark > 0.0 && high_watermark <= 1.0);
        LoadBalancerApp {
            high_watermark,
            proposed: 0,
        }
    }
}

impl ControlApp for LoadBalancerApp {
    fn name(&self) -> &'static str {
        "load-balancer"
    }

    fn on_epoch(&mut self, view: &PoolView) -> Vec<Action> {
        let Some(hottest) = view.hottest_server() else {
            return Vec::new();
        };
        if hottest.utilization() <= self.high_watermark {
            return Vec::new();
        }
        // Smallest cell on the hottest server (cheapest to move).
        let victim = view
            .cells
            .iter()
            .filter(|c| c.server == Some(hottest.id))
            .min_by(|a, b| {
                a.predicted_gops
                    .partial_cmp(&b.predicted_gops)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        let Some(victim) = victim else {
            return Vec::new();
        };
        // Coldest usable server with room (a drained one would reject the move).
        let target = view
            .servers
            .iter()
            .filter(|s| {
                s.usable()
                    && s.id != hottest.id
                    && s.capacity_gops - s.load_gops >= victim.predicted_gops
            })
            .min_by(|a, b| {
                a.utilization()
                    .partial_cmp(&b.utilization())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        match target {
            Some(t) => {
                self.proposed += 1;
                vec![Action::Migrate {
                    cell: victim.id,
                    to: t.id,
                }]
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CellView, ServerView};
    use std::time::Duration;

    fn cell(id: usize, server: usize, gops: f64) -> CellView {
        CellView {
            id,
            active: true,
            server: Some(server),
            utilization: 0.5,
            predicted_gops: gops,
            prb_cap: None,
        }
    }

    fn server(id: usize, load: f64, cells: usize) -> ServerView {
        ServerView {
            id,
            alive: true,
            drained: false,
            capacity_gops: 100.0,
            load_gops: load,
            cells,
        }
    }

    fn view(cells: Vec<CellView>, servers: Vec<ServerView>) -> PoolView {
        PoolView {
            now: Duration::ZERO,
            cells,
            servers,
        }
    }

    #[test]
    fn sheds_smallest_cell_to_coldest_server() {
        let mut app = LoadBalancerApp::new(0.8);
        let v = view(
            vec![cell(0, 0, 60.0), cell(1, 0, 30.0), cell(2, 1, 20.0)],
            vec![server(0, 90.0, 2), server(1, 20.0, 1), server(2, 50.0, 0)],
        );
        let actions = app.on_epoch(&v);
        assert_eq!(actions, vec![Action::Migrate { cell: 1, to: 1 }]);
        assert_eq!(app.proposed, 1);
    }

    #[test]
    fn quiet_below_watermark() {
        let mut app = LoadBalancerApp::new(0.95);
        let v = view(
            vec![cell(0, 0, 60.0)],
            vec![server(0, 90.0, 1), server(1, 0.0, 0)],
        );
        assert!(app.on_epoch(&v).is_empty());
    }

    #[test]
    fn no_action_when_no_target_fits() {
        let mut app = LoadBalancerApp::new(0.5);
        let v = view(
            vec![cell(0, 0, 70.0)],
            vec![server(0, 70.0, 1), server(1, 95.0, 1)],
        );
        assert!(app.on_epoch(&v).is_empty());
    }

    #[test]
    fn empty_pool_safe() {
        let mut app = LoadBalancerApp::new(0.5);
        let v = view(Vec::new(), Vec::new());
        assert!(app.on_epoch(&v).is_empty());
    }
}
