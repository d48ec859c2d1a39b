//! Server consolidation (the energy/efficiency face of pooling).
//!
//! When the pool runs colder than a low watermark, the lightest-loaded
//! server is drained — its cells fold into the survivors at the next
//! placement pass — and when it runs hotter than a high watermark, a
//! previously drained server is reactivated. Hysteresis between the two
//! watermarks prevents flapping.

use crate::api::{Action, ControlApp, PoolView};

/// Drain/reactivate servers based on pool-wide utilization.
#[derive(Debug, Clone)]
pub struct ConsolidationApp {
    /// Mean used-server utilization below which one server drains.
    pub low_watermark: f64,
    /// Mean used-server utilization above which one server reactivates.
    pub high_watermark: f64,
    /// Servers this app has drained (reactivation candidates).
    drained: Vec<usize>,
}

impl ConsolidationApp {
    /// Create with watermarks. `low < high` is required for hysteresis.
    pub fn new(low_watermark: f64, high_watermark: f64) -> Self {
        assert!(
            low_watermark < high_watermark,
            "hysteresis requires low < high"
        );
        ConsolidationApp {
            low_watermark,
            high_watermark,
            drained: Vec::new(),
        }
    }

    /// Servers currently drained by this app.
    pub fn drained(&self) -> &[usize] {
        &self.drained
    }
}

impl ControlApp for ConsolidationApp {
    fn on_epoch(&mut self, view: &PoolView) -> Vec<Action> {
        let mean = view.mean_used_utilization();
        if mean > self.high_watermark {
            // Reactivate one drained server.
            if let Some(server) = self.drained.pop() {
                return vec![Action::Activate { server }];
            }
            return Vec::new();
        }
        if mean < self.low_watermark && view.servers_used() > 1 {
            // Drain the lightest used server if the rest can absorb it.
            let used: Vec<_> = view
                .servers
                .iter()
                .filter(|s| s.cells > 0 && s.alive)
                .collect();
            let lightest = used.iter().min_by(|a, b| {
                a.load_gops
                    .partial_cmp(&b.load_gops)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            if let Some(victim) = lightest {
                let survivors: Vec<_> = view
                    .servers
                    .iter()
                    .filter(|s| s.alive && s.id != victim.id && !self.drained.contains(&s.id))
                    .collect();
                let residual_elsewhere: f64 = survivors
                    .iter()
                    .map(|s| (s.capacity_gops - s.load_gops).max(0.0))
                    .sum();
                // Post-drain utilization of the survivors: total live load
                // squeezed into their capacity, which must not exceed it.
                let survivor_capacity: f64 = survivors.iter().map(|s| s.capacity_gops).sum();
                let total_load: f64 = view
                    .servers
                    .iter()
                    .filter(|s| s.alive)
                    .map(|s| s.load_gops)
                    .sum();
                let post_drain = if survivor_capacity > 0.0 {
                    total_load / survivor_capacity
                } else {
                    f64::INFINITY
                };
                if residual_elsewhere >= victim.load_gops && post_drain <= 1.0 {
                    self.drained.push(victim.id);
                    return vec![Action::Drain { server: victim.id }];
                }
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CellView, ServerView};
    use std::time::Duration;

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

    fn view(servers: Vec<ServerView>) -> PoolView {
        PoolView {
            now: Duration::ZERO,
            cells: Vec::<CellView>::new(),
            servers,
        }
    }

    #[test]
    fn drains_lightest_when_cold() {
        let mut app = ConsolidationApp::new(0.3, 0.7);
        let v = view(vec![
            server(0, 20.0, 2),
            server(1, 5.0, 1),
            server(2, 0.0, 0),
        ]);
        let actions = app.on_epoch(&v);
        assert_eq!(actions, vec![Action::Drain { server: 1 }]);
        assert_eq!(app.drained(), &[1]);
    }

    #[test]
    fn does_not_drain_when_survivors_cannot_absorb() {
        let mut app = ConsolidationApp::new(0.5, 0.9);
        // A nearly full small server (49/50) plus a barely used huge one
        // (10/1000): mean utilization 0.495 < 0.5, so the pool is "cold",
        // but draining the lightest-loaded server (the huge one, 10 GOPS)
        // can't work — the other server only has 1 GOPS of residual room.
        let small_full = ServerView {
            id: 0,
            alive: true,
            drained: false,
            capacity_gops: 50.0,
            load_gops: 49.0,
            cells: 2,
        };
        let huge_idle = ServerView {
            id: 1,
            alive: true,
            drained: false,
            capacity_gops: 1000.0,
            load_gops: 10.0,
            cells: 1,
        };
        let v = view(vec![small_full, huge_idle]);
        assert!(v.mean_used_utilization() < 0.5, "setup must read as cold");
        let actions = app.on_epoch(&v);
        assert!(
            actions.is_empty(),
            "unabsorbable drain must be refused: {actions:?}"
        );
    }

    #[test]
    fn reactivates_when_hot() {
        let mut app = ConsolidationApp::new(0.2, 0.6);
        // First drain while cold.
        let cold = view(vec![server(0, 10.0, 1), server(1, 5.0, 1)]);
        let drained = app.on_epoch(&cold);
        assert_eq!(drained.len(), 1);
        // Then heat up.
        let hot = view(vec![server(0, 90.0, 2)]);
        let actions = app.on_epoch(&hot);
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], Action::Activate { .. }));
        assert!(app.drained().is_empty());
    }

    #[test]
    fn hysteresis_band_is_quiet() {
        let mut app = ConsolidationApp::new(0.3, 0.7);
        let v = view(vec![server(0, 50.0, 2), server(1, 50.0, 2)]);
        assert!(app.on_epoch(&v).is_empty());
    }

    #[test]
    fn never_drains_last_server() {
        let mut app = ConsolidationApp::new(0.5, 0.9);
        let v = view(vec![server(0, 10.0, 3)]);
        assert!(app.on_epoch(&v).is_empty());
    }

    #[test]
    #[should_panic(expected = "hysteresis")]
    fn watermarks_validated() {
        ConsolidationApp::new(0.8, 0.2);
    }

    #[test]
    fn drain_refused_when_executor_cannot_schedule_it() {
        // Server 0 runs over its capacity (190/100), so its residual
        // counts as 0 and server 1's 90 alone absorbs the lightest
        // server's 5 GOPS: the residual check passes. But all live load
        // (205) on the two survivors (200) is past their capacity, which
        // no executor schedules within deadlines.
        let mut app = ConsolidationApp::new(0.7, 0.9);
        let v = view(vec![
            server(0, 190.0, 3),
            server(1, 10.0, 1),
            server(2, 5.0, 1),
        ]);
        assert!(v.mean_used_utilization() < 0.7, "setup must read as cold");
        assert!(
            app.on_epoch(&v).is_empty(),
            "post-drain utilization 1.025 must be refused"
        );
        // At 180 the survivors carry 195/200: the drain goes ahead.
        let v = view(vec![
            server(0, 180.0, 3),
            server(1, 10.0, 1),
            server(2, 5.0, 1),
        ]);
        assert_eq!(app.on_epoch(&v), vec![Action::Drain { server: 2 }]);
    }
}
