//! Coordinated multipoint (CoMP) enablement as a control app.
//!
//! One of centralization's headline benefits: joint processing across
//! neighbouring cells (interference cancellation, joint reception) is only
//! possible when those cells' baseband runs **on the same server** — cross-
//! server coordination would re-introduce the tight latency coupling PRAN
//! removed from the fronthaul. This app takes declared coordination sets
//! (e.g. cells sharing a coverage edge) and steers placement so each set is
//! co-located, migrating members when the placement pass scatters them.

use crate::api::{Action, ControlApp, PoolView};

/// Keep declared coordination sets co-located on one server.
#[derive(Debug, Clone)]
pub struct CompApp {
    /// Coordination sets (each a group of cell ids that must share a
    /// server for joint processing to be possible).
    sets: Vec<Vec<usize>>,
    /// Sets currently co-located (updated every epoch).
    pub colocated: usize,
}

impl CompApp {
    /// Create with coordination sets.
    ///
    /// # Panics
    /// Panics on an empty set (nothing to coordinate).
    pub fn new(sets: Vec<Vec<usize>>) -> Self {
        assert!(sets.iter().all(|s| !s.is_empty()), "empty coordination set");
        CompApp { sets, colocated: 0 }
    }

    /// The declared sets.
    pub fn sets(&self) -> &[Vec<usize>] {
        &self.sets
    }
}

impl ControlApp for CompApp {
    fn name(&self) -> &'static str {
        "comp"
    }

    fn on_epoch(&mut self, view: &PoolView) -> Vec<Action> {
        let mut actions = Vec::new();
        self.colocated = 0;
        for set in &self.sets {
            // Where do the members sit, and what do they cost?
            let members: Vec<_> = view.cells.iter().filter(|c| set.contains(&c.id)).collect();
            if members.len() != set.len() || members.iter().any(|c| c.server.is_none()) {
                continue; // unplaced members: placement must win first
            }
            let first = members[0].server;
            if members.iter().all(|c| c.server == first) {
                self.colocated += 1;
                continue;
            }
            // Pick the anchor server: the one already hosting the largest
            // share of the set's demand (fewest moves of least load).
            let mut per_server: Vec<(usize, f64)> = Vec::new();
            for c in &members {
                let s = c.server.expect("checked above");
                match per_server.iter_mut().find(|(id, _)| *id == s) {
                    Some((_, g)) => *g += c.predicted_gops,
                    None => per_server.push((s, c.predicted_gops)),
                }
            }
            per_server.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let total_set_gops: f64 = members.iter().map(|c| c.predicted_gops).sum();

            // Find an anchor (starting from the biggest resident share)
            // whose residual capacity can absorb the incoming members.
            let anchor = per_server.iter().find_map(|&(s, resident_gops)| {
                let sv = view.servers.iter().find(|v| v.id == s)?;
                if !sv.alive {
                    return None;
                }
                let incoming = total_set_gops - resident_gops;
                (sv.capacity_gops - sv.load_gops >= incoming).then_some(s)
            });
            let Some(anchor) = anchor else {
                continue; // no server can hold the whole set this epoch
            };
            for c in &members {
                if c.server != Some(anchor) {
                    actions.push(Action::Migrate {
                        cell: c.id,
                        to: anchor,
                    });
                }
            }
            self.colocated += 1;
        }
        actions
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
            server: Some(server),
            utilization: 0.4,
            predicted_gops: gops,
            prb_cap: None,
        }
    }

    fn server(id: usize, load: f64) -> ServerView {
        ServerView {
            id,
            alive: true,
            drained: false,
            capacity_gops: 100.0,
            load_gops: load,
            cells: 1,
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
    fn scattered_set_pulled_to_anchor() {
        // Cells 0 (40 GOPS) and 1 (10 GOPS) coordinate; 0 sits on server 0,
        // 1 on server 1. Anchor = server 0 (bigger resident share), which
        // has room for the incoming 10.
        let v = view(
            vec![cell(0, 0, 40.0), cell(1, 1, 10.0)],
            vec![server(0, 40.0), server(1, 10.0)],
        );
        let mut app = CompApp::new(vec![vec![0, 1]]);
        let actions = app.on_epoch(&v);
        assert_eq!(actions, vec![Action::Migrate { cell: 1, to: 0 }]);
        assert_eq!(app.colocated, 1);
    }

    #[test]
    fn already_colocated_is_quiet() {
        let v = view(
            vec![cell(0, 2, 20.0), cell(1, 2, 20.0)],
            vec![server(2, 40.0)],
        );
        let mut app = CompApp::new(vec![vec![0, 1]]);
        assert!(app.on_epoch(&v).is_empty());
        assert_eq!(app.colocated, 1);
    }

    #[test]
    fn falls_back_to_secondary_anchor_when_primary_full() {
        // Anchor preference is server 0 (60 resident) but it has no room;
        // server 1 (30 resident, lots of room) takes the set instead.
        let v = view(
            vec![cell(0, 0, 60.0), cell(1, 1, 30.0)],
            vec![server(0, 99.0), server(1, 30.0)],
        );
        let mut app = CompApp::new(vec![vec![0, 1]]);
        let actions = app.on_epoch(&v);
        assert_eq!(actions, vec![Action::Migrate { cell: 0, to: 1 }]);
    }

    #[test]
    fn gives_up_when_no_server_fits_the_set() {
        let v = view(
            vec![cell(0, 0, 60.0), cell(1, 1, 60.0)],
            vec![server(0, 60.0), server(1, 60.0)],
        );
        let mut app = CompApp::new(vec![vec![0, 1]]);
        assert!(app.on_epoch(&v).is_empty());
        assert_eq!(app.colocated, 0);
    }

    #[test]
    fn skips_sets_with_unplaced_members() {
        let unplaced = CellView {
            id: 1,
            server: None,
            utilization: 0.4,
            predicted_gops: 10.0,
            prb_cap: None,
        };
        let v = view(vec![cell(0, 0, 40.0), unplaced], vec![server(0, 40.0)]);
        let mut app = CompApp::new(vec![vec![0, 1]]);
        assert!(app.on_epoch(&v).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty coordination set")]
    fn rejects_empty_sets() {
        CompApp::new(vec![vec![]]);
    }
}
