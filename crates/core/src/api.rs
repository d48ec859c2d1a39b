//! The northbound API: what control applications see and say.
//!
//! PRAN's programmability contract: the controller shows apps a read-only
//! [`PoolView`] of global state at the two moments they act on — the end
//! of a placement epoch and a server failure — and accepts [`Action`]s,
//! the only way anything changes. Apps compose because actions are data:
//! the controller validates and applies them, so a buggy app can be
//! rejected, rate-limited or unloaded without touching the data plane.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A cell as seen through the northbound API.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellView {
    /// Cell id.
    pub id: usize,
    /// Registered and not since deregistered. An inactive cell is never
    /// placed and predicts no demand; it keeps its id and its row.
    pub active: bool,
    /// Server currently processing the cell, if placed.
    pub server: Option<usize>,
    /// Most recent reported PRB utilization.
    pub utilization: f64,
    /// Predicted GOPS demand for the next epoch.
    pub predicted_gops: f64,
    /// PRB cap currently imposed (None = uncapped).
    pub prb_cap: Option<u32>,
}

/// A server as seen through the northbound API.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerView {
    /// Server id.
    pub id: usize,
    /// Whether the server is responding.
    pub alive: bool,
    /// Whether an operator or app has drained it (see [`Action::Drain`]).
    pub drained: bool,
    /// Capacity in GOPS.
    pub capacity_gops: f64,
    /// Placed demand in GOPS.
    pub load_gops: f64,
    /// Cells currently placed here.
    pub cells: usize,
}

impl ServerView {
    /// Whether cells may be placed here: responding and not drained. A
    /// `Migrate` onto any other server is rejected.
    pub fn usable(&self) -> bool {
        self.alive && !self.drained
    }

    /// Load as a fraction of capacity.
    pub fn utilization(&self) -> f64 {
        if self.capacity_gops == 0.0 {
            0.0
        } else {
            self.load_gops / self.capacity_gops
        }
    }
}

/// Read-only snapshot handed to control apps each epoch.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PoolView {
    /// Simulated/wall time of the snapshot.
    pub now: Duration,
    /// All cells (active and inactive).
    pub cells: Vec<CellView>,
    /// All servers.
    pub servers: Vec<ServerView>,
}

impl PoolView {
    /// Servers currently hosting at least one cell.
    pub fn servers_used(&self) -> usize {
        self.servers.iter().filter(|s| s.cells > 0).count()
    }

    /// Mean utilization across servers in use (0 if none).
    pub fn mean_used_utilization(&self) -> f64 {
        let used: Vec<&ServerView> = self.servers.iter().filter(|s| s.cells > 0).collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().map(|s| s.utilization()).sum::<f64>() / used.len() as f64
        }
    }

    /// The busiest usable server, if any.
    pub fn hottest_server(&self) -> Option<&ServerView> {
        self.servers.iter().filter(|s| s.usable()).max_by(|a, b| {
            a.utilization()
                .partial_cmp(&b.utilization())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

/// Actions apps may request. The controller validates before applying.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Move a cell to a specific server.
    Migrate {
        /// The cell to move.
        cell: usize,
        /// Destination server.
        to: usize,
    },
    /// Cap a cell's PRB allocation (spectrum management / degradation).
    CapPrbs {
        /// The cell to cap.
        cell: usize,
        /// Maximum PRBs the cell may schedule.
        prbs: u32,
    },
    /// Remove a cell's PRB cap.
    UncapPrbs {
        /// The cell to uncap.
        cell: usize,
    },
    /// Hint that a server should be drained and powered down.
    Drain {
        /// The server to drain.
        server: usize,
    },
    /// Hint that a drained server should be reactivated.
    Activate {
        /// The server to reactivate.
        server: usize,
    },
}

/// Why the controller rejected an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActionError {
    /// Referenced cell does not exist.
    NoSuchCell(usize),
    /// Referenced server does not exist.
    NoSuchServer(usize),
    /// Target server is down.
    ServerDown(usize),
    /// Move would overload the target server.
    WouldOverload {
        /// The rejected target.
        server: usize,
    },
    /// PRB cap exceeds the carrier grid.
    BadPrbCap {
        /// The rejected cap.
        prbs: u32,
    },
}

impl std::fmt::Display for ActionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActionError::NoSuchCell(c) => write!(f, "no such cell {c}"),
            ActionError::NoSuchServer(s) => write!(f, "no such server {s}"),
            ActionError::ServerDown(s) => write!(f, "server {s} is down"),
            ActionError::WouldOverload { server } => {
                write!(f, "migration would overload server {server}")
            }
            ActionError::BadPrbCap { prbs } => write!(f, "PRB cap {prbs} exceeds the grid"),
        }
    }
}

impl std::error::Error for ActionError {}

/// A control application.
///
/// Apps are synchronous and deterministic, and are asked in installation
/// order: the controller calls [`ControlApp::on_epoch`] once per placement
/// epoch and [`ControlApp::on_server_failed`] once per server failure,
/// each with a fresh [`PoolView`]; both return the actions the app wants
/// executed, and both default to none.
///
/// Every app is `Clone` (through [`CloneApp`]'s blanket impl), so a
/// [`Controller`](crate::Controller) forks with its apps' hidden state.
pub trait ControlApp: CloneApp {
    /// Called once per epoch with the post-placement state.
    fn on_epoch(&mut self, view: &PoolView) -> Vec<Action> {
        let _ = view;
        Vec::new()
    }

    /// Called once `server` has been marked dead and its cells unplaced.
    fn on_server_failed(&mut self, server: usize, view: &PoolView) -> Vec<Action> {
        let _ = (server, view);
        Vec::new()
    }
}

/// The boxed clone behind `Box<dyn ControlApp>: Clone`; implemented for
/// every `ControlApp + Clone` type, never by hand.
pub trait CloneApp {
    /// A boxed copy of this app, hidden state included.
    fn clone_app(&self) -> Box<dyn ControlApp>;
}

impl<T: ControlApp + Clone + 'static> CloneApp for T {
    fn clone_app(&self) -> Box<dyn ControlApp> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn ControlApp> {
    fn clone(&self) -> Self {
        self.clone_app()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn view_aggregates() {
        let view = PoolView {
            now: Duration::ZERO,
            cells: Vec::new(),
            servers: vec![server(0, 80.0, 3), server(1, 20.0, 1), server(2, 0.0, 0)],
        };
        assert_eq!(view.servers_used(), 2);
        assert!((view.mean_used_utilization() - 0.5).abs() < 1e-12);
        assert_eq!(view.hottest_server().unwrap().id, 0);
    }

    #[test]
    fn utilization_zero_capacity_safe() {
        let s = ServerView {
            id: 0,
            alive: true,
            drained: false,
            capacity_gops: 0.0,
            load_gops: 0.0,
            cells: 0,
        };
        assert_eq!(s.utilization(), 0.0);
    }

    #[test]
    fn dead_servers_not_hottest() {
        let mut a = server(0, 90.0, 2);
        a.alive = false;
        let view = PoolView {
            now: Duration::ZERO,
            cells: Vec::new(),
            servers: vec![a, server(1, 10.0, 1)],
        };
        assert_eq!(view.hottest_server().unwrap().id, 1);
    }

    #[test]
    fn action_error_displays() {
        let e = ActionError::WouldOverload { server: 3 };
        assert!(e.to_string().contains("server 3"));
    }
}
