//! Graceful degradation via spectrum caps.
//!
//! When the pool cannot place a cell at its predicted demand (compute
//! overload), this app caps the cell's PRB allocation — trading user
//! throughput for admission — and lifts the cap once the cell is placed
//! and the pool has cooled down. This is the "dynamic spectrum / compute
//! coupling" programmability example: radio-resource policy reacting to
//! compute-pool state.

use crate::api::{Action, ControlApp, PoolView};

/// Cap unplaceable cells' PRBs; uncap when the pool relaxes.
#[derive(Debug, Clone)]
pub struct SpectrumApp {
    /// PRB cap applied to unplaceable cells.
    pub cap_prbs: u32,
    /// Pool mean utilization below which caps lift.
    pub relax_below: f64,
    /// Caps currently applied by this app.
    capped: Vec<usize>,
}

impl SpectrumApp {
    /// Create with the cap size and relaxation watermark.
    pub fn new(cap_prbs: u32, relax_below: f64) -> Self {
        SpectrumApp {
            cap_prbs,
            relax_below,
            capped: Vec::new(),
        }
    }

    /// Cells currently capped by this app.
    pub fn capped(&self) -> &[usize] {
        &self.capped
    }
}

impl ControlApp for SpectrumApp {
    fn on_epoch(&mut self, view: &PoolView) -> Vec<Action> {
        let mut actions = Vec::new();
        // Cap any unplaced cell that we have not capped yet.
        for c in &view.cells {
            if c.server.is_none() && !self.capped.contains(&c.id) {
                self.capped.push(c.id);
                actions.push(Action::CapPrbs {
                    cell: c.id,
                    prbs: self.cap_prbs,
                });
            }
        }
        // Lift caps once the pool has room again and the cell is placed.
        if view.mean_used_utilization() < self.relax_below {
            let placed: Vec<usize> = self
                .capped
                .iter()
                .copied()
                .filter(|&id| view.cells.iter().any(|c| c.id == id && c.server.is_some()))
                .collect();
            for id in placed {
                self.capped.retain(|&c| c != id);
                actions.push(Action::UncapPrbs { cell: id });
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{CellView, ServerView};
    use std::time::Duration;

    fn cell(id: usize, server: Option<usize>) -> CellView {
        CellView {
            id,
            active: true,
            server,
            utilization: 0.9,
            predicted_gops: 50.0,
            prb_cap: None,
        }
    }

    fn view(cells: Vec<CellView>, load: f64) -> PoolView {
        PoolView {
            now: Duration::ZERO,
            cells,
            servers: vec![ServerView {
                id: 0,
                alive: true,
                drained: false,
                capacity_gops: 100.0,
                load_gops: load,
                cells: 1,
            }],
        }
    }

    #[test]
    fn caps_unplaced_cells_once() {
        let mut app = SpectrumApp::new(25, 0.5);
        let v = view(vec![cell(0, None), cell(1, Some(0))], 90.0);
        let first = app.on_epoch(&v);
        assert_eq!(first, vec![Action::CapPrbs { cell: 0, prbs: 25 }]);
        let second = app.on_epoch(&v);
        assert!(second.is_empty(), "must not re-cap");
        assert_eq!(app.capped(), &[0]);
    }

    #[test]
    fn uncaps_after_relaxation_and_placement() {
        let mut app = SpectrumApp::new(25, 0.5);
        let overload = view(vec![cell(0, None)], 90.0);
        app.on_epoch(&overload);
        // Cell placed but pool still hot → cap stays.
        let hot = view(vec![cell(0, Some(0))], 90.0);
        assert!(app.on_epoch(&hot).is_empty());
        // Pool cools → cap lifts.
        let cool = view(vec![cell(0, Some(0))], 20.0);
        assert_eq!(app.on_epoch(&cool), vec![Action::UncapPrbs { cell: 0 }]);
        assert!(app.capped().is_empty());
    }

    #[test]
    fn keeps_cap_while_unplaced_even_when_cool() {
        let mut app = SpectrumApp::new(25, 0.5);
        let v = view(vec![cell(0, None)], 90.0);
        app.on_epoch(&v);
        let cool_unplaced = view(vec![cell(0, None)], 10.0);
        assert!(app.on_epoch(&cool_unplaced).is_empty());
        assert_eq!(app.capped(), &[0]);
    }
}
