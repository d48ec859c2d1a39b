//! View semantics and operation enumeration.
//!
//! The semantics knob is the experiment's independent variable: under
//! [`ViewSemantics::Linearizable`] the controller's belief tracks
//! physical truth atomically (every crash and recovery is delivered in
//! the same transition it happens); under [`ViewSemantics::Stale`] the
//! notification rides a FIFO queue and the controller keeps acting on a
//! view up to `k` transitions old. The explorer enumerates *every*
//! interleaving the semantics allows, so any schedule in which staleness
//! breaks an invariant is found, not sampled.

use crate::model::{McConfig, Model, Operation, StateView};

/// How the controller's liveness view relates to physical truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViewSemantics {
    /// Crash/recovery and its notification are one atomic transition.
    Linearizable,
    /// Notifications queue; a notice may stay undelivered for up to `k`
    /// transitions. Once the oldest notice reaches age `k`, delivery is
    /// *forced* (it becomes the only enabled operation), which bounds
    /// staleness exactly as an fd-timeout would.
    Stale {
        /// Maximum transitions a notice may remain undelivered.
        k: u32,
    },
}

impl ViewSemantics {
    /// Stable label for report tables and envelope sections.
    pub fn label(&self) -> String {
        match self {
            ViewSemantics::Linearizable => "linearizable".to_string(),
            ViewSemantics::Stale { k } => format!("stale_{k}"),
        }
    }
}

impl Model {
    /// Every operation enabled in `state` under the configured semantics.
    ///
    /// Gating rules, in order:
    /// * If the oldest pending notice has reached age `k`, delivery is
    ///   overdue: `Deliver` is the *only* enabled operation.
    /// * `Report` skips the cell's current level (a same-level report
    ///   changes neither `last` nor `peak` — a provable no-op on the
    ///   abstract state, so enumerating it only burns depth).
    /// * `Fail` respects [`McConfig::MAX_DOWN`]: the
    ///   envelope is only claimed inside the solvable regime.
    /// * `Drill` is always enabled; `Register` / `Deregister` churn only
    ///   when [`McConfig::churn_extra`] lets cells register.
    pub fn enabled_ops(&self, state: &StateView) -> Vec<Operation> {
        let mut ops = Vec::new();
        self.enabled_ops_into(state, &mut ops);
        ops
    }

    /// [`Model::enabled_ops`], written over `ops`'s buffer.
    pub fn enabled_ops_into(&self, state: &StateView, ops: &mut Vec<Operation>) {
        let cfg = self.config();
        ops.clear();
        if let ViewSemantics::Stale { k } = cfg.semantics {
            if let Some(front) = state.pending.front() {
                if front.age >= k {
                    ops.push(Operation::Deliver);
                    return;
                }
            }
        }
        for (cell, c) in state.cells.iter().enumerate() {
            if !c.active {
                continue;
            }
            for level in 0..cfg.levels.len() {
                if c.last == Some(level as u8) {
                    continue;
                }
                ops.push(Operation::Report { cell, level });
            }
        }
        ops.push(Operation::Epoch);
        let down = state.truth.iter().filter(|&&alive| !alive).count();
        for server in 0..state.truth.len() {
            if state.truth[server] {
                if down < McConfig::MAX_DOWN {
                    ops.push(Operation::Fail { server });
                }
            } else {
                ops.push(Operation::Recover { server });
            }
        }
        if matches!(cfg.semantics, ViewSemantics::Stale { .. }) && !state.pending.is_empty() {
            ops.push(Operation::Deliver);
        }
        ops.push(Operation::Drill);
        if cfg.churn_extra > 0 {
            if state.cells.len() < cfg.cells + cfg.churn_extra {
                ops.push(Operation::Register);
            }
            for (cell, c) in state.cells.iter().enumerate() {
                if c.active {
                    ops.push(Operation::Deregister { cell });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overdue_notice_forces_delivery() {
        let model = Model::new(McConfig::headline_stale(2));
        let mut state = model.initial_state();
        state = model.apply(&state, Operation::Fail { server: 0 }).next;
        // age 0: free choice.
        assert!(model.enabled_ops(&state).len() > 1);
        state = model.apply(&state, Operation::Epoch).next; // age 1
        assert!(model.enabled_ops(&state).len() > 1);
        state = model.apply(&state, Operation::Epoch).next; // age 2 = k
        assert_eq!(model.enabled_ops(&state), vec![Operation::Deliver]);
    }

    #[test]
    fn same_level_reports_are_not_enumerated() {
        let model = Model::new(McConfig::headline());
        let mut state = model.initial_state();
        let fresh = model.enabled_ops(&state);
        assert!(fresh.contains(&Operation::Report { cell: 0, level: 0 }));
        state = model
            .apply(&state, Operation::Report { cell: 0, level: 0 })
            .next;
        let after = model.enabled_ops(&state);
        assert!(!after.contains(&Operation::Report { cell: 0, level: 0 }));
        assert!(after.contains(&Operation::Report { cell: 0, level: 1 }));
    }

    #[test]
    fn fail_is_gated_by_max_down() {
        let model = Model::new(McConfig::headline()); // MAX_DOWN = 1
        let mut state = model.initial_state();
        assert!(model
            .enabled_ops(&state)
            .iter()
            .any(|op| matches!(op, Operation::Fail { .. })));
        state = model.apply(&state, Operation::Fail { server: 1 }).next;
        let ops = model.enabled_ops(&state);
        assert!(!ops.iter().any(|op| matches!(op, Operation::Fail { .. })));
        assert!(ops.contains(&Operation::Recover { server: 1 }));
    }

    #[test]
    fn churn_mix_caps_registrations() {
        let model = Model::new(McConfig::churn()); // 2 cells + 2 extra
        let mut state = model.initial_state();
        assert!(model.enabled_ops(&state).contains(&Operation::Register));
        state = model.apply(&state, Operation::Register).next;
        state = model.apply(&state, Operation::Register).next;
        assert!(!model.enabled_ops(&state).contains(&Operation::Register));
        assert!(model
            .enabled_ops(&state)
            .contains(&Operation::Deregister { cell: 0 }));
    }
}
