//! System-wide safety invariants, and the one checker and restore drill
//! that judge them.
//!
//! The checker owns a run's verdict: its caller feeds it controller
//! views with the physical server liveness beside them, failover
//! outages and restore results as a run unfolds, and it records a
//! [`Violation`] — plus a structured `chaos.violation` telemetry event —
//! whenever a bound of the system's [`SloPolicy`] — the same values the
//! online SLO monitor alerts on — is exceeded. Two tools share
//! it: the chaos harness ([`run_scenario`](crate::run_scenario)) at each
//! epoch boundary of a scenario, and `pran-mc`'s exhaustive explorer on
//! each transition of its abstract model, so a violation reads the same
//! in both. The five invariants are the paper's safety envelope:
//!
//! 1. **Placement validity** — every registered cell sits on a server
//!    that is alive in the controller's view *and* in truth;
//! 2. **Capacity** — no server is loaded beyond
//!    [`ServerSpec::fits`]'s tolerance;
//! 3. **Outage** — per-cell outage after a failure stays under
//!    [`SloPolicy::outage_p99_max`];
//! 4. **Miss ratio** — deadline misses among *executed* tasks stay under
//!    [`SloPolicy::miss_ratio_max`] (fronthaul-lost reports are a
//!    transport fault we injected on purpose and are accounted
//!    separately in `PoolMetrics::reports_lost`);
//! 5. **Restore fidelity** — restoring a snapshot reproduces the
//!    pre-snapshot view exactly ([`restore_drill`]), and a corrupted
//!    snapshot is rejected.

use std::cell::RefCell;
use std::time::Duration;

use pran::apps::FailoverApp;
use pran::{Controller, PoolView};
use pran_insight::SloPolicy;
use pran_sched::placement::ServerSpec;
use pran_sim::PoolMetrics;

/// Which safety invariant was violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A live cell is unplaced or sits on a dead server.
    PlacementValid,
    /// A server's predicted load exceeds its capacity tolerance.
    CapacityBound,
    /// A cell's failover outage exceeded the configured bound.
    OutageExceeded,
    /// The executed-task deadline-miss ratio exceeded the bound.
    MissRatioExceeded,
    /// Snapshot restore diverged from (or a corrupt snapshot slipped
    /// past) the controller's restore contract.
    RestoreFidelity,
}

impl InvariantKind {
    /// Stable label for telemetry fields and report tables.
    pub fn label(self) -> &'static str {
        match self {
            InvariantKind::PlacementValid => "placement_valid",
            InvariantKind::CapacityBound => "capacity_bound",
            InvariantKind::OutageExceeded => "outage_exceeded",
            InvariantKind::MissRatioExceeded => "miss_ratio_exceeded",
            InvariantKind::RestoreFidelity => "restore_fidelity",
        }
    }

    /// All invariant kinds, for report tables.
    pub fn all() -> [InvariantKind; 5] {
        [
            InvariantKind::PlacementValid,
            InvariantKind::CapacityBound,
            InvariantKind::OutageExceeded,
            InvariantKind::MissRatioExceeded,
            InvariantKind::RestoreFidelity,
        ]
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Simulated time of detection.
    pub at: Duration,
    /// Human-readable specifics (cell/server ids, measured vs bound).
    pub detail: String,
}

/// Evaluates the safety envelope over a run.
#[derive(Debug)]
pub struct InvariantChecker {
    bounds: SloPolicy,
    violations: Vec<Violation>,
}

impl InvariantChecker {
    /// A checker enforcing `bounds`' outage and miss-ratio limits.
    pub fn new(bounds: SloPolicy) -> Self {
        InvariantChecker {
            bounds,
            violations: Vec::new(),
        }
    }

    /// Record a violation its caller detected itself (conditions that
    /// don't fit one of the structured check methods, e.g. a failed
    /// restore drill).
    pub fn flag(&mut self, kind: InvariantKind, at: Duration, detail: String) {
        pran_telemetry::trace::sim_event(
            "chaos.violation",
            at.as_micros() as u64,
            &[("kind", kind.label().into())],
        );
        self.violations.push(Violation { kind, at, detail });
    }

    /// Epoch check: placement validity, every registered cell in cell
    /// order, then capacity from the view's loads, server by server.
    ///
    /// `truth[s]` is whether server `s` is physically up, which a stale
    /// view may not yet know. A cell on a server the view believes dead
    /// is plainly misplaced; one on a server only the view believes
    /// alive is the stale-view hazard, and says so.
    pub fn check_view(&mut self, at: Duration, view: &PoolView, truth: &[bool]) {
        for cell in view.cells.iter().filter(|c| c.active) {
            let detail = match cell.server {
                None => format!("cell {} unplaced at epoch check", cell.id),
                Some(s) if !view.servers[s].alive => {
                    format!("cell {} placed on dead server {s}", cell.id)
                }
                Some(s) if !truth[s] => {
                    format!("cell {} placed on dead server {s} (stale view)", cell.id)
                }
                Some(_) => continue,
            };
            self.flag(InvariantKind::PlacementValid, at, detail);
        }
        for server in &view.servers {
            let spec = ServerSpec::plain(server.id, server.capacity_gops, 1.0);
            if !spec.fits(server.load_gops) {
                self.flag(
                    InvariantKind::CapacityBound,
                    at,
                    format!(
                        "server {} loaded {:.1} GOPS over {:.1} GOPS capacity",
                        server.id, server.load_gops, server.capacity_gops
                    ),
                );
            }
        }
    }

    /// Per-cell outage check after a failover.
    pub fn check_outage(&mut self, at: Duration, cell: usize, outage: Duration) {
        if outage > self.bounds.outage_p99_max {
            self.flag(
                InvariantKind::OutageExceeded,
                at,
                format!(
                    "cell {cell} outage {:?} exceeds bound {:?}",
                    outage, self.bounds.outage_p99_max
                ),
            );
        }
    }

    /// End-of-run deadline-miss check over the data-plane metrics.
    pub fn check_miss_ratio(&mut self, at: Duration, metrics: &PoolMetrics) {
        let executed = metrics.tasks_total.saturating_sub(metrics.tasks_lost);
        if executed == 0 {
            return;
        }
        let ratio = metrics.deadline_misses as f64 / executed as f64;
        if ratio > self.bounds.miss_ratio_max {
            self.flag(
                InvariantKind::MissRatioExceeded,
                at,
                format!(
                    "executed-task miss ratio {ratio:.4} exceeds bound {:.4} \
                     ({} misses / {executed} executed)",
                    self.bounds.miss_ratio_max, metrics.deadline_misses
                ),
            );
        }
    }

    /// Violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Drain the violations recorded so far, in detection order; the
    /// checker keeps its buffer for the next check.
    pub fn take_violations(&mut self) -> std::vec::Drain<'_, Violation> {
        self.violations.drain(..)
    }
}

/// The restore drill: snapshot `ctl`, write the snapshot as JSON text,
/// read it back, restore it with `Controller::try_restore`, and require
/// the restored view to equal `ctl`'s. Hands back the restored
/// controller with [`FailoverApp`] reinstalled (apps are code, not
/// state), so a run can continue on it. The error names the step that
/// broke restore fidelity.
///
/// The text and the two views are written over buffers the calling
/// thread keeps from one drill to the next; the snapshot, the parse, the
/// restore and the comparison are the same either way.
pub fn restore_drill(ctl: &Controller) -> Result<Controller, String> {
    thread_local! {
        /// The JSON text, and the restored and the original views.
        static BUFFERS: RefCell<(String, PoolView, PoolView)> = RefCell::default();
    }
    BUFFERS.with_borrow_mut(|(json, restored_view, view)| {
        serde_json::to_string_into(&ctl.snapshot(), json)
            .map_err(|e| format!("snapshot failed to serialize: {e}"))?;
        let parsed =
            serde_json::from_str(json).map_err(|e| format!("snapshot failed to re-parse: {e}"))?;
        let mut restored = Controller::try_restore(parsed)
            .map_err(|e| format!("intact snapshot rejected: {e}"))?;
        restored.view_into(restored_view);
        ctl.view_into(view);
        if restored_view != view {
            return Err("restored view diverges from pre-snapshot view".to_string());
        }
        restored.install_app(Box::new(FailoverApp::new()));
        Ok(restored)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pran::SystemConfig;
    use pran_sim::FailoverTiming;

    fn live_view(servers: usize) -> (Controller, PoolView) {
        let mut c = Controller::new(SystemConfig::default_eval(servers));
        c.install_app(Box::new(FailoverApp::new()));
        for i in 0..4 {
            c.register_cell();
            c.report_load(i, 0.5).unwrap();
        }
        c.run_epoch(Duration::from_secs(60));
        let v = c.view();
        (c, v)
    }

    /// Check `view` against a truth that agrees with it.
    fn check(view: &PoolView) -> InvariantChecker {
        let truth: Vec<bool> = view.servers.iter().map(|s| s.alive).collect();
        let mut chk = InvariantChecker::new(SloPolicy::default_eval());
        chk.check_view(Duration::from_secs(60), view, &truth);
        chk
    }

    fn details(chk: &InvariantChecker) -> Vec<&str> {
        chk.violations().iter().map(|v| v.detail.as_str()).collect()
    }

    #[test]
    fn healthy_view_passes() {
        let (_c, view) = live_view(6);
        let chk = check(&view);
        assert!(chk.violations().is_empty(), "{:?}", chk.violations());
    }

    #[test]
    fn unplaced_cell_is_flagged() {
        let (_c, mut view) = live_view(6);
        view.cells[0].server = None;
        let chk = check(&view);
        assert_eq!(chk.violations().len(), 1);
        assert_eq!(chk.violations()[0].kind, InvariantKind::PlacementValid);
    }

    #[test]
    fn a_deregistered_cell_is_not_unplaced() {
        let (mut c, _) = live_view(6);
        c.deregister_cell(1).unwrap();
        let view = c.view();
        assert!(!view.cells[1].active);
        assert_eq!(view.cells[1].server, None);
        let chk = check(&view);
        assert!(chk.violations().is_empty(), "{:?}", chk.violations());
    }

    #[test]
    fn a_truth_dead_believed_alive_server_is_a_stale_view() {
        let (_c, view) = live_view(6);
        let s = view.cells[0].server.unwrap();
        let mut truth = vec![true; view.servers.len()];
        truth[s] = false;
        let mut chk = InvariantChecker::new(SloPolicy::default_eval());
        chk.check_view(Duration::from_secs(60), &view, &truth);
        let hosted = view.cells.iter().filter(|c| c.server == Some(s));
        let expected: Vec<String> = hosted
            .map(|c| format!("cell {} placed on dead server {s} (stale view)", c.id))
            .collect();
        assert_eq!(details(&chk), expected);
        assert!(chk
            .violations()
            .iter()
            .all(|v| v.kind == InvariantKind::PlacementValid));
    }

    #[test]
    fn a_believed_dead_server_gives_the_plain_string() {
        let (_c, mut view) = live_view(6);
        let s = view.cells[0].server.unwrap();
        view.servers[s].alive = false;
        // Dead in the view and in truth: the view is not stale.
        let chk = check(&view);
        let hosted = view.cells.iter().filter(|c| c.server == Some(s));
        let expected: Vec<String> = hosted
            .map(|c| format!("cell {} placed on dead server {s}", c.id))
            .collect();
        assert_eq!(details(&chk), expected);
    }

    #[test]
    fn overloaded_server_is_flagged() {
        let (_c, mut view) = live_view(6);
        let target = view.cells[0].server.unwrap();
        view.servers[target].load_gops = view.servers[target].capacity_gops * 1.5;
        let chk = check(&view);
        assert!(chk
            .violations()
            .iter()
            .any(|v| v.kind == InvariantKind::CapacityBound));
    }

    #[test]
    fn outage_bound_zero_flags_any_failover() {
        let mut bounds = SloPolicy::default_eval();
        bounds.outage_p99_max = Duration::ZERO;
        let outage = FailoverTiming::default_eval().outage();
        let mut chk = InvariantChecker::new(bounds);
        chk.check_outage(Duration::from_secs(1), 3, outage);
        assert_eq!(chk.violations()[0].kind, InvariantKind::OutageExceeded);
        // Draining empties the checker for the next check.
        assert_eq!(chk.take_violations().count(), 1);
        assert!(chk.violations().is_empty());
        // The default bound tolerates the standard failover.
        let mut chk = InvariantChecker::new(SloPolicy::default_eval());
        chk.check_outage(Duration::from_secs(1), 3, outage);
        assert!(chk.violations().is_empty());
    }

    #[test]
    fn miss_ratio_counts_executed_tasks_only() {
        let mut m = PoolMetrics {
            tasks_total: 1000,
            tasks_lost: 500,
            reports_lost: 500,
            deadline_misses: 4,
            ..Default::default()
        };
        let mut chk = InvariantChecker::new(SloPolicy::default_eval());
        // 4 / 500 = 0.008 < 0.01: transport loss alone must not trip it.
        chk.check_miss_ratio(Duration::from_secs(600), &m);
        assert!(chk.violations().is_empty());
        m.deadline_misses = 6; // 6 / 500 = 0.012 > 0.01
        chk.check_miss_ratio(Duration::from_secs(600), &m);
        assert_eq!(chk.violations()[0].kind, InvariantKind::MissRatioExceeded);
    }

    #[test]
    fn the_trace_validator_knows_every_invariant_kind() {
        // `pran-telemetry` keeps its own list of the kinds a
        // `chaos.violation` event may carry; a kind added here must be
        // added there too, or traces that report it fail validation.
        for kind in InvariantKind::all() {
            let line = format!(
                "{{\"ts_us\":0,\"domain\":\"sim\",\"name\":\"chaos.violation\",\
                 \"fields\":{{\"kind\":\"{}\"}}}}\n",
                kind.label()
            );
            assert_eq!(
                pran_telemetry::export::validate_jsonl(&line),
                Ok(1),
                "{}",
                kind.label()
            );
        }
    }

    #[test]
    fn restore_drill_hands_back_an_equal_controller() {
        let (mut c, view) = live_view(6);
        let mut restored = restore_drill(&c).unwrap();
        assert_eq!(restored.view(), view);
        // The failover app came back with it: both controllers answer a
        // crash the same way.
        let victim = view.cells[0].server.unwrap();
        let now = Duration::from_secs(90);
        let expected = c.server_failed(victim, now).unwrap();
        assert_eq!(restored.server_failed(victim, now).unwrap(), expected);
        assert!(expected.replaced > 0);
        assert_eq!(restored.view(), c.view());
    }
}
