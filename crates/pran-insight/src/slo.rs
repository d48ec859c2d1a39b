//! Online SLO monitoring over the per-epoch metrics stream.
//!
//! A [`SloMonitor`] is the one judge of the [`SloPolicy`]: every driver
//! (`pran-sim`'s `PoolSimulator` and `ResidentMetro`, and the
//! controller) feeds it one [`EpochSample`] per placement epoch, and
//! [`SloMonitor::observe_epoch`] hands back the epoch's [`EpochVerdict`]:
//!
//! - edge-triggered threshold [`Alert`]s, one when a metric crosses its
//!   threshold, each emitted as an `insight.alert` telemetry event;
//! - the miss-ratio error budget's burn state, SRE-style, over multiple
//!   windows and burn rates: a fast window confirms the budget is
//!   burning *now*, a slow window confirms the burn is sustained, and the
//!   two factors map to [`BurnSeverity::Page`] / [`BurnSeverity::Ticket`]
//!   (each [`BurnAlert`] is emitted as an `insight.burn_alert` event).
//!   Because both windows must exceed a factor > 1, any burn alert
//!   implies at least one epoch breached the objective: burn alerts are
//!   structurally precise against the per-epoch `violation` flag;
//! - the level `violation` flag: the epoch's miss ratio or unplaced
//!   cells past their bounds, whatever the alert state.
//!
//! SLO breaches so flow through the same telemetry substrate as
//! `chaos.violation` invariants and land in the same JSONL artifacts.

use std::time::Duration;

use pran_telemetry::trace;
use serde::{Deserialize, Serialize};

/// The service-level objectives the monitor watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SloMetric {
    /// Deadline-miss ratio (missed + lost over total subframe tasks).
    MissRatio,
    /// Pool utilization: placed demand over alive capacity.
    PoolUtilization,
    /// 99th-percentile per-cell outage after failovers.
    OutageP99,
    /// Uplink reports lost to fronthaul faults in one epoch.
    ReportsLost,
    /// Cells the placement left unserved.
    Unplaced,
}

impl SloMetric {
    /// Stable label used in `insight.alert` events and reports.
    pub fn label(self) -> &'static str {
        match self {
            SloMetric::MissRatio => "miss_ratio",
            SloMetric::PoolUtilization => "pool_utilization",
            SloMetric::OutageP99 => "outage_p99_us",
            SloMetric::ReportsLost => "reports_lost",
            SloMetric::Unplaced => "unplaced",
        }
    }

    /// All monitored metrics, in a stable order.
    pub fn all() -> [SloMetric; 5] {
        [
            SloMetric::MissRatio,
            SloMetric::PoolUtilization,
            SloMetric::OutageP99,
            SloMetric::ReportsLost,
            SloMetric::Unplaced,
        ]
    }

    /// Position in [`SloMetric::all`]: the metric's bit in an alert mask.
    pub fn index(self) -> usize {
        match self {
            SloMetric::MissRatio => 0,
            SloMetric::PoolUtilization => 1,
            SloMetric::OutageP99 => 2,
            SloMetric::ReportsLost => 3,
            SloMetric::Unplaced => 4,
        }
    }
}

/// Per-metric alert thresholds and their hysteresis band. The burn-rate
/// windows and factors are [`SloMonitor`]'s constants
/// ([`SloMonitor::FAST_EPOCHS`] and the three after it).
///
/// This is the one safety envelope: `pran-chaos`'s invariant checker
/// judges its outage and miss-ratio bounds too (`outage_p99_max`,
/// `miss_ratio_max`), so the online monitor and the post-hoc chaos
/// invariants agree about what "unhealthy" means. A new bound belongs
/// here.
///
/// Configs serialized before the hysteresis ratios existed still read,
/// absent ratios being 1.0; the keys older versions wrote (the smoothing
/// factor, the four burn-rate knobs) are skipped as unknown keys.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloPolicy {
    /// Maximum tolerated deadline-miss ratio.
    pub miss_ratio_max: f64,
    /// Maximum tolerated pool utilization (headroom exhaustion).
    pub utilization_max: f64,
    /// Maximum tolerated p99 failover outage.
    pub outage_p99_max: Duration,
    /// Maximum tolerated lost uplink reports per epoch.
    pub reports_lost_max: u64,
    /// Maximum tolerated unplaced cells per epoch.
    pub unplaced_max: u64,
    /// Trigger sensitivity: a metric enters breach when its value
    /// exceeds `threshold × trigger_ratio`. 1.0 (the default, and what
    /// older serialized configs decode to) keeps the pre-hysteresis
    /// behavior.
    #[serde(default = "unit_ratio")]
    pub trigger_ratio: f64,
    /// Clear sensitivity: a breached metric re-arms only once its value
    /// drops to `threshold × clear_ratio` or below. Set below
    /// `trigger_ratio` for hysteresis (fewer flapping re-alerts); 1.0
    /// (default) clears at the plain threshold.
    #[serde(default = "unit_ratio")]
    pub clear_ratio: f64,
}

/// The default trigger and clear ratio: the plain threshold.
fn unit_ratio() -> f64 {
    1.0
}

impl SloPolicy {
    /// Evaluation defaults: 1 % miss ratio, 95 % utilization, 200 ms p99
    /// outage (four times the 50 ms default failover price), zero lost
    /// reports, zero unplaced cells.
    pub fn default_eval() -> Self {
        SloPolicy {
            miss_ratio_max: 0.01,
            utilization_max: 0.95,
            outage_p99_max: Duration::from_millis(200),
            reports_lost_max: 0,
            unplaced_max: 0,
            trigger_ratio: unit_ratio(),
            clear_ratio: unit_ratio(),
        }
    }

    /// The threshold for one metric, in that metric's alert units
    /// (durations in microseconds).
    pub fn threshold(&self, metric: SloMetric) -> f64 {
        match metric {
            SloMetric::MissRatio => self.miss_ratio_max,
            SloMetric::PoolUtilization => self.utilization_max,
            SloMetric::OutageP99 => self.outage_p99_max.as_micros() as f64,
            SloMetric::ReportsLost => self.reports_lost_max as f64,
            SloMetric::Unplaced => self.unplaced_max as f64,
        }
    }
}

impl Default for SloPolicy {
    fn default() -> Self {
        Self::default_eval()
    }
}

/// One epoch's observations: the epoch's own values, except the outage
/// p99, which covers the run so far. `None` fields are skipped (their
/// breach state carries over unchanged; no miss ratio, no burn fold).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochSample {
    /// Epoch index, 0-based: a driver's first epoch is epoch 0.
    pub epoch: u64,
    /// Sim-clock timestamp of the observation.
    pub at_us: u64,
    /// The epoch's deadline-miss ratio (missed + lost over its tasks).
    pub miss_ratio: Option<f64>,
    /// Pool utilization in `[0, 1+]` after the epoch's placement.
    pub utilization: Option<f64>,
    /// p99 failover outage over the run so far (absent until a failover
    /// happened).
    pub outage_p99: Option<Duration>,
    /// Uplink reports lost this epoch.
    pub reports_lost: Option<u64>,
    /// Cells the epoch's placement left unserved.
    pub unplaced: Option<u64>,
}

/// A raised SLO alert: the metric, when, and the value that crossed
/// the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// Which objective was breached.
    pub metric: SloMetric,
    /// Epoch of the breaching observation.
    pub epoch: u64,
    /// Sim-clock timestamp of the breaching observation.
    pub at_us: u64,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The policy threshold it crossed.
    pub threshold: f64,
}

/// Alert severity of a burn-rate rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BurnSeverity {
    /// Sustained burn above the ticket factor: open a ticket.
    Ticket,
    /// Burn fast enough to exhaust the budget imminently: page.
    Page,
}

impl BurnSeverity {
    /// Stable label for events and endpoints.
    pub fn label(self) -> &'static str {
        match self {
            BurnSeverity::Ticket => "ticket",
            BurnSeverity::Page => "page",
        }
    }

    /// Numeric code for compact records (0 = none, 1 = ticket,
    /// 2 = page).
    pub fn code(self) -> u32 {
        match self {
            BurnSeverity::Ticket => 1,
            BurnSeverity::Page => 2,
        }
    }

    /// The severity a [`code`](Self::code) names (`None` for 0).
    pub fn from_code(code: u32) -> Option<Self> {
        [BurnSeverity::Ticket, BurnSeverity::Page]
            .into_iter()
            .find(|s| s.code() == code)
    }
}

/// The burn-rate state after one observation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BurnState {
    /// Error-budget burn rate over the fast window (1.0 = burning at
    /// exactly the sustainable rate).
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// Whether the page rule is currently firing.
    pub page: bool,
    /// Whether the ticket rule is currently firing.
    pub ticket: bool,
}

impl BurnState {
    /// Highest firing severity as a compact code (0 / 1 / 2).
    pub fn severity_code(&self) -> u32 {
        if self.page {
            BurnSeverity::Page.code()
        } else if self.ticket {
            BurnSeverity::Ticket.code()
        } else {
            0
        }
    }
}

/// One edge-triggered burn-rate alert.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurnAlert {
    /// Severity of the rule that fired.
    pub severity: BurnSeverity,
    /// Epoch of the firing observation.
    pub epoch: u64,
    /// Sim-clock timestamp of the firing observation.
    pub at_us: u64,
    /// Fast-window burn at the firing instant.
    pub burn_fast: f64,
    /// Slow-window burn at the firing instant.
    pub burn_slow: f64,
    /// The factor both windows exceeded.
    pub factor: f64,
}

/// What [`SloMonitor::observe_epoch`] judged of one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochVerdict {
    /// Threshold alerts the epoch raised: the last `alerts` entries of
    /// [`SloMonitor::alerts`].
    pub alerts: usize,
    /// The burn state after the epoch (`None` when the sample carried no
    /// miss ratio).
    pub burn: Option<BurnState>,
    /// The burn alert the epoch raised, if a rule started firing (the
    /// highest newly firing severity).
    pub burn_alert: Option<BurnAlert>,
    /// The epoch's miss ratio or unplaced cells are past their policy
    /// bounds: a level, unlike the edge-triggered alerts.
    pub violation: bool,
}

/// The online SLO monitor: the threshold rule, the burn-rate rule and the
/// violation check over one [`EpochSample`] stream (see the module docs).
///
/// Threshold alerts are edge-triggered — one alert when a metric crosses
/// its threshold, nothing while it stays in breach, and the trigger
/// re-arms once the metric recovers — so a run's alert list has one
/// entry per distinct incident, not one per epoch.
///
/// The burn-rate rule's error budget is the policy's `miss_ratio_max`
/// per epoch; the *burn rate* of a window is its mean miss ratio divided
/// by that objective. A rule fires when **both** the fast and the slow
/// window burn at or above its factor — the fast window keeps alerts from
/// firing long after the incident ended, the slow window keeps one-epoch
/// blips from paging. Windows are fixed-length and zero-filled before
/// enough epochs have been observed. Burn alerts are edge-triggered per
/// severity.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    policy: SloPolicy,
    breached: [bool; 5],
    alerts: Vec<Alert>,
    epochs: u64,
    /// Ring of the last [`Self::SLOW_EPOCHS`] epoch miss ratios
    /// (zero-filled), allocated on the first miss ratio fed: a monitor
    /// that is never fed one (the controller's) clones without it.
    ring: Vec<f64>,
    head: usize,
    page_firing: bool,
    ticket_firing: bool,
}

impl SloMonitor {
    /// Fast window in epochs: confirms the budget is *currently* burning.
    pub const FAST_EPOCHS: usize = 5;
    /// Slow window in epochs: confirms the burn is sustained rather than
    /// a one-epoch blip.
    pub const SLOW_EPOCHS: usize = 60;
    /// Page severity fires when both windows burn the error budget at
    /// ≥ this multiple of the sustainable rate (the objective per epoch).
    pub const PAGE_FACTOR: f64 = 10.0;
    /// Ticket severity fires when both windows burn at ≥ this multiple.
    /// Strictly above 1.0: with both windows required, any alert then
    /// implies at least one epoch exceeded the objective, which is what
    /// makes burn-rate alert precision structural.
    pub const TICKET_FACTOR: f64 = 2.0;

    /// New monitor enforcing `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        SloMonitor {
            policy,
            breached: [false; 5],
            alerts: Vec::new(),
            epochs: 0,
            ring: Vec::new(),
            head: 0,
            page_firing: false,
            ticket_firing: false,
        }
    }

    /// The policy being enforced.
    pub fn policy(&self) -> &SloPolicy {
        &self.policy
    }

    /// Epochs observed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// All alerts raised so far, in observation order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Drain the alert list (breach state is kept).
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }

    /// Whether a metric is currently past its threshold.
    pub fn in_breach(&self, metric: SloMetric) -> bool {
        self.breached[metric.index()]
    }

    /// Judge one epoch: fold its observations into the threshold rule,
    /// its miss ratio (if any) into the burn-rate rule, and check it
    /// against the safety bounds. Each alert is also emitted as an
    /// `insight.alert` / `insight.burn_alert` telemetry event (sim
    /// domain, stamped `sample.at_us`) when tracing is enabled.
    /// Allocation-free once the burn ring exists, while no alert fires.
    pub fn observe_epoch(&mut self, sample: &EpochSample) -> EpochVerdict {
        self.epochs += 1;
        let before = self.alerts.len();
        let observations = [
            (SloMetric::MissRatio, sample.miss_ratio),
            (SloMetric::PoolUtilization, sample.utilization),
            (
                SloMetric::OutageP99,
                sample.outage_p99.map(|d| d.as_micros() as f64),
            ),
            (
                SloMetric::ReportsLost,
                sample.reports_lost.map(|n| n as f64),
            ),
            (SloMetric::Unplaced, sample.unplaced.map(|n| n as f64)),
        ];
        for (metric, value) in observations {
            let Some(value) = value else { continue };
            self.observe_value(metric, sample.epoch, sample.at_us, value);
        }
        let burn = self.burn(sample);
        let p = &self.policy;
        EpochVerdict {
            alerts: self.alerts.len() - before,
            burn: burn.map(|(state, _)| state),
            burn_alert: burn.and_then(|(_, alert)| alert),
            violation: sample.miss_ratio.is_some_and(|r| r > p.miss_ratio_max)
                || sample.unplaced.is_some_and(|n| n > p.unplaced_max),
        }
    }

    fn observe_value(&mut self, metric: SloMetric, epoch: u64, at_us: u64, value: f64) {
        let slot = metric.index();
        let base = self.policy.threshold(metric);
        // Hysteresis band: breach past `base × trigger_ratio`, re-arm only
        // at or below `base × clear_ratio` (both 1.0 by default, which is
        // the plain edge-triggered behavior).
        let threshold = base * self.policy.trigger_ratio;
        let breach = if self.breached[slot] {
            value > base * self.policy.clear_ratio
        } else {
            value > threshold
        };
        if breach && !self.breached[slot] {
            let alert = Alert {
                metric,
                epoch,
                at_us,
                value,
                threshold,
            };
            self.alerts.push(alert);
            if trace::enabled() {
                trace::sim_event(
                    "insight.alert",
                    at_us,
                    &[
                        ("metric", metric.label().into()),
                        ("epoch", epoch.into()),
                        ("value", value.into()),
                        ("threshold", threshold.into()),
                    ],
                );
            }
        }
        self.breached[slot] = breach;
    }

    fn window_mean(&self, len: usize) -> f64 {
        let mut sum = 0.0;
        for i in 0..len {
            let idx = (self.head + self.ring.len() - 1 - i) % self.ring.len();
            sum += self.ring[idx];
        }
        sum / len as f64
    }

    /// Fold the sample's miss ratio, if any, into the burn windows;
    /// returns the new state plus an edge-triggered alert if a rule
    /// started firing.
    fn burn(&mut self, sample: &EpochSample) -> Option<(BurnState, Option<BurnAlert>)> {
        let (ratio, epoch, at_us) = (sample.miss_ratio?, sample.epoch, sample.at_us);
        if self.ring.is_empty() {
            self.ring = vec![0.0; Self::SLOW_EPOCHS];
        }
        self.ring[self.head] = ratio.max(0.0);
        self.head = (self.head + 1) % self.ring.len();
        let objective = self.policy.miss_ratio_max.max(f64::EPSILON);
        let burn_fast = self.window_mean(Self::FAST_EPOCHS) / objective;
        let burn_slow = self.window_mean(Self::SLOW_EPOCHS) / objective;
        let page = burn_fast >= Self::PAGE_FACTOR && burn_slow >= Self::PAGE_FACTOR;
        let ticket = burn_fast >= Self::TICKET_FACTOR && burn_slow >= Self::TICKET_FACTOR;
        let fired = if page && !self.page_firing {
            Some((BurnSeverity::Page, Self::PAGE_FACTOR))
        } else if ticket && !self.ticket_firing {
            Some((BurnSeverity::Ticket, Self::TICKET_FACTOR))
        } else {
            None
        };
        self.page_firing = page;
        self.ticket_firing = ticket;
        let state = BurnState {
            burn_fast,
            burn_slow,
            page,
            ticket,
        };
        let alert = fired.map(|(severity, factor)| {
            if trace::enabled() {
                trace::sim_event(
                    "insight.burn_alert",
                    at_us,
                    &[
                        ("severity", severity.label().into()),
                        ("epoch", epoch.into()),
                        ("burn_fast", burn_fast.into()),
                        ("burn_slow", burn_slow.into()),
                        ("factor", factor.into()),
                    ],
                );
            }
            BurnAlert {
                severity,
                epoch,
                at_us,
                burn_fast,
                burn_slow,
                factor,
            }
        });
        Some((state, alert))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(epoch: u64) -> EpochSample {
        EpochSample {
            epoch,
            at_us: epoch * 1000,
            miss_ratio: Some(0.0),
            utilization: Some(0.5),
            outage_p99: None,
            reports_lost: Some(0),
            unplaced: Some(0),
        }
    }

    #[test]
    fn quiet_stream_raises_nothing() {
        let mut m = SloMonitor::new(SloPolicy::default_eval());
        for e in 0..20 {
            assert_eq!(m.observe_epoch(&quiet(e)).alerts, 0);
        }
        assert!(m.alerts().is_empty());
        assert_eq!(m.epochs(), 20);
        assert!(!m.in_breach(SloMetric::MissRatio));
    }

    #[test]
    fn breach_is_edge_triggered_and_rearms() {
        let mut m = SloMonitor::new(SloPolicy::default_eval());
        m.observe_epoch(&quiet(0));
        let mut bad = quiet(1);
        bad.miss_ratio = Some(0.05);
        assert_eq!(m.observe_epoch(&bad).alerts, 1);
        assert!(m.in_breach(SloMetric::MissRatio));
        // Still in breach: no duplicate alert.
        bad.epoch = 2;
        assert_eq!(m.observe_epoch(&bad).alerts, 0);
        // Recovers, then breaches again: a second alert.
        m.observe_epoch(&quiet(3));
        assert!(!m.in_breach(SloMetric::MissRatio));
        bad.epoch = 4;
        assert_eq!(m.observe_epoch(&bad).alerts, 1);
        let alerts = m.alerts();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].metric, SloMetric::MissRatio);
        assert_eq!(alerts[0].epoch, 1);
        assert_eq!(alerts[1].epoch, 4);
        assert!((alerts[0].value - 0.05).abs() < 1e-12);
        assert!((alerts[0].threshold - 0.01).abs() < 1e-12);
    }

    #[test]
    fn absent_fields_are_skipped() {
        let mut m = SloMonitor::new(SloPolicy::default_eval());
        let breach = EpochSample {
            epoch: 0,
            at_us: 0,
            miss_ratio: Some(0.05),
            ..EpochSample::default()
        };
        assert_eq!(m.observe_epoch(&breach).alerts, 1);
        let empty = EpochSample {
            epoch: 1,
            at_us: 1000,
            ..EpochSample::default()
        };
        assert_eq!(m.observe_epoch(&empty).alerts, 0);
        assert!(
            m.in_breach(SloMetric::MissRatio),
            "an absent value leaves its breach state alone"
        );
        assert!(!m.in_breach(SloMetric::OutageP99));
    }

    #[test]
    fn outage_and_counts_alert_in_their_units() {
        let mut m = SloMonitor::new(SloPolicy::default_eval());
        let sample = EpochSample {
            epoch: 3,
            at_us: 3000,
            outage_p99: Some(Duration::from_millis(500)),
            reports_lost: Some(2),
            unplaced: Some(1),
            ..EpochSample::default()
        };
        assert_eq!(m.observe_epoch(&sample).alerts, 3);
        let metrics: Vec<SloMetric> = m.alerts().iter().map(|a| a.metric).collect();
        assert!(metrics.contains(&SloMetric::OutageP99));
        assert!(metrics.contains(&SloMetric::ReportsLost));
        assert!(metrics.contains(&SloMetric::Unplaced));
        let outage = m
            .alerts()
            .iter()
            .find(|a| a.metric == SloMetric::OutageP99)
            .unwrap();
        assert!((outage.value - 500_000.0).abs() < 1e-9);
        assert!((outage.threshold - 200_000.0).abs() < 1e-9);
        assert_eq!(m.take_alerts().len(), 3);
        assert!(m.alerts().is_empty());
    }

    #[test]
    fn policy_serde_roundtrips() {
        let p = SloPolicy::default_eval();
        let json = serde_json::to_string(&p).unwrap();
        let back: SloPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn policy_without_hysteresis_fields_still_parses() {
        // Configs serialized before trigger/clear ratios existed must
        // decode to the plain edge-triggered behavior (both 1.0); their
        // smoothing factor is no longer read.
        let json = r#"{
            "miss_ratio_max": 0.02,
            "utilization_max": 0.9,
            "outage_p99_max": {"secs": 0, "nanos": 200000000},
            "reports_lost_max": 0,
            "unplaced_max": 0,
            "ewma_alpha": 0.3
        }"#;
        let p: SloPolicy = serde_json::from_str(json).unwrap();
        assert_eq!(p.trigger_ratio, 1.0);
        assert_eq!(p.clear_ratio, 1.0);
        assert!((p.miss_ratio_max - 0.02).abs() < 1e-12);
    }

    #[test]
    fn hysteresis_band_suppresses_flapping_realerts() {
        // trigger at 2× threshold (0.02), clear at 0.5× (0.005): values
        // oscillating between 0.008 and 0.03 alert once, not per epoch.
        let mut m = SloMonitor::new(SloPolicy {
            trigger_ratio: 2.0,
            clear_ratio: 0.5,
            ..SloPolicy::default_eval()
        });
        let with_miss = |epoch: u64, miss: f64| EpochSample {
            miss_ratio: Some(miss),
            ..quiet(epoch)
        };
        // Above base threshold but below the trigger: no breach.
        assert_eq!(m.observe_epoch(&with_miss(0, 0.015)).alerts, 0);
        assert!(!m.in_breach(SloMetric::MissRatio));
        // Past the trigger: one alert, reporting the effective trigger.
        assert_eq!(m.observe_epoch(&with_miss(1, 0.03)).alerts, 1);
        assert!((m.alerts()[0].threshold - 0.02).abs() < 1e-12);
        // Dips below base threshold but above clear: still in breach,
        // so the rebound to 0.03 does not re-alert.
        assert_eq!(m.observe_epoch(&with_miss(2, 0.008)).alerts, 0);
        assert!(m.in_breach(SloMetric::MissRatio));
        assert_eq!(m.observe_epoch(&with_miss(3, 0.03)).alerts, 0);
        // Drops to the clear line: re-arms, next excursion re-alerts.
        assert_eq!(m.observe_epoch(&with_miss(4, 0.005)).alerts, 0);
        assert!(!m.in_breach(SloMetric::MissRatio));
        assert_eq!(m.observe_epoch(&with_miss(5, 0.03)).alerts, 1);
        assert_eq!(m.alerts().len(), 2);
    }

    /// The burn tests' feed: one epoch carrying only a miss ratio.
    trait Burn {
        fn observe(&mut self, epoch: u64, at_us: u64, miss: f64) -> (BurnState, Option<BurnAlert>);
        fn objective(&self) -> f64;
    }

    impl Burn for SloMonitor {
        fn observe(&mut self, epoch: u64, at_us: u64, miss: f64) -> (BurnState, Option<BurnAlert>) {
            let verdict = self.observe_epoch(&EpochSample {
                epoch,
                at_us,
                miss_ratio: Some(miss),
                ..EpochSample::default()
            });
            (
                verdict.burn.expect("a miss ratio was fed"),
                verdict.burn_alert,
            )
        }

        fn objective(&self) -> f64 {
            self.policy().miss_ratio_max
        }
    }

    #[test]
    fn burn_rules_fire_on_sustained_breach_only() {
        // objective 0.01, fast 5, slow 60, page 10×, ticket 2×.
        let mut b = SloMonitor::new(SloPolicy::default_eval());
        // 40 healthy epochs: nothing fires.
        for e in 0..40 {
            let (state, alert) = b.observe(e, e * 1000, 0.0);
            assert!(alert.is_none());
            assert_eq!(state.severity_code(), 0);
        }
        // A one-epoch blip at 3%: violates the objective but neither
        // window sustains it — no alert (that's the point of the slow
        // window).
        let (state, alert) = b.observe(40, 40_000, 0.03);
        assert!(alert.is_none(), "single blip must not page: {state:?}");
        for e in 41..46 {
            assert!(b.observe(e, e * 1000, 0.0).1.is_none());
        }
        // A sustained 40% miss ratio (a killed shard): ticket within a
        // few epochs, page as the slow window accumulates.
        let mut ticket_at = None;
        let mut page_at = None;
        for e in 46..80 {
            let (_, alert) = b.observe(e, e * 1000, 0.4);
            match alert.map(|a| a.severity) {
                Some(BurnSeverity::Ticket) => ticket_at.get_or_insert(e),
                Some(BurnSeverity::Page) => page_at.get_or_insert(e),
                None => continue,
            };
        }
        let ticket_at = ticket_at.expect("sustained breach must ticket");
        let page_at = page_at.expect("sustained breach must page");
        assert!(
            ticket_at < page_at,
            "ticket ({ticket_at}) precedes page ({page_at})"
        );
        assert!(
            ticket_at <= 49,
            "ticket within a few epochs, got {ticket_at}"
        );
    }

    #[test]
    fn burn_alerts_are_edge_triggered_and_precise() {
        let mut b = SloMonitor::new(SloPolicy::default_eval());
        let mut alerts = 0;
        for e in 0..20 {
            if b.observe(e, 0, 0.5).1.is_some() {
                alerts += 1;
            }
        }
        // One ticket edge (epoch 2) + one page edge (epoch 11, once the
        // slow window's mean reaches 10×), not one per epoch.
        assert_eq!(alerts, 2);
        // Precision structure: error ratios that never exceed the
        // objective can never alert (burn ≤ 1 < ticket factor).
        let mut quiet = SloMonitor::new(SloPolicy::default_eval());
        for e in 0..200 {
            let (state, alert) = quiet.observe(e, 0, 0.009);
            assert!(alert.is_none());
            assert!(state.burn_fast <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn policy_wiring_and_recovery_rearm() {
        let policy = SloPolicy::default_eval();
        let mut b = SloMonitor::new(policy);
        assert!((b.objective() - 0.01).abs() < 1e-12);
        // Breach → recover → breach again re-alerts (edge per incident).
        let mut edges = 0;
        for e in 0..10 {
            if b.observe(e, 0, 0.5).1.is_some() {
                edges += 1;
            }
        }
        for e in 10..80 {
            assert!(b.observe(e, 0, 0.0).1.is_none());
        }
        for e in 80..90 {
            if b.observe(e, 0, 0.5).1.is_some() {
                edges += 1;
            }
        }
        assert!(edges >= 2, "recovered incident must re-alert, got {edges}");
    }

    #[test]
    fn violation_is_a_level_and_burn_needs_a_miss_ratio() {
        let mut m = SloMonitor::new(SloPolicy::default_eval());
        let mut bad = quiet(0);
        bad.miss_ratio = Some(0.05);
        // Alerts are edges, the violation a level: the second epoch in
        // breach alerts nothing but still violates.
        for (epoch, alerts) in [(0, 1), (1, 0)] {
            bad.epoch = epoch;
            let verdict = m.observe_epoch(&bad);
            assert_eq!(verdict.alerts, alerts);
            assert!(verdict.violation);
            assert!(verdict.burn.is_some());
        }
        assert!(!m.observe_epoch(&quiet(2)).violation);
        let unplaced = EpochSample {
            unplaced: Some(1),
            ..quiet(3)
        };
        assert!(m.observe_epoch(&unplaced).violation);
        // The controller's feed carries no miss ratio: no burn state,
        // and no ring is allocated for it.
        let mut ctl = SloMonitor::new(SloPolicy::default_eval());
        let verdict = ctl.observe_epoch(&EpochSample {
            utilization: Some(0.5),
            unplaced: Some(0),
            ..EpochSample::default()
        });
        assert_eq!(verdict, EpochVerdict::default());
        assert_eq!(ctl.ring.capacity(), 0);
    }
}
