//! Online SLO monitoring over the per-epoch metrics stream.
//!
//! A [`SloMonitor`] consumes one [`EpochSample`] per placement epoch —
//! fed directly by `pran-sim::pool` and the controller — and raises
//! edge-triggered [`Alert`]s when an observed value crosses its
//! [`SloPolicy`] threshold. Every alert is also emitted as a structured
//! `insight.alert` telemetry event, so SLO breaches flow through the same
//! substrate as `chaos.violation` invariants and land in the same JSONL
//! artifacts.

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
    /// Uplink reports lost to fronthaul faults (cumulative).
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

    fn index(self) -> usize {
        match self {
            SloMetric::MissRatio => 0,
            SloMetric::PoolUtilization => 1,
            SloMetric::OutageP99 => 2,
            SloMetric::ReportsLost => 3,
            SloMetric::Unplaced => 4,
        }
    }
}

/// Per-metric alert thresholds, their hysteresis band, and the burn-rate
/// windows.
///
/// This is the one safety envelope: `pran-chaos`'s invariant checker
/// judges its outage and miss-ratio bounds too (`outage_p99_max`,
/// `miss_ratio_max`), so the online monitor and the post-hoc chaos
/// invariants agree about what "unhealthy" means. A new bound belongs
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SloPolicy {
    /// Maximum tolerated deadline-miss ratio.
    pub miss_ratio_max: f64,
    /// Maximum tolerated pool utilization (headroom exhaustion).
    pub utilization_max: f64,
    /// Maximum tolerated p99 failover outage.
    pub outage_p99_max: Duration,
    /// Maximum tolerated lost uplink reports over a run.
    pub reports_lost_max: u64,
    /// Maximum tolerated unplaced cells per epoch.
    pub unplaced_max: u64,
    /// Trigger sensitivity: a metric enters breach when its value
    /// exceeds `threshold × trigger_ratio`. 1.0 (the default, and what
    /// older serialized configs decode to) keeps the pre-hysteresis
    /// behavior.
    pub trigger_ratio: f64,
    /// Clear sensitivity: a breached metric re-arms only once its value
    /// drops to `threshold × clear_ratio` or below. Set below
    /// `trigger_ratio` for hysteresis (fewer flapping re-alerts); 1.0
    /// (default) clears at the plain threshold.
    pub clear_ratio: f64,
    /// Fast burn-rate window in epochs (see
    /// [`BurnRateAlerter`](crate::live::BurnRateAlerter)): the short
    /// window that confirms the budget is *currently* burning.
    pub burn_fast_epochs: u64,
    /// Slow burn-rate window in epochs: the long window that confirms
    /// the burn is sustained rather than a one-epoch blip.
    pub burn_slow_epochs: u64,
    /// Page severity fires when both windows burn the error budget at
    /// ≥ this multiple of the sustainable rate (`miss_ratio_max` per
    /// epoch).
    pub burn_page_factor: f64,
    /// Ticket severity fires when both windows burn at ≥ this multiple.
    /// Keep strictly above 1.0: with both windows required, any alert
    /// then implies at least one epoch exceeded `miss_ratio_max`, which
    /// is what makes burn-rate alert precision structural.
    pub burn_ticket_factor: f64,
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
            trigger_ratio: 1.0,
            clear_ratio: 1.0,
            burn_fast_epochs: 5,
            burn_slow_epochs: 60,
            burn_page_factor: 10.0,
            burn_ticket_factor: 2.0,
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

/// [`SloPolicy`] as it is read: configs serialized before the
/// hysteresis ratios (or the burn-rate windows) existed still parse,
/// absent fields being their [`SloPolicy::default_eval`] values, and the
/// smoothing factor older versions wrote is skipped as an unknown key.
#[derive(Deserialize)]
struct SloPolicyWire {
    miss_ratio_max: f64,
    utilization_max: f64,
    outage_p99_max: Duration,
    reports_lost_max: u64,
    unplaced_max: u64,
    trigger_ratio: Option<f64>,
    clear_ratio: Option<f64>,
    burn_fast_epochs: Option<u64>,
    burn_slow_epochs: Option<u64>,
    burn_page_factor: Option<f64>,
    burn_ticket_factor: Option<f64>,
}

impl Deserialize for SloPolicy {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let wire = SloPolicyWire::read(r)?;
        let default = SloPolicy::default_eval();
        Ok(SloPolicy {
            miss_ratio_max: wire.miss_ratio_max,
            utilization_max: wire.utilization_max,
            outage_p99_max: wire.outage_p99_max,
            reports_lost_max: wire.reports_lost_max,
            unplaced_max: wire.unplaced_max,
            trigger_ratio: wire.trigger_ratio.unwrap_or(default.trigger_ratio),
            clear_ratio: wire.clear_ratio.unwrap_or(default.clear_ratio),
            burn_fast_epochs: wire.burn_fast_epochs.unwrap_or(default.burn_fast_epochs),
            burn_slow_epochs: wire.burn_slow_epochs.unwrap_or(default.burn_slow_epochs),
            burn_page_factor: wire.burn_page_factor.unwrap_or(default.burn_page_factor),
            burn_ticket_factor: wire
                .burn_ticket_factor
                .unwrap_or(default.burn_ticket_factor),
        })
    }
}

/// One epoch's worth of observations; `None` fields are skipped (their
/// breach state carries over unchanged).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochSample {
    /// Epoch index.
    pub epoch: u64,
    /// Sim-clock timestamp of the observation.
    pub at_us: u64,
    /// Cumulative deadline-miss ratio.
    pub miss_ratio: Option<f64>,
    /// Pool utilization in `[0, 1+]`.
    pub utilization: Option<f64>,
    /// p99 failover outage so far (absent until a failover happened).
    pub outage_p99: Option<Duration>,
    /// Cumulative lost uplink reports.
    pub reports_lost: Option<u64>,
    /// Unplaced cells this epoch.
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

/// Online SLO monitor: edge-triggered threshold alerts over
/// [`EpochSample`] streams.
///
/// Alerts are edge-triggered — one alert when a metric crosses its
/// threshold, nothing while it stays in breach, and the trigger re-arms
/// once the metric recovers — so a run's alert list has one entry per
/// distinct incident, not one per epoch.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    policy: SloPolicy,
    breached: [bool; 5],
    alerts: Vec<Alert>,
    epochs: u64,
}

impl SloMonitor {
    /// New monitor enforcing `policy`.
    pub fn new(policy: SloPolicy) -> Self {
        SloMonitor {
            policy,
            breached: [false; 5],
            alerts: Vec::new(),
            epochs: 0,
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

    /// Fold in one epoch of observations; returns how many new alerts
    /// it raised. Each alert is also emitted as an `insight.alert`
    /// telemetry event (sim domain, stamped `sample.at_us`) when
    /// tracing is enabled.
    pub fn observe_epoch(&mut self, sample: &EpochSample) -> usize {
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
        self.alerts.len() - before
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
            assert_eq!(m.observe_epoch(&quiet(e)), 0);
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
        assert_eq!(m.observe_epoch(&bad), 1);
        assert!(m.in_breach(SloMetric::MissRatio));
        // Still in breach: no duplicate alert.
        bad.epoch = 2;
        assert_eq!(m.observe_epoch(&bad), 0);
        // Recovers, then breaches again: a second alert.
        m.observe_epoch(&quiet(3));
        assert!(!m.in_breach(SloMetric::MissRatio));
        bad.epoch = 4;
        assert_eq!(m.observe_epoch(&bad), 1);
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
        assert_eq!(m.observe_epoch(&breach), 1);
        let empty = EpochSample {
            epoch: 1,
            at_us: 1000,
            ..EpochSample::default()
        };
        assert_eq!(m.observe_epoch(&empty), 0);
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
        assert_eq!(m.observe_epoch(&sample), 3);
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
        assert_eq!(p.burn_fast_epochs, 5);
        assert_eq!(p.burn_slow_epochs, 60);
        assert_eq!(p.burn_page_factor, 10.0);
        assert_eq!(p.burn_ticket_factor, 2.0);
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
        assert_eq!(m.observe_epoch(&with_miss(0, 0.015)), 0);
        assert!(!m.in_breach(SloMetric::MissRatio));
        // Past the trigger: one alert, reporting the effective trigger.
        assert_eq!(m.observe_epoch(&with_miss(1, 0.03)), 1);
        assert!((m.alerts()[0].threshold - 0.02).abs() < 1e-12);
        // Dips below base threshold but above clear: still in breach,
        // so the rebound to 0.03 does not re-alert.
        assert_eq!(m.observe_epoch(&with_miss(2, 0.008)), 0);
        assert!(m.in_breach(SloMetric::MissRatio));
        assert_eq!(m.observe_epoch(&with_miss(3, 0.03)), 0);
        // Drops to the clear line: re-arms, next excursion re-alerts.
        assert_eq!(m.observe_epoch(&with_miss(4, 0.005)), 0);
        assert!(!m.in_breach(SloMetric::MissRatio));
        assert_eq!(m.observe_epoch(&with_miss(5, 0.03)), 1);
        assert_eq!(m.alerts().len(), 2);
    }
}
