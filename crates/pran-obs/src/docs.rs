//! The `/slo` and `/topk` documents, one type each.
//!
//! Like [`RecorderDump`](crate::RecorderDump), each is built from plain
//! fields by the simulation thread once per epoch, written by the scrape
//! thread as it serves it, and read back by `telemetry_check` through the
//! same derive. Each type's `Default` is the empty value every route
//! serves before the first epoch: the same keys, zeroed.

use pran_insight::live::MetroFold;
use pran_insight::slo::{BurnSeverity, SloMonitor, SloPolicy};
use pran_sim::service::EpochRecord;
use serde::{Deserialize, Serialize};

use crate::recorder::check_tag;

/// The `schema` tag of an [`SloDoc`].
pub const SLO_SCHEMA: &str = "pran-slo/1";

/// The `schema` tag of a [`TopkDoc`].
pub const TOPK_SCHEMA: &str = "pran-topk/1";

/// `/slo` (`pran-slo/1`): the most recent epoch's error-budget burn
/// state beside the objective, windows and factors it was judged against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloDoc {
    /// [`SLO_SCHEMA`].
    pub schema: String,
    /// The epoch judged.
    pub epoch: u64,
    /// The miss-ratio objective ([`SloPolicy::miss_ratio_max`]).
    pub objective: f64,
    /// The burn-rate windows, in epochs.
    pub windows: SloWindows,
    /// The burn rates that page and ticket.
    pub factors: SloFactors,
    /// Burn rate over the fast window (1.0 spends the budget exactly).
    pub burn_fast: f64,
    /// Burn rate over the slow window.
    pub burn_slow: f64,
    /// `"none"`, `"ticket"` or `"page"`.
    pub severity: String,
    /// A page is firing.
    pub page: bool,
    /// A ticket (or a page) is firing.
    pub ticket: bool,
    /// The epoch's miss ratio.
    pub miss_ratio: f64,
    /// The miss ratio since the soak started.
    pub cum_miss_ratio: f64,
    /// The epoch breached the safety envelope.
    pub violation: bool,
}

/// [`SloDoc::windows`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SloWindows {
    /// [`SloMonitor::FAST_EPOCHS`].
    pub fast_epochs: u64,
    /// [`SloMonitor::SLOW_EPOCHS`].
    pub slow_epochs: u64,
}

/// [`SloDoc::factors`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SloFactors {
    /// [`SloMonitor::PAGE_FACTOR`].
    pub page: f64,
    /// [`SloMonitor::TICKET_FACTOR`].
    pub ticket: f64,
}

impl SloDoc {
    /// `rec`'s burn state under `policy`.
    pub fn new(rec: &EpochRecord, policy: &SloPolicy) -> Self {
        let severity = BurnSeverity::from_code(rec.burn_severity);
        SloDoc {
            schema: SLO_SCHEMA.to_string(),
            epoch: rec.epoch,
            objective: policy.miss_ratio_max,
            windows: SloWindows {
                fast_epochs: SloMonitor::FAST_EPOCHS as u64,
                slow_epochs: SloMonitor::SLOW_EPOCHS as u64,
            },
            factors: SloFactors {
                page: SloMonitor::PAGE_FACTOR,
                ticket: SloMonitor::TICKET_FACTOR,
            },
            burn_fast: rec.burn_fast,
            burn_slow: rec.burn_slow,
            severity: severity.map_or("none", BurnSeverity::label).to_string(),
            page: severity == Some(BurnSeverity::Page),
            ticket: severity.is_some(),
            miss_ratio: rec.miss_ratio,
            cum_miss_ratio: rec.cum_miss_ratio,
            violation: rec.violation,
        }
    }

    /// What the fields' types cannot say: the schema tag.
    pub fn check(&self) -> Result<(), String> {
        check_tag(&self.schema, SLO_SCHEMA)
    }
}

impl Default for SloDoc {
    fn default() -> Self {
        SloDoc {
            schema: SLO_SCHEMA.to_string(),
            epoch: 0,
            objective: 0.0,
            windows: SloWindows::default(),
            factors: SloFactors::default(),
            burn_fast: 0.0,
            burn_slow: 0.0,
            severity: "none".to_string(),
            page: false,
            ticket: false,
            miss_ratio: 0.0,
            cum_miss_ratio: 0.0,
            violation: false,
        }
    }
}

/// `/topk` (`pran-topk/1`): worst-K cells by total attributed blame,
/// worst fronthaul links (fronthaul-stage blame per cell), and slowest
/// servers by sojourn p99, from the shards' live folds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopkDoc {
    /// [`TOPK_SCHEMA`].
    pub schema: String,
    /// The epoch the folds reach.
    pub epoch: u64,
    /// The most entries a ranking holds.
    pub k: usize,
    /// Every subframe a shard executed (the registry's `soak.tasks −
    /// soak.lost`: the fold sits in the execute loop, so it cannot miss
    /// one).
    pub tasks: u64,
    /// Missed deadlines attributed.
    pub misses: u64,
    /// Every record the live plane consumed: the tasks, the steals
    /// noted beside them, and the control-plane events drained from the
    /// event rings.
    pub events: u64,
    /// Ring overflows only — events past `live_ring_capacity` in one
    /// epoch; subframes never enter a ring and cannot be dropped.
    pub dropped: u64,
    /// Attributed microseconds per stage.
    pub totals: StageTotals,
    /// Worst cells by blame over all stages.
    pub cells: Vec<CellBlame>,
    /// Worst cells by fronthaul-stage blame.
    pub links: Vec<LinkBlame>,
    /// Slowest servers by sojourn p99.
    pub servers: Vec<ServerP99>,
}

/// [`TopkDoc::totals`], in `pran_insight::spans::STAGE_NAMES` order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageTotals {
    /// Arrival → release.
    pub fronthaul: u64,
    /// Release → start (or → the steal that moved it).
    pub queue: u64,
    /// Steal → start.
    pub steal: u64,
    /// Start → finish.
    pub compute: u64,
}

/// One [`TopkDoc::cells`] entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CellBlame {
    /// Metro-wide cell id.
    pub cell: usize,
    /// Attributed microseconds over all stages.
    pub blame_us: u64,
    /// Missed deadlines.
    pub misses: u64,
}

/// One [`TopkDoc::links`] entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkBlame {
    /// Metro-wide cell id.
    pub cell: usize,
    /// Attributed fronthaul-stage microseconds.
    pub fronthaul_us: u64,
    /// Missed deadlines.
    pub misses: u64,
}

/// One [`TopkDoc::servers`] entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServerP99 {
    /// Metro-wide server id.
    pub server: usize,
    /// Sojourn p99, microseconds.
    pub p99_us: u64,
    /// Tasks it ran.
    pub tasks: u64,
}

impl TopkDoc {
    /// The `k` worst of `fold` at `epoch`; `ring_events` were drained
    /// from the event rings beside it, `dropped` overflowed them.
    pub fn new(fold: &MetroFold<'_>, ring_events: u64, dropped: u64, epoch: u64, k: usize) -> Self {
        let [fronthaul, queue, steal, compute] = fold.totals().map(|(_, us)| us);
        TopkDoc {
            schema: TOPK_SCHEMA.to_string(),
            epoch,
            k,
            tasks: fold.tasks(),
            misses: fold.misses(),
            events: fold.events() + ring_events,
            dropped,
            totals: StageTotals {
                fronthaul,
                queue,
                steal,
                compute,
            },
            cells: fold
                .top_cells(k, None)
                .into_iter()
                .map(|(cell, blame_us, misses)| CellBlame {
                    cell,
                    blame_us,
                    misses,
                })
                .collect(),
            links: fold
                .top_cells(k, Some(0))
                .into_iter()
                .map(|(cell, fronthaul_us, misses)| LinkBlame {
                    cell,
                    fronthaul_us,
                    misses,
                })
                .collect(),
            servers: fold
                .top_servers(k)
                .into_iter()
                .map(|(server, p99_us, tasks)| ServerP99 {
                    server,
                    p99_us,
                    tasks,
                })
                .collect(),
        }
    }

    /// What the fields' types cannot say: the schema tag.
    pub fn check(&self) -> Result<(), String> {
        check_tag(&self.schema, TOPK_SCHEMA)
    }
}

/// The document of a fold that has seen nothing.
impl Default for TopkDoc {
    fn default() -> Self {
        TopkDoc::new(&MetroFold::new(Vec::new()), 0, 0, 0, 0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pran_insight::live::LiveFold;
    use pran_insight::DEFAULT_BUDGET_US;
    use pran_telemetry::Subframe;

    use crate::recorder::{FlightRecorder, RecorderDump};

    fn render_recorder(ring: &FlightRecorder<EpochRecord>, reason: &str, epoch: u64) -> String {
        pretty(&RecorderDump::new(ring, reason, epoch))
    }

    fn render_slo(rec: &EpochRecord, policy: &SloPolicy) -> String {
        pretty(&SloDoc::new(rec, policy))
    }

    fn render_topk(fold: &MetroFold<'_>, ring_events: u64, epoch: u64, k: usize) -> String {
        pretty(&TopkDoc::new(fold, ring_events, 0, epoch, k))
    }

    fn pretty(doc: &impl Serialize) -> String {
        serde_json::to_string_pretty(doc).unwrap()
    }

    /// A fixed record: every field set, floats with and without a
    /// short decimal form.
    pub(crate) fn record(epoch: u64) -> EpochRecord {
        EpochRecord {
            epoch,
            at_us: epoch * 600_000_000,
            tasks: 2560,
            misses: 12,
            lost: 3,
            reports_lost: 1,
            miss_ratio: 0.005859375,
            cum_miss_ratio: 0.0021,
            slack_p99_us: 1803,
            peak_queue_depth: 52,
            servers_used: 8,
            alive_servers: 31,
            alive_mask: 4294967294,
            utilization: 0.210608567125,
            unplaced: 0,
            alert_mask: 1,
            violation: false,
            burn_fast: 2.5,
            burn_slow: 0.75,
            burn_severity: 1,
        }
    }

    fn task(release_us: u64, start_us: u64, finish_us: u64, deadline_us: u64) -> Subframe {
        Subframe {
            cell: 0,
            release_us,
            start_us,
            finish_us,
            deadline_us,
            core: None,
            stolen: false,
        }
    }

    /// A full 3-slot ring that has wrapped once: epochs 5, 6, 7.
    #[test]
    fn recorder_dump_renders_to_its_literal() {
        let mut ring = FlightRecorder::new(3);
        for epoch in 4..8 {
            ring.push(record(epoch));
        }
        assert_eq!(render_recorder(&ring, "slo-alert", 7), RECORDER);
    }

    #[test]
    fn slo_doc_renders_to_its_literal() {
        assert_eq!(render_slo(&record(7), &SloPolicy::default_eval()), SLO);
    }

    /// Two shards; k = 2 cuts the cell and server rankings.
    #[test]
    fn topk_doc_renders_to_its_literal() {
        let mut a = LiveFold::new(2, 2, DEFAULT_BUDGET_US);
        a.record(0, Some(0), &task(1000, 1200, 1900, 3000));
        a.record(1, Some(1), &task(1500, 2600, 3400, 3000));
        a.record(1, Some(1), &task(2100, 2100, 4500, 4000));
        a.settle();
        let mut b = LiveFold::new(2, 1, DEFAULT_BUDGET_US);
        b.record(0, Some(0), &task(800, 900, 5200, 5000));
        b.record(1, None, &task(100, 150, 700, 3000));
        b.settle();
        let fold = MetroFold::new(vec![&a, &b]);
        assert_eq!(render_topk(&fold, 2, 7, 2), TOPK);
    }

    /// Each literal reads back as the document it was written from.
    #[test]
    fn literals_read_back_as_their_documents() {
        let dump: RecorderDump = serde_json::from_str(RECORDER).unwrap();
        assert_eq!(dump.check(), Ok(()));
        assert_eq!(dump.records, [record(5), record(6), record(7)]);
        let slo: SloDoc = serde_json::from_str(SLO).unwrap();
        assert_eq!(slo.check(), Ok(()));
        assert_eq!(slo, SloDoc::new(&record(7), &SloPolicy::default_eval()));
        let topk: TopkDoc = serde_json::from_str(TOPK).unwrap();
        assert_eq!(topk.check(), Ok(()));
        assert_eq!((topk.cells.len(), topk.totals.compute), (2, 7500));
    }

    const RECORDER: &str = r#"{
  "schema": "pran-recorder/1",
  "reason": "slo-alert",
  "epoch": 7,
  "capacity": 3,
  "records": [
    {
      "epoch": 5,
      "at_us": 3000000000,
      "tasks": 2560,
      "misses": 12,
      "lost": 3,
      "reports_lost": 1,
      "miss_ratio": 0.005859375,
      "cum_miss_ratio": 0.0021,
      "slack_p99_us": 1803,
      "peak_queue_depth": 52,
      "servers_used": 8,
      "alive_servers": 31,
      "alive_mask": 4294967294,
      "utilization": 0.210608567125,
      "unplaced": 0,
      "alert_mask": 1,
      "violation": false,
      "burn_fast": 2.5,
      "burn_slow": 0.75,
      "burn_severity": 1
    },
    {
      "epoch": 6,
      "at_us": 3600000000,
      "tasks": 2560,
      "misses": 12,
      "lost": 3,
      "reports_lost": 1,
      "miss_ratio": 0.005859375,
      "cum_miss_ratio": 0.0021,
      "slack_p99_us": 1803,
      "peak_queue_depth": 52,
      "servers_used": 8,
      "alive_servers": 31,
      "alive_mask": 4294967294,
      "utilization": 0.210608567125,
      "unplaced": 0,
      "alert_mask": 1,
      "violation": false,
      "burn_fast": 2.5,
      "burn_slow": 0.75,
      "burn_severity": 1
    },
    {
      "epoch": 7,
      "at_us": 4200000000,
      "tasks": 2560,
      "misses": 12,
      "lost": 3,
      "reports_lost": 1,
      "miss_ratio": 0.005859375,
      "cum_miss_ratio": 0.0021,
      "slack_p99_us": 1803,
      "peak_queue_depth": 52,
      "servers_used": 8,
      "alive_servers": 31,
      "alive_mask": 4294967294,
      "utilization": 0.210608567125,
      "unplaced": 0,
      "alert_mask": 1,
      "violation": false,
      "burn_fast": 2.5,
      "burn_slow": 0.75,
      "burn_severity": 1
    }
  ]
}"#;

    const SLO: &str = r#"{
  "schema": "pran-slo/1",
  "epoch": 7,
  "objective": 0.01,
  "windows": {
    "fast_epochs": 5,
    "slow_epochs": 60
  },
  "factors": {
    "page": 10.0,
    "ticket": 2.0
  },
  "burn_fast": 2.5,
  "burn_slow": 0.75,
  "severity": "ticket",
  "page": false,
  "ticket": true,
  "miss_ratio": 0.005859375,
  "cum_miss_ratio": 0.0021,
  "violation": false
}"#;

    const TOPK: &str = r#"{
  "schema": "pran-topk/1",
  "epoch": 7,
  "k": 2,
  "tasks": 5,
  "misses": 3,
  "events": 7,
  "dropped": 0,
  "totals": {
    "fronthaul": 600,
    "queue": 1200,
    "steal": 0,
    "compute": 7500
  },
  "cells": [
    {
      "cell": 1,
      "blame_us": 4900,
      "misses": 2
    },
    {
      "cell": 2,
      "blame_us": 4400,
      "misses": 1
    }
  ],
  "links": [
    {
      "cell": 1,
      "fronthaul_us": 600,
      "misses": 2
    }
  ],
  "servers": [
    {
      "server": 2,
      "p99_us": 4400,
      "tasks": 1
    },
    {
      "server": 1,
      "p99_us": 2400,
      "tasks": 2
    }
  ]
}"#;
}
