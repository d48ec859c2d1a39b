//! Live, in-process insight: streaming attribution, mergeable sketches
//! and multi-window burn-rate alerting.
//!
//! [`spans`](crate::spans) answers "where did the budget go" *after* a
//! run. This module answers it *during* one: a [`LiveFold`] consumes raw
//! [`TraceEvent`]s straight off `pran-telemetry::live`'s bounded
//! per-shard rings (no JSONL round trip, no allocation in steady state),
//! reads each `subframe` record through the same [`Subframe::decode`]
//! every other reader uses, and folds them into
//!
//! - per-cell and per-server [`LogSketch`]es — the workspace's one
//!   log-bucket histogram at 8 sub-buckets per power of two, so quantile
//!   error is bounded by 1/[`LogSketch::SUBS`] and merges are *exact*:
//!   merged results are invariant to how work was split across workers;
//! - per-cell critical-path blame: the same
//!   fronthaul / queue / steal / compute attribution as
//!   [`critical_paths`](crate::spans::critical_paths), computed
//!   incrementally per epoch with its own arithmetic —
//!   `tests/live_insight.rs` holds the two equal, cell by cell, over
//!   resident soaks exported to JSONL and parsed back.
//!
//! On top of the per-epoch miss ratio, a [`BurnRateAlerter`] replaces
//! single-window EWMA alerting with SRE-style multi-window,
//! multi-burn-rate alerting over the error budget implied by
//! `SloPolicy::miss_ratio_max`: a fast window confirms the budget is
//! burning *now*, a slow window confirms the burn is sustained, and the
//! two factors map to [`BurnSeverity::Page`] / [`BurnSeverity::Ticket`].
//! Because both windows must exceed a factor > 1, any alert implies at
//! least one epoch breached the objective — burn alerts are
//! structurally precise against per-epoch violation ground truth.

use pran_telemetry::metrics::LogBuckets;
use pran_telemetry::trace::TraceEvent;
use pran_telemetry::Subframe;
use serde::{Deserialize, Serialize};

use crate::slo::SloPolicy;
use crate::spans::STAGE_NAMES;

/// The mergeable quantile sketch behind the live per-cell and per-server
/// latencies: [`LogBuckets`] at 8 sub-buckets per power of two (12.5 %
/// worst-case relative error for values ≥ 8 µs).
pub type LogSketch = LogBuckets<3>;

/// The stage boundaries of one missed subframe — `(arrival, queue_end,
/// start)`, partitioning `[arrival, finish]` into fronthaul / queue /
/// steal / compute the way `spans::critical_paths` does.
#[inline]
fn stage_bounds(task: &Subframe, steals: &[(u64, u64)], budget_us: u64) -> (u64, u64, u64) {
    let arrival = task
        .deadline_us
        .saturating_sub(budget_us)
        .min(task.release_us);
    let start = task.start_us.max(task.release_us).min(task.finish_us);
    let steal_at = if task.stolen {
        steals
            .iter()
            .filter(|(thief, ts)| {
                Some(*thief) == task.core && *ts >= task.release_us && *ts <= start
            })
            .map(|(_, ts)| *ts)
            .max()
    } else {
        None
    };
    (arrival, steal_at.unwrap_or(start), start)
}

// ---------------------------------------------------------------------
// LiveFold: the streaming attribution engine
// ---------------------------------------------------------------------

/// Streaming attribution state over a metro's global cell/server space.
///
/// Construct once (all allocation happens here), then call
/// [`LiveFold::fold_shard`] with each shard's drained ring every epoch —
/// the fold itself is allocation-free, which is what lets the zero-alloc
/// soak harness run with the live sink armed. Aggregates are sums and
/// sketch-bucket increments, so folding shards in index order yields
/// results independent of which worker thread executed which shard, and
/// [`LiveFold::merge_from`] is exact for the same reason
/// [`LogSketch::merge`] is.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveFold {
    budget_us: u64,
    /// Per-cell attributed stage totals (µs) across missed deadlines,
    /// [`STAGE_NAMES`] order.
    cell_blame: Vec<[u64; 4]>,
    cell_misses: Vec<u64>,
    /// Per-cell sojourn (release → finish) sketches over *all* subframes.
    cell_latency: Vec<LogSketch>,
    /// Per-server sojourn sketches (keyed by the epoch's placement).
    server_latency: Vec<LogSketch>,
    server_tasks: Vec<u64>,
    totals: [u64; 4],
    tasks: u64,
    misses: u64,
    events: u64,
    steals_scratch: Vec<(u64, u64)>,
}

// Manual impl: the steal scratch buffer is working state, not
// aggregate state, and must not leak into serialized snapshots (its
// residue depends on which shard folded last).
impl Serialize for LiveFold {
    fn to_json_value(&self) -> serde::Value {
        let mut m = serde::Map::new();
        m.insert("budget_us".to_string(), self.budget_us.to_json_value());
        m.insert("cell_blame".to_string(), self.cell_blame.to_json_value());
        m.insert("cell_misses".to_string(), self.cell_misses.to_json_value());
        m.insert(
            "cell_latency".to_string(),
            self.cell_latency.to_json_value(),
        );
        m.insert(
            "server_latency".to_string(),
            self.server_latency.to_json_value(),
        );
        m.insert(
            "server_tasks".to_string(),
            self.server_tasks.to_json_value(),
        );
        m.insert("totals".to_string(), self.totals.to_json_value());
        m.insert("tasks".to_string(), self.tasks.to_json_value());
        m.insert("misses".to_string(), self.misses.to_json_value());
        m.insert("events".to_string(), self.events.to_json_value());
        serde::Value::Object(m)
    }
}

impl LiveFold {
    /// New fold over `cells` global cells and `servers` global servers;
    /// `budget_us` is the HARQ budget deadlines derive from.
    pub fn new(cells: usize, servers: usize, budget_us: u64) -> Self {
        LiveFold {
            budget_us,
            cell_blame: vec![[0u64; 4]; cells],
            cell_misses: vec![0; cells],
            cell_latency: (0..cells).map(|_| LogSketch::new()).collect(),
            server_latency: (0..servers).map(|_| LogSketch::new()).collect(),
            server_tasks: vec![0; servers],
            totals: [0; 4],
            tasks: 0,
            misses: 0,
            events: 0,
            steals_scratch: Vec::with_capacity(1024),
        }
    }

    /// Fold one shard's drained events into the global aggregates.
    ///
    /// `cell_offset`/`server_offset` map the shard's local ids into the
    /// global space; `assignment[local_cell]` is the shard's current
    /// cell → local-server placement (tasks of unplaced cells still
    /// count per cell, just not per server). Allocation-free.
    pub fn fold_shard(
        &mut self,
        events: &[TraceEvent],
        cell_offset: usize,
        server_offset: usize,
        assignment: &[Option<usize>],
    ) {
        self.steals_scratch.clear();
        for e in events.iter().filter(|e| e.name == "rt.steal") {
            if let Some(thief) = e.field_u64("thief") {
                self.steals_scratch.push((thief, e.ts_us));
            }
        }
        for event in events {
            self.events += 1;
            // Undecodable records are `validate_jsonl`'s to report.
            let Some(Ok(task)) = Subframe::decode(event) else {
                continue;
            };
            self.tasks += 1;
            let sojourn = task.finish_us - task.release_us;
            let local_cell = task.cell as usize;
            let global_cell = cell_offset + local_cell;
            if let Some(sketch) = self.cell_latency.get_mut(global_cell) {
                sketch.record_us(sojourn);
            }
            if let Some(server) = assignment.get(local_cell).copied().flatten() {
                let global_server = server_offset + server;
                if let Some(sketch) = self.server_latency.get_mut(global_server) {
                    sketch.record_us(sojourn);
                    self.server_tasks[global_server] += 1;
                }
            }
            if !task.missed() {
                continue;
            }
            self.misses += 1;
            let (arrival, queue_end, start) =
                stage_bounds(&task, &self.steals_scratch, self.budget_us);
            let stage_us = [
                task.release_us - arrival,
                queue_end - task.release_us,
                start - queue_end,
                task.finish_us - start,
            ];
            for (slot, us) in self.totals.iter_mut().zip(stage_us) {
                *slot += us;
            }
            if let Some(blame) = self.cell_blame.get_mut(global_cell) {
                for (slot, us) in blame.iter_mut().zip(stage_us) {
                    *slot += us;
                }
                self.cell_misses[global_cell] += 1;
            }
        }
    }

    /// Exact merge of another fold over the same cell/server space (the
    /// dimensions and budget must match).
    pub fn merge_from(&mut self, other: &LiveFold) {
        assert_eq!(self.budget_us, other.budget_us, "budget mismatch");
        assert_eq!(self.cell_blame.len(), other.cell_blame.len());
        assert_eq!(self.server_latency.len(), other.server_latency.len());
        for (a, b) in self.cell_blame.iter_mut().zip(&other.cell_blame) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.cell_misses.iter_mut().zip(&other.cell_misses) {
            *a += b;
        }
        for (a, b) in self.cell_latency.iter_mut().zip(&other.cell_latency) {
            a.merge(b);
        }
        for (a, b) in self.server_latency.iter_mut().zip(&other.server_latency) {
            a.merge(b);
        }
        for (a, b) in self.server_tasks.iter_mut().zip(&other.server_tasks) {
            *a += b;
        }
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += b;
        }
        self.tasks += other.tasks;
        self.misses += other.misses;
        self.events += other.events;
    }

    /// Total attributed microseconds per stage, [`STAGE_NAMES`] order —
    /// equal to `spans::attribution_totals` over the post-hoc paths.
    pub fn totals(&self) -> [(&'static str, u64); 4] {
        [
            (STAGE_NAMES[0], self.totals[0]),
            (STAGE_NAMES[1], self.totals[1]),
            (STAGE_NAMES[2], self.totals[2]),
            (STAGE_NAMES[3], self.totals[3]),
        ]
    }

    /// Subframe tasks folded so far.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Missed deadlines attributed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// All events consumed (any name).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Cells in the global space.
    pub fn cell_count(&self) -> usize {
        self.cell_blame.len()
    }

    /// Servers in the global space.
    pub fn server_count(&self) -> usize {
        self.server_latency.len()
    }

    /// One cell's attributed stage totals, [`STAGE_NAMES`] order.
    pub fn cell_blame(&self, cell: usize) -> [u64; 4] {
        self.cell_blame.get(cell).copied().unwrap_or([0; 4])
    }

    /// One cell's missed-deadline count.
    pub fn cell_misses(&self, cell: usize) -> u64 {
        self.cell_misses.get(cell).copied().unwrap_or(0)
    }

    /// One cell's sojourn sketch.
    pub fn cell_latency(&self, cell: usize) -> Option<&LogSketch> {
        self.cell_latency.get(cell)
    }

    /// One server's sojourn sketch.
    pub fn server_latency(&self, server: usize) -> Option<&LogSketch> {
        self.server_latency.get(server)
    }

    /// Tasks folded onto one server.
    pub fn server_tasks(&self, server: usize) -> u64 {
        self.server_tasks.get(server).copied().unwrap_or(0)
    }

    /// The worst `k` cells by a blame key: total attributed blame when
    /// `stage` is `None`, or one stage's share (by [`STAGE_NAMES`]
    /// index — index 0, fronthaul, ranks cells by *link* blame).
    /// Returns `(cell, blame_us, misses)` sorted worst-first, ties by
    /// cell id; cells with zero blame are omitted.
    pub fn top_cells(&self, k: usize, stage: Option<usize>) -> Vec<(usize, u64, u64)> {
        let mut ranked: Vec<(usize, u64, u64)> = self
            .cell_blame
            .iter()
            .enumerate()
            .map(|(cell, blame)| {
                let us = match stage {
                    Some(s) => blame[s],
                    None => blame.iter().sum(),
                };
                (cell, us, self.cell_misses[cell])
            })
            .filter(|(_, us, _)| *us > 0)
            .collect();
        ranked.sort_by_key(|(cell, us, _)| (std::cmp::Reverse(*us), *cell));
        ranked.truncate(k);
        ranked
    }

    /// The worst `k` servers by sojourn p99 (µs); servers with no tasks
    /// are omitted. Returns `(server, p99_us, tasks)` worst-first, ties
    /// by server id.
    pub fn top_servers(&self, k: usize) -> Vec<(usize, u64, u64)> {
        let mut ranked: Vec<(usize, u64, u64)> = self
            .server_latency
            .iter()
            .enumerate()
            .filter_map(|(server, sketch)| {
                let p99 = sketch.try_quantile(0.99)?.as_micros() as u64;
                Some((server, p99, self.server_tasks[server]))
            })
            .collect();
        ranked.sort_by_key(|(server, p99, _)| (std::cmp::Reverse(*p99), *server));
        ranked.truncate(k);
        ranked
    }
}

// ---------------------------------------------------------------------
// Multi-window multi-burn-rate SLO alerting
// ---------------------------------------------------------------------

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
}

/// The burn-rate state after one observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// Multi-window, multi-burn-rate alerter over the per-epoch error ratio.
///
/// The error budget is `objective` errors per epoch (the `SloPolicy`
/// miss-ratio bound); the *burn rate* of a window is its mean error
/// ratio divided by the objective. A rule fires when **both** the fast
/// and the slow window burn at or above its factor — the fast window
/// keeps alerts from firing long after the incident ended, the slow
/// window keeps one-epoch blips from paging. Windows are fixed-length
/// and zero-filled before enough epochs have been observed. Alerts are
/// edge-triggered per severity.
#[derive(Debug, Clone)]
pub struct BurnRateAlerter {
    objective: f64,
    fast: usize,
    slow: usize,
    page_factor: f64,
    ticket_factor: f64,
    /// Ring of the last `slow` epoch error ratios (zero-filled).
    ring: Vec<f64>,
    head: usize,
    page_firing: bool,
    ticket_firing: bool,
}

impl BurnRateAlerter {
    /// New alerter over an explicit objective and windows.
    pub fn new(
        objective: f64,
        fast_epochs: usize,
        slow_epochs: usize,
        page_factor: f64,
        ticket_factor: f64,
    ) -> Self {
        let slow = slow_epochs.max(1);
        let fast = fast_epochs.clamp(1, slow);
        BurnRateAlerter {
            objective: objective.max(f64::EPSILON),
            fast,
            slow,
            page_factor,
            ticket_factor,
            ring: vec![0.0; slow],
            head: 0,
            page_firing: false,
            ticket_firing: false,
        }
    }

    /// New alerter wired to a policy's burn knobs (objective =
    /// `miss_ratio_max`).
    pub fn from_policy(policy: &SloPolicy) -> Self {
        Self::new(
            policy.miss_ratio_max,
            policy.burn_fast_epochs as usize,
            policy.burn_slow_epochs as usize,
            policy.burn_page_factor,
            policy.burn_ticket_factor,
        )
    }

    fn window_mean(&self, len: usize) -> f64 {
        let mut sum = 0.0;
        for i in 0..len {
            let idx = (self.head + self.ring.len() - 1 - i) % self.ring.len();
            sum += self.ring[idx];
        }
        sum / len as f64
    }

    /// Fold one epoch's error ratio; returns the new state plus an
    /// edge-triggered alert if a rule started firing this epoch (the
    /// highest newly-firing severity). Also emitted as an
    /// `insight.burn_alert` telemetry event when tracing is enabled.
    /// Allocation-free.
    pub fn observe(
        &mut self,
        epoch: u64,
        at_us: u64,
        error_ratio: f64,
    ) -> (BurnState, Option<BurnAlert>) {
        self.ring[self.head] = error_ratio.max(0.0);
        self.head = (self.head + 1) % self.ring.len();
        let burn_fast = self.window_mean(self.fast) / self.objective;
        let burn_slow = self.window_mean(self.slow) / self.objective;
        let page = burn_fast >= self.page_factor && burn_slow >= self.page_factor;
        let ticket = burn_fast >= self.ticket_factor && burn_slow >= self.ticket_factor;
        let mut alert = None;
        if page && !self.page_firing {
            alert = Some(BurnSeverity::Page);
        } else if ticket && !self.ticket_firing {
            alert = Some(BurnSeverity::Ticket);
        }
        self.page_firing = page;
        self.ticket_firing = ticket;
        let state = BurnState {
            burn_fast,
            burn_slow,
            page,
            ticket,
        };
        let alert = alert.map(|severity| {
            let factor = match severity {
                BurnSeverity::Page => self.page_factor,
                BurnSeverity::Ticket => self.ticket_factor,
            };
            if pran_telemetry::trace::enabled() {
                pran_telemetry::trace::sim_event(
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
        (state, alert)
    }

    /// The per-epoch error objective.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// `(fast, slow)` window lengths in epochs.
    pub fn windows(&self) -> (usize, usize) {
        (self.fast, self.slow)
    }

    /// `(page, ticket)` burn factors.
    pub fn factors(&self) -> (f64, f64) {
        (self.page_factor, self.ticket_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{attribution_totals, critical_paths, DEFAULT_BUDGET_US};
    use pran_telemetry::export::{parse_jsonl, to_jsonl};
    use pran_telemetry::trace::Domain;

    fn task(cell: u64, release: u64, start: u64, finish: u64, deadline: u64) -> Subframe {
        Subframe {
            cell,
            release_us: release,
            start_us: start,
            finish_us: finish,
            deadline_us: deadline,
            core: None,
            stolen: false,
        }
    }

    fn subframe(cell: u64, release: u64, start: u64, finish: u64, deadline: u64) -> TraceEvent {
        task(cell, release, start, finish, deadline).to_event(None)
    }

    /// The live == post-hoc differential, through the wire format: a
    /// one-shard fold over `events` must equal the sums over the
    /// reference's critical paths of the same events exported to JSONL
    /// and parsed back.
    fn assert_fold_equals_reference(fold: &LiveFold, events: &[TraceEvent]) {
        let parsed = parse_jsonl(&to_jsonl(events)).unwrap();
        let paths = critical_paths(&parsed, fold.budget_us);
        let mut blame = vec![[0u64; 4]; fold.cell_count()];
        let mut misses = vec![0u64; fold.cell_count()];
        for path in &paths {
            let cell = path.cell as usize;
            for (slot, stage) in blame[cell].iter_mut().zip(STAGE_NAMES) {
                *slot += path.stage_us(stage);
            }
            misses[cell] += 1;
        }
        for cell in 0..fold.cell_count() {
            assert_eq!(fold.cell_blame(cell), blame[cell], "cell {cell} blame");
            assert_eq!(fold.cell_misses(cell), misses[cell], "cell {cell} misses");
        }
        assert_eq!(fold.totals(), attribution_totals(&paths));
        assert_eq!(fold.misses(), paths.len() as u64);
    }

    #[test]
    fn fold_attributes_misses_like_spans() {
        let events = vec![
            subframe(0, 100, 150, 900, 2000),    // on time
            subframe(1, 1120, 1920, 3120, 3000), // missed
        ];
        let mut fold = LiveFold::new(4, 2, DEFAULT_BUDGET_US);
        let assignment = [Some(1), Some(0), None, None];
        fold.fold_shard(&events, 0, 0, &assignment);
        assert_eq!(fold.tasks(), 2);
        assert_eq!(fold.misses(), 1);
        let blame = fold.cell_blame(1);
        assert_eq!(blame, [120, 800, 0, 1200]);
        assert_eq!(fold.totals()[3], ("compute", 1200));
        assert_eq!(fold.cell_misses(1), 1);
        assert_eq!(fold.cell_misses(0), 0);
        // Sojourn sketches: cell 0 → server 1, cell 1 → server 0.
        assert_eq!(fold.cell_latency(0).unwrap().count(), 1);
        assert_eq!(fold.server_latency(1).unwrap().count(), 1);
        assert_eq!(fold.server_tasks(0), 1);
        let top = fold.top_cells(8, None);
        assert_eq!(top, vec![(1, 2120, 1)]);
        let by_link = fold.top_cells(8, Some(0));
        assert_eq!(by_link, vec![(1, 120, 1)]);
        assert_eq!(fold.top_servers(8), vec![(0, 2000, 1), (1, 800, 1)]);
        assert_fold_equals_reference(&fold, &events);
    }

    #[test]
    fn fold_skips_undecodable_subframes() {
        let events = vec![
            // Finishes before its release; stage arithmetic must not run.
            subframe(0, 100, 50, 60, 10),
            TraceEvent::new(70, Domain::Sim, "subframe", &[("cell", 1u64.into())]),
            subframe(1, 1120, 1920, 3120, 3000),
        ];
        let mut fold = LiveFold::new(2, 1, DEFAULT_BUDGET_US);
        fold.fold_shard(&events, 0, 0, &[Some(0), Some(0)]);
        assert_eq!(fold.events(), 3);
        assert_eq!(fold.tasks(), 1);
        assert_eq!(fold.misses(), 1);
        assert_eq!(fold.cell_latency(0).unwrap().count(), 0);
        assert_fold_equals_reference(&fold, &events);
    }

    #[test]
    fn fold_merge_equals_single_fold() {
        let all: Vec<TraceEvent> = (0..20u64)
            .map(|i| subframe(i % 4, 100 + i, 1500, 3000 + i * 10, 2100 + i))
            .collect();
        let assignment = [Some(0), Some(1), Some(0), None];
        let mut whole = LiveFold::new(4, 2, 2000);
        whole.fold_shard(&all, 0, 0, &assignment);
        let mut a = LiveFold::new(4, 2, 2000);
        let mut b = LiveFold::new(4, 2, 2000);
        a.fold_shard(&all[..9], 0, 0, &assignment);
        b.fold_shard(&all[9..], 0, 0, &assignment);
        a.merge_from(&b);
        // Scratch differs; compare the serialized aggregate state.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&whole).unwrap()
        );
    }

    #[test]
    fn steal_attribution_matches_posthoc() {
        let events = vec![
            TraceEvent::new(
                2500,
                Domain::Sim,
                "rt.steal",
                &[
                    ("thief", 3u64.into()),
                    ("home", 0u64.into()),
                    ("tasks", 1u64.into()),
                ],
            ),
            Subframe {
                core: Some(3),
                stolen: true,
                ..task(2, 2100, 2600, 4400, 4000)
            }
            .to_event(None),
        ];
        let mut fold = LiveFold::new(4, 1, 2000);
        fold.fold_shard(&events, 0, 0, &[None, None, Some(0), None]);
        assert_eq!(fold.cell_blame(2), [100, 400, 100, 1800]);
        assert_fold_equals_reference(&fold, &events);
    }

    #[test]
    fn burn_rules_fire_on_sustained_breach_only() {
        // objective 0.01, fast 5, slow 60, page 10×, ticket 2×.
        let mut b = BurnRateAlerter::new(0.01, 5, 60, 10.0, 2.0);
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
        let mut b = BurnRateAlerter::new(0.01, 5, 10, 10.0, 2.0);
        let mut alerts = 0;
        for e in 0..20 {
            if b.observe(e, 0, 0.5).1.is_some() {
                alerts += 1;
            }
        }
        // One ticket edge + one page edge, not one per epoch.
        assert_eq!(alerts, 2);
        // Precision structure: error ratios that never exceed the
        // objective can never alert (burn ≤ 1 < ticket factor).
        let mut quiet = BurnRateAlerter::new(0.01, 5, 10, 10.0, 2.0);
        for e in 0..200 {
            let (state, alert) = quiet.observe(e, 0, 0.009);
            assert!(alert.is_none());
            assert!(state.burn_fast <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn policy_wiring_and_recovery_rearm() {
        let policy = SloPolicy::default_eval();
        let mut b = BurnRateAlerter::from_policy(&policy);
        assert_eq!(b.windows(), (5, 60));
        assert_eq!(b.factors(), (10.0, 2.0));
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
}
