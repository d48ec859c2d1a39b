//! Missed-deadline critical paths: the post-hoc reference.
//!
//! The question PRAN actually cares about: for every subframe that
//! missed its HARQ deadline, where did the budget go? [`critical_paths`]
//! attributes each miss's latency to fronthaul delay, queue wait, steal
//! overhead and kernel compute, exactly (the stages partition the task's
//! life). It reads events only through [`EventView`], so the same
//! function runs on raw in-process `TraceEvent`s and on
//! `pran_telemetry::export::OwnedEvent`s parsed back from exported
//! JSONL. Its arithmetic is deliberately independent of the streaming
//! [`LiveFold`](crate::live::LiveFold): it is the reference the live
//! fold is differentially tested against.

use std::fmt::Write as _;

use pran_telemetry::{EventView, Subframe};

/// The PRAN HARQ compute budget in microseconds: a subframe's deadline
/// is its pool-arrival instant plus this budget.
pub const DEFAULT_BUDGET_US: u64 = 2000;

/// One stage of a missed subframe's critical path: a contiguous
/// `[from_us, to_us]` slice of the task's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stage {
    /// Stage label: `"fronthaul"`, `"queue"`, `"steal"` or `"compute"`.
    pub name: &'static str,
    /// Stage start (sim µs).
    pub from_us: u64,
    /// Stage end (sim µs).
    pub to_us: u64,
}

impl Stage {
    /// Stage length in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.to_us - self.from_us
    }
}

/// The reconstructed critical path of one missed subframe deadline:
/// where its compute budget went, stage by stage.
///
/// The stages are contiguous and partition `[arrival_us, finish_us]`,
/// so their durations sum to [`CriticalPath::latency_us`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Cell the subframe belongs to.
    pub cell: u64,
    /// When the subframe hit the pool boundary: `deadline − budget`
    /// (clamped to the release time if fronthaul jitter also tightened
    /// the deadline).
    pub arrival_us: u64,
    /// When its uplink report became available to the executor.
    pub release_us: u64,
    /// When a core started computing it.
    pub start_us: u64,
    /// When compute finished.
    pub finish_us: u64,
    /// Its HARQ deadline.
    pub deadline_us: u64,
    /// Core that executed it, if recorded (parallel executor only).
    pub core: Option<u64>,
    /// Whether the task was work-stolen to another core.
    pub stolen: bool,
    /// Contiguous stages partitioning `[arrival_us, finish_us]`:
    /// fronthaul, queue, steal, compute.
    pub stages: Vec<Stage>,
    /// End-to-end latency: `finish_us − arrival_us`.
    pub latency_us: u64,
    /// Deadline overshoot: `finish_us − deadline_us`.
    pub overshoot_us: u64,
}

impl CriticalPath {
    /// Sum of the stage durations — always equals
    /// [`CriticalPath::latency_us`].
    pub fn attributed_us(&self) -> u64 {
        self.stages.iter().map(Stage::duration_us).sum()
    }

    /// The longest stage: where the budget actually went.
    pub fn dominant(&self) -> &Stage {
        self.stages
            .iter()
            .max_by_key(|s| s.duration_us())
            .expect("critical path always has stages")
    }

    /// Duration of the named stage (zero when absent).
    pub fn stage_us(&self, name: &str) -> u64 {
        self.stages
            .iter()
            .filter(|s| s.name == name)
            .map(Stage::duration_us)
            .sum()
    }
}

/// Stage labels in pipeline order.
pub const STAGE_NAMES: [&str; 4] = ["fronthaul", "queue", "steal", "compute"];

/// Reconstruct the critical path of every missed subframe deadline in
/// an event stream.
///
/// `budget_us` is the HARQ compute budget the deadlines were derived
/// from ([`DEFAULT_BUDGET_US`] in every PRAN configuration). For each
/// `subframe` event with `finish_us > deadline_us` the budget is
/// attributed to:
///
/// - **fronthaul** — arrival (`deadline − budget`) → release: uplink
///   transport delay and jitter;
/// - **queue** — release → execution-start (or → steal instant for
///   stolen tasks): waiting for a core;
/// - **steal** — steal instant → start, for tasks a `rt.steal` event
///   shows were grabbed by another core;
/// - **compute** — start → finish: kernel execution.
pub fn critical_paths<E: EventView>(events: &[E], budget_us: u64) -> Vec<CriticalPath> {
    // (thief core, steal timestamp) pairs, for matching stolen tasks.
    let steals: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.name() == "rt.steal")
        .filter_map(|e| Some((e.field_u64("thief")?, e.ts_us())))
        .collect();

    let mut paths = Vec::new();
    // Records that do not decode (see `Subframe::decode`) are skipped:
    // `validate_jsonl` is where they get reported.
    for task in events.iter().filter_map(|e| Subframe::decode(e)?.ok()) {
        if !task.missed() {
            continue;
        }
        let Subframe {
            cell,
            release_us: release,
            start_us: start,
            finish_us: finish,
            deadline_us: deadline,
            core,
            stolen,
        } = task;
        // Workloads with fronthaul-tightened deadlines can put
        // `deadline − budget` past the release; clamp so the fronthaul
        // stage never runs backwards.
        let arrival = deadline.saturating_sub(budget_us).min(release);
        let start = start.max(release).min(finish);

        // Stolen tasks: the thief's `rt.steal` event (stamped at the
        // grab instant on the thief's clock) splits the wait between
        // home-queue time and steal/transfer overhead.
        let steal_at = if stolen {
            steals
                .iter()
                .filter(|(thief, ts)| Some(*thief) == core && *ts >= release && *ts <= start)
                .map(|(_, ts)| *ts)
                .max()
        } else {
            None
        };
        let queue_end = steal_at.unwrap_or(start);

        let stages = vec![
            Stage {
                name: "fronthaul",
                from_us: arrival,
                to_us: release,
            },
            Stage {
                name: "queue",
                from_us: release,
                to_us: queue_end,
            },
            Stage {
                name: "steal",
                from_us: queue_end,
                to_us: start,
            },
            Stage {
                name: "compute",
                from_us: start,
                to_us: finish,
            },
        ];
        paths.push(CriticalPath {
            cell,
            arrival_us: arrival,
            release_us: release,
            start_us: start,
            finish_us: finish,
            deadline_us: deadline,
            core,
            stolen,
            stages,
            latency_us: finish - arrival,
            overshoot_us: finish - deadline,
        });
    }
    // Worst overshoot first; ties by deadline then cell for determinism.
    paths.sort_by_key(|p| (std::cmp::Reverse(p.overshoot_us), p.deadline_us, p.cell));
    paths
}

/// Total microseconds attributed to each stage across a set of paths,
/// in [`STAGE_NAMES`] order.
pub fn attribution_totals(paths: &[CriticalPath]) -> [(&'static str, u64); 4] {
    let mut totals = [
        ("fronthaul", 0u64),
        ("queue", 0u64),
        ("steal", 0u64),
        ("compute", 0u64),
    ];
    for path in paths {
        for stage in &path.stages {
            if let Some(slot) = totals.iter_mut().find(|(name, _)| *name == stage.name) {
                slot.1 += stage.duration_us();
            }
        }
    }
    totals
}

/// Render missed-deadline critical paths as a human-readable report:
/// one row per miss (worst overshoot first) plus an aggregate
/// where-did-the-budget-go footer.
pub fn attribution_table(paths: &[CriticalPath]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== missed-deadline critical paths ({} misses) ==",
        paths.len()
    );
    if paths.is_empty() {
        let _ = writeln!(out, "(no deadline misses — nothing to attribute)");
        return out;
    }
    let _ = writeln!(
        out,
        "{:>4} {:>6} {:>11} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9}  dominant",
        "cell", "core", "deadline_us", "over_us", "fronthaul", "queue", "steal", "compute", "total"
    );
    for path in paths {
        let core = path
            .core
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>11} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9}  {}",
            path.cell,
            core,
            path.deadline_us,
            path.overshoot_us,
            path.stage_us("fronthaul"),
            path.stage_us("queue"),
            path.stage_us("steal"),
            path.stage_us("compute"),
            path.latency_us,
            path.dominant().name,
        );
    }
    let totals = attribution_totals(paths);
    let grand: u64 = totals.iter().map(|(_, us)| us).sum();
    let _ = writeln!(out, "-- budget attribution across all misses --");
    for (name, us) in totals {
        let pct = if grand == 0 {
            0.0
        } else {
            100.0 * us as f64 / grand as f64
        };
        let _ = writeln!(out, "{name:<12} {us:>9} µs  {pct:>5.1}%");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pran_telemetry::trace::{Domain, TraceEvent};

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

    #[test]
    fn critical_path_attribution_is_exact() {
        let budget = DEFAULT_BUDGET_US;
        let on_core = |core, stolen, task| Subframe {
            core: Some(core),
            stolen,
            ..task
        };
        let events = vec![
            // On time: not reported.
            task(0, 100, 150, 900, 2000).to_event(None),
            // Missed, not stolen: arrival 1000, fronthaul 120, queue
            // 800, compute 1200 ⇒ finish 3120 > deadline 3000.
            on_core(2, false, task(1, 1120, 1920, 3120, 3000)).to_event(None),
            // Missed and stolen by core 3 at t=2500.
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
            on_core(3, true, task(2, 2100, 2600, 4400, 4000)).to_event(None),
        ];
        let paths = critical_paths(&events, budget);
        assert_eq!(paths.len(), 2);
        // Sorted worst-first: cell 2 overshoots by 400, cell 1 by 120.
        assert_eq!(paths[0].cell, 2);
        assert_eq!(paths[1].cell, 1);

        let miss = &paths[1];
        assert_eq!(miss.arrival_us, 1000);
        assert_eq!(miss.latency_us, 2120);
        assert_eq!(miss.attributed_us(), miss.latency_us);
        assert_eq!(miss.stage_us("fronthaul"), 120);
        assert_eq!(miss.stage_us("queue"), 800);
        assert_eq!(miss.stage_us("steal"), 0);
        assert_eq!(miss.stage_us("compute"), 1200);
        assert_eq!(miss.dominant().name, "compute");

        let stolen = &paths[0];
        assert_eq!(stolen.stage_us("fronthaul"), 100);
        assert_eq!(stolen.stage_us("queue"), 400); // release 2100 → steal 2500
        assert_eq!(stolen.stage_us("steal"), 100); // steal 2500 → start 2600
        assert_eq!(stolen.stage_us("compute"), 1800);
        assert_eq!(stolen.attributed_us(), stolen.latency_us);

        let table = attribution_table(&paths);
        assert!(table.contains("2 misses"));
        assert!(table.contains("fronthaul"));
        assert!(attribution_table(&[]).contains("no deadline misses"));
        let totals = attribution_totals(&paths);
        assert_eq!(totals[3], ("compute", 3000));
    }

    #[test]
    fn tightened_deadline_clamps_arrival() {
        // deadline − budget (2100) would land past release (2050):
        // arrival clamps to release, fronthaul reads zero, and the
        // attribution identity still holds.
        let events = [task(0, 2050, 2050, 4200, 4100).to_event(None)];
        let paths = critical_paths(&events, DEFAULT_BUDGET_US);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].arrival_us, 2050);
        assert_eq!(paths[0].stage_us("fronthaul"), 0);
        assert_eq!(paths[0].attributed_us(), paths[0].latency_us);
    }
}
