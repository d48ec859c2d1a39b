//! Fine-timescale real-time scheduling of subframe processing tasks.
//!
//! Every TTI, every active cell emits a processing task with a hard
//! deadline (the HARQ compute budget). The pool must finish them on a
//! shared set of cores. This module simulates non-preemptive,
//! work-conserving multicore scheduling under three policies — global EDF
//! (PRAN's choice), global FIFO, and statically partitioned cores (the
//! distributed-RAN baseline, one cell bound to one core) — and reports
//! deadline misses, the metric experiment E6 sweeps against utilization.

pub mod batch;
pub mod parallel;
pub mod workload;

pub use batch::{simulate_into, BatchOutcome, SimScratch, TaskBatch};
pub use parallel::{ParallelConfig, ParallelExecutor, ParallelOutcome, ParallelScratch};

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// One subframe-processing task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtTask {
    /// Dense task id (index into the outcome's vectors).
    pub id: usize,
    /// Cell the task belongs to (used by partitioned policies).
    pub cell: usize,
    /// Absolute release time (subframe arrival at the pool).
    pub release: Duration,
    /// Absolute deadline.
    pub deadline: Duration,
    /// Required processing time on one core.
    pub service: Duration,
}

/// Scheduling policy of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Global earliest-deadline-first across all cores.
    GlobalEdf,
    /// Global least-laxity-first: order by `deadline − service` (for
    /// non-preemptive dispatch, laxity ordering is time-invariant, so the
    /// static key is exact). Prioritizes long jobs near their deadline.
    GlobalLlf,
    /// Global FIFO (by release time) across all cores.
    GlobalFifo,
    /// Cells statically bound to cores (`cell % cores`), FIFO per core.
    Partitioned,
}

impl Policy {
    /// All policies.
    pub fn all() -> [Policy; 4] {
        [
            Policy::GlobalEdf,
            Policy::GlobalLlf,
            Policy::GlobalFifo,
            Policy::Partitioned,
        ]
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Policy::GlobalEdf => "global-EDF",
            Policy::GlobalLlf => "global-LLF",
            Policy::GlobalFifo => "global-FIFO",
            Policy::Partitioned => "partitioned",
        }
    }
}

/// Result of simulating a task set under a policy.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Finish time per task id.
    pub finish: Vec<Duration>,
    /// Deadline-miss flag per task id.
    pub missed: Vec<bool>,
    /// Busy time accumulated per core.
    pub core_busy: Vec<Duration>,
    /// Time the last task finished.
    pub makespan: Duration,
}

impl SimOutcome {
    /// Number of missed deadlines.
    pub fn misses(&self) -> usize {
        self.missed.iter().filter(|&&m| m).count()
    }

    /// Fraction of tasks missing their deadline.
    pub fn miss_ratio(&self) -> f64 {
        if self.missed.is_empty() {
            0.0
        } else {
            self.misses() as f64 / self.missed.len() as f64
        }
    }

    /// Worst lateness (finish − deadline) across tasks; zero when all met.
    pub fn max_lateness(&self, tasks: &[RtTask]) -> Duration {
        tasks
            .iter()
            .map(|t| self.finish[t.id].saturating_sub(t.deadline))
            .max()
            .unwrap_or(Duration::ZERO)
    }

    /// Aggregate core utilization over the makespan.
    pub fn utilization(&self) -> f64 {
        if self.makespan.is_zero() || self.core_busy.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.core_busy.iter().map(Duration::as_secs_f64).sum();
        busy / (self.makespan.as_secs_f64() * self.core_busy.len() as f64)
    }
}

/// Simulate a task set on `cores` identical cores under `policy`.
///
/// Non-preemptive and work-conserving: whenever a core is free and tasks
/// are ready, the policy's best ready task starts immediately.
///
/// # Panics
/// Panics if `cores == 0` or any task id is out of range.
pub fn simulate(tasks: &[RtTask], cores: usize, policy: Policy) -> SimOutcome {
    assert!(cores >= 1, "need at least one core");
    let n = tasks.len();
    for t in tasks {
        assert!(t.id < n, "task id {} out of range", t.id);
    }

    let out = match policy {
        Policy::Partitioned => {
            // Split by cell % cores and run each partition on one core.
            let mut finish = vec![Duration::ZERO; n];
            let mut missed = vec![false; n];
            let mut core_busy = vec![Duration::ZERO; cores];
            let mut makespan = Duration::ZERO;
            #[allow(clippy::needless_range_loop)] // `core` indexes core_busy too
            for core in 0..cores {
                let part: Vec<RtTask> = tasks
                    .iter()
                    .copied()
                    .filter(|t| t.cell % cores == core)
                    .collect();
                let out = simulate_global(&part, 1, SelectBy::Release);
                for (local, t) in part.iter().enumerate() {
                    finish[t.id] = out.finish_local[local];
                    missed[t.id] = out.missed_local[local];
                }
                core_busy[core] = out.core_busy[0];
                makespan = makespan.max(out.makespan);
            }
            SimOutcome {
                finish,
                missed,
                core_busy,
                makespan,
            }
        }
        Policy::GlobalEdf => from_global(
            tasks,
            simulate_global(tasks, cores, SelectBy::Deadline),
            cores,
        ),
        Policy::GlobalLlf => {
            from_global(tasks, simulate_global(tasks, cores, SelectBy::Slack), cores)
        }
        Policy::GlobalFifo => from_global(
            tasks,
            simulate_global(tasks, cores, SelectBy::Release),
            cores,
        ),
    };
    if pran_telemetry::enabled() {
        // Non-preemptive dispatch: each task runs contiguously, so its
        // start on the simulated timeline is finish − service.
        for t in tasks {
            let finish = out.finish[t.id].as_micros() as u64;
            let service = t.service.as_micros() as u64;
            pran_telemetry::Subframe {
                cell: t.cell as u64,
                release_us: t.release.as_micros() as u64,
                start_us: finish.saturating_sub(service),
                finish_us: finish,
                deadline_us: t.deadline.as_micros() as u64,
                core: None,
                stolen: false,
            }
            .emit(Some(policy.label()));
        }
    }
    out
}

fn from_global(tasks: &[RtTask], g: GlobalOutcome, _cores: usize) -> SimOutcome {
    let n = tasks.len();
    let mut finish = vec![Duration::ZERO; n];
    let mut missed = vec![false; n];
    for (local, t) in tasks.iter().enumerate() {
        finish[t.id] = g.finish_local[local];
        missed[t.id] = g.missed_local[local];
    }
    SimOutcome {
        finish,
        missed,
        core_busy: g.core_busy,
        makespan: g.makespan,
    }
}

/// Ready-queue ordering key.
enum SelectBy {
    Deadline,
    Release,
    /// `deadline − service` (static laxity).
    Slack,
}

struct GlobalOutcome {
    finish_local: Vec<Duration>,
    missed_local: Vec<bool>,
    core_busy: Vec<Duration>,
    makespan: Duration,
}

fn simulate_global(tasks: &[RtTask], cores: usize, select: SelectBy) -> GlobalOutcome {
    let n = tasks.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (tasks[i].release, tasks[i].id));

    // Min-heap of (free_at, core_index).
    let mut core_free: BinaryHeap<Reverse<(Duration, usize)>> =
        (0..cores).map(|c| Reverse((Duration::ZERO, c))).collect();
    // Min-heap of (key, local_index).
    let mut ready: BinaryHeap<Reverse<(Duration, usize)>> = BinaryHeap::new();

    let mut finish_local = vec![Duration::ZERO; n];
    let mut missed_local = vec![false; n];
    let mut core_busy = vec![Duration::ZERO; cores];
    let mut makespan = Duration::ZERO;

    let key = |i: usize| match select {
        SelectBy::Deadline => tasks[i].deadline,
        SelectBy::Release => tasks[i].release,
        SelectBy::Slack => tasks[i].deadline.saturating_sub(tasks[i].service),
    };

    let mut next = 0usize; // index into `order`
    while next < n || !ready.is_empty() {
        let Reverse((free_at, core)) = *core_free.peek().expect("cores exist");
        if ready.is_empty() {
            // Jump to the next release.
            let t = tasks[order[next]].release.max(free_at);
            while next < n && tasks[order[next]].release <= t {
                let i = order[next];
                ready.push(Reverse((key(i), i)));
                next += 1;
            }
            continue;
        }
        // Start time is when the earliest core frees up; admit everything
        // released by then so the policy chooses among all ready tasks.
        let start = free_at;
        while next < n && tasks[order[next]].release <= start {
            let i = order[next];
            ready.push(Reverse((key(i), i)));
            next += 1;
        }
        let Reverse((_, i)) = ready.pop().expect("ready non-empty");
        let begin = start.max(tasks[i].release);
        let end = begin + tasks[i].service;
        finish_local[i] = end;
        missed_local[i] = end > tasks[i].deadline;
        core_busy[core] += tasks[i].service;
        makespan = makespan.max(end);
        core_free.pop();
        core_free.push(Reverse((end, core)));
    }

    GlobalOutcome {
        finish_local,
        missed_local,
        core_busy,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> Duration {
        Duration::from_millis(x)
    }

    fn us(x: u64) -> Duration {
        Duration::from_micros(x)
    }

    fn task(id: usize, release_us: u64, deadline_us: u64, service_us: u64) -> RtTask {
        RtTask {
            id,
            cell: id,
            release: us(release_us),
            deadline: us(deadline_us),
            service: us(service_us),
        }
    }

    #[test]
    fn single_task_meets_deadline() {
        let tasks = [task(0, 0, 2000, 500)];
        let out = simulate(&tasks, 1, Policy::GlobalEdf);
        assert_eq!(out.finish[0], us(500));
        assert_eq!(out.misses(), 0);
        assert_eq!(out.makespan, us(500));
    }

    #[test]
    fn edf_priorities_beat_fifo_on_urgent_late_arrival() {
        // Task 0 released first with a loose deadline; task 1 arrives just
        // after with a tight one. One core. FIFO runs 0 first and misses 1;
        // EDF cannot preempt 0 (non-preemptive) but when both are ready it
        // picks 1 first.
        let tasks = [
            task(0, 0, 10_000, 1_000), // loose
            task(1, 0, 1_500, 800),    // tight
        ];
        let fifo_order_dependent = simulate(&tasks, 1, Policy::GlobalFifo);
        let edf = simulate(&tasks, 1, Policy::GlobalEdf);
        assert_eq!(edf.misses(), 0, "EDF should run the tight task first");
        // FIFO (release ties broken by id) runs task 0 first → task 1 late.
        assert_eq!(fifo_order_dependent.misses(), 1);
    }

    #[test]
    fn work_conserving_across_cores() {
        // Two simultaneous tasks, two cores: both finish at their service.
        let tasks = [task(0, 0, 5000, 1000), task(1, 0, 5000, 1000)];
        let out = simulate(&tasks, 2, Policy::GlobalEdf);
        assert_eq!(out.finish[0], us(1000));
        assert_eq!(out.finish[1], us(1000));
        assert!((out.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gap_advances_clock() {
        let tasks = [task(0, 0, 2000, 100), task(1, 10_000, 12_000, 100)];
        let out = simulate(&tasks, 1, Policy::GlobalFifo);
        assert_eq!(out.finish[1], us(10_100));
        assert_eq!(out.misses(), 0);
    }

    #[test]
    fn overload_misses_deadlines() {
        // 4 tasks of 1 ms due in 2 ms on one core: at most 2 can make it.
        let tasks: Vec<RtTask> = (0..4).map(|i| task(i, 0, 2000, 1000)).collect();
        let out = simulate(&tasks, 1, Policy::GlobalEdf);
        assert_eq!(out.misses(), 2);
        assert!(out.max_lateness(&tasks) >= ms(1));
    }

    #[test]
    fn partitioned_suffers_from_skew() {
        // All load on cells that map to core 0 of 2 → partitioned misses,
        // global EDF spreads and meets everything.
        let tasks: Vec<RtTask> = (0..4)
            .map(|i| RtTask {
                id: i,
                cell: 2 * i, // all even cells → core 0 under cell % 2
                release: Duration::ZERO,
                deadline: us(2500),
                service: us(1000),
            })
            .collect();
        let part = simulate(&tasks, 2, Policy::Partitioned);
        let edf = simulate(&tasks, 2, Policy::GlobalEdf);
        assert_eq!(edf.misses(), 0, "global EDF fits 2 per core");
        assert!(part.misses() >= 1, "partitioned must overload core 0");
    }

    #[test]
    fn partitioned_matches_global_when_balanced() {
        let tasks: Vec<RtTask> = (0..4)
            .map(|i| RtTask {
                id: i,
                cell: i,
                release: Duration::ZERO,
                deadline: us(3000),
                service: us(1000),
            })
            .collect();
        let part = simulate(&tasks, 2, Policy::Partitioned);
        assert_eq!(part.misses(), 0);
        assert_eq!(part.makespan, us(2000));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let tasks: Vec<RtTask> = (0..6).map(|i| task(i, 0, 10_000, 500)).collect();
        let a = simulate(&tasks, 2, Policy::GlobalEdf);
        let b = simulate(&tasks, 2, Policy::GlobalEdf);
        assert_eq!(a.finish, b.finish);
    }

    #[test]
    fn busy_time_accounts_all_service() {
        let tasks: Vec<RtTask> = (0..5)
            .map(|i| task(i, i as u64 * 100, 10_000, 300))
            .collect();
        for policy in Policy::all() {
            let out = simulate(&tasks, 2, policy);
            let busy: Duration = out.core_busy.iter().sum();
            assert_eq!(busy, us(1500), "{}", policy.label());
        }
    }

    #[test]
    fn llf_orders_by_slack_not_deadline() {
        // A: earlier deadline, lots of slack. B: later deadline, tiny
        // slack. EDF dispatches A first; LLF dispatches B first. (On one
        // core with equal releases EDF is optimal, so the point here is
        // the ordering and *which* task gets sacrificed, not the count.)
        let tasks = [
            RtTask {
                id: 0,
                cell: 0,
                release: us(0),
                deadline: us(1_200),
                service: us(200),
            },
            RtTask {
                id: 1,
                cell: 1,
                release: us(0),
                deadline: us(1_500),
                service: us(1_400),
            },
        ];
        let edf = simulate(&tasks, 1, Policy::GlobalEdf);
        assert!(
            edf.finish[0] < edf.finish[1],
            "EDF runs the early deadline first"
        );
        assert_eq!(edf.misses(), 1, "the long job pays under EDF");
        assert!(!edf.missed[0] && edf.missed[1]);

        let llf = simulate(&tasks, 1, Policy::GlobalLlf);
        assert!(
            llf.finish[1] < llf.finish[0],
            "LLF runs the tight-slack job first"
        );
        assert_eq!(llf.misses(), 1, "the short job pays under LLF");
        assert!(llf.missed[0] && !llf.missed[1]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        simulate(&[], 0, Policy::GlobalEdf);
    }

    #[test]
    fn empty_task_set() {
        let out = simulate(&[], 4, Policy::GlobalEdf);
        assert_eq!(out.miss_ratio(), 0.0);
        assert_eq!(out.makespan, Duration::ZERO);
    }
}
