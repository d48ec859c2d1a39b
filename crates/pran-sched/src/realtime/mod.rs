//! Fine-timescale real-time scheduling of subframe processing tasks.
//!
//! Every TTI, every active cell emits a processing task with a hard
//! deadline (the HARQ compute budget). The pool must finish them on a
//! shared set of cores. One dispatcher, [`simulate_into`] (`batch.rs`),
//! simulates non-preemptive, work-conserving multicore scheduling under
//! four policies — global EDF (PRAN's choice), global LLF, global FIFO,
//! and statically partitioned cores (the distributed-RAN baseline, one
//! cell bound to one core) — and reports per-task finish times and
//! deadline misses, the metric experiment E6 sweeps against utilization.
//! Every policy runs on one ready set, a bitset over priority
//! positions whose lowest set bit is the released task with the least
//! `(key, row)`, the key a deadline, a laxity or a release: a position
//! is the task's admission index (release key), its row (EDF on
//! deadlines in row order) or its rank in one sort of packed `(key,
//! row)` integers (any other batch). Each task goes to the first core to
//! free, read from one flat clock per core.
//! [`simulate`] runs it once on a slice of [`RtTask`]s; the pool calls it
//! per server per step on reused buffers, or — when every release sits
//! on the TTI grid — [`dispatch_grid`], EDF's only specialisation: the
//! same assignment made TTI by TTI without expanding the grid into
//! tasks, on a [`TtiGrid`] checked once per pool. [`parallel`] is the
//! pool server's executor, a different machine model (batched,
//! cell-affine, work-stealing, whole-µs clocks).

pub mod batch;
pub mod parallel;
pub mod workload;

pub use batch::{
    dispatch_grid, simulate_into, BatchOutcome, GridOutcome, SimScratch, TaskBatch, TtiGrid,
};
pub use parallel::{ParallelConfig, ParallelExecutor, ParallelOutcome, ParallelScratch};

use serde::{Deserialize, Serialize};
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

/// Simulate a task set on `cores` identical cores under `policy`:
/// [`TaskBatch::from_tasks`] then [`simulate_into`] on fresh buffers.
///
/// # Panics
/// Panics if `cores == 0` or task ids are not dense (`tasks[i].id == i`).
pub fn simulate(tasks: &[RtTask], cores: usize, policy: Policy) -> BatchOutcome {
    let mut out = BatchOutcome::new();
    let batch = TaskBatch::from_tasks(tasks);
    simulate_into(&batch, cores, policy, &mut SimScratch::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(x: u64) -> Duration {
        Duration::from_micros(x)
    }

    /// `x` µs in the outcome's nanosecond columns.
    fn ns(x: u64) -> u64 {
        x * 1_000
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
        assert_eq!(out.finish_ns[0], ns(500));
        assert_eq!(out.misses(), 0);
        assert_eq!(out.makespan_ns, ns(500));
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
        // Two simultaneous tasks, two cores: both finish at their service,
        // and both cores are busy for the whole makespan.
        let tasks = [task(0, 0, 5000, 1000), task(1, 0, 5000, 1000)];
        let out = simulate(&tasks, 2, Policy::GlobalEdf);
        assert_eq!(out.finish_ns[0], ns(1000));
        assert_eq!(out.finish_ns[1], ns(1000));
        assert_eq!(out.core_busy_ns, vec![out.makespan_ns; 2]);
    }

    #[test]
    fn idle_gap_advances_clock() {
        let tasks = [task(0, 0, 2000, 100), task(1, 10_000, 12_000, 100)];
        let out = simulate(&tasks, 1, Policy::GlobalFifo);
        assert_eq!(out.finish_ns[1], ns(10_100));
        assert_eq!(out.misses(), 0);
    }

    #[test]
    fn overload_misses_deadlines() {
        // 4 tasks of 1 ms due in 2 ms on one core: at most 2 can make it.
        let tasks: Vec<RtTask> = (0..4).map(|i| task(i, 0, 2000, 1000)).collect();
        let out = simulate(&tasks, 1, Policy::GlobalEdf);
        assert_eq!(out.misses(), 2);
        let max_lateness = out.finish_ns.iter().map(|&f| f.saturating_sub(ns(2000)));
        assert!(max_lateness.max().unwrap() >= ns(1000));
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
        assert_eq!(part.makespan_ns, ns(2000));
    }

    #[test]
    fn deterministic_tie_breaking() {
        let tasks: Vec<RtTask> = (0..6).map(|i| task(i, 0, 10_000, 500)).collect();
        let a = simulate(&tasks, 2, Policy::GlobalEdf);
        let b = simulate(&tasks, 2, Policy::GlobalEdf);
        assert_eq!(a.finish_ns, b.finish_ns);
    }

    #[test]
    fn busy_time_accounts_all_service() {
        let tasks: Vec<RtTask> = (0..5)
            .map(|i| task(i, i as u64 * 100, 10_000, 300))
            .collect();
        for policy in Policy::all() {
            let out = simulate(&tasks, 2, policy);
            let busy: u64 = out.core_busy_ns.iter().sum();
            assert_eq!(busy, ns(1500), "{}", policy.label());
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
            edf.finish_ns[0] < edf.finish_ns[1],
            "EDF runs the early deadline first"
        );
        assert_eq!(edf.misses(), 1, "the long job pays under EDF");
        assert!(!edf.missed[0] && edf.missed[1]);

        let llf = simulate(&tasks, 1, Policy::GlobalLlf);
        assert!(
            llf.finish_ns[1] < llf.finish_ns[0],
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
        assert_eq!(out.makespan_ns, 0);
    }
}
