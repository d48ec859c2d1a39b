//! Work-stealing parallel subframe executor: the pool-server compute model.
//!
//! The simulator in the parent module scores scheduling *policies*; this
//! executor models (and optionally really runs) the execution *mechanism*
//! PRAN assumes inside each pool server: per-cell subframe tasks are
//! batched onto N cores with cell affinity (`cell % cores`, preserving
//! per-cell processing locality), and idle cores steal whole batches from
//! loaded ones so per-cell load skew cannot strand compute — the property
//! that separates a pooled BBU from a fixed per-cell appliance.
//!
//! Worker threads pull batches from [`crossbeam::deque`] work-stealing
//! queues. Execution is gated on per-core *virtual clocks*: a worker may
//! grab its next batch only while its simulated-core clock is minimal
//! among live cores, so the recorded timeline is a greedy non-preemptive
//! N-core schedule even when the host machine has fewer physical cores
//! than the pool server being modeled. Real per-task payloads (e.g.
//! actual turbo decodes) still execute concurrently on whatever hardware
//! parallelism exists, because the clock is advanced *before* the payload
//! runs.
//!
//! Per task the executor records finish time, signed deadline slack and a
//! miss flag; per run it reports per-core busy time, makespan and steal
//! count — the inputs to E6's miss-fraction-vs-cores curves.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crossbeam::deque::{Stealer, Worker};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use super::RtTask;

/// Knobs of the parallel subframe executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// Simulated cores per pool server.
    pub cores: usize,
    /// Subframe tasks dispatched — and stolen — as one unit. Larger
    /// batches amortize dispatch but coarsen load balancing.
    pub batch: usize,
    /// Whether idle cores steal batches from loaded ones. Off, the
    /// executor degrades to statically partitioned per-cell cores.
    pub steal: bool,
}

impl ParallelConfig {
    /// Evaluation defaults: 4 cores, 4-task batches, stealing on.
    pub fn default_eval() -> Self {
        ParallelConfig {
            cores: 4,
            batch: 4,
            steal: true,
        }
    }

    /// Panic on nonsensical values.
    ///
    /// # Panics
    /// Panics if `cores == 0` or `batch == 0`.
    pub fn validate(&self) {
        assert!(self.cores >= 1, "need at least one core");
        assert!(self.batch >= 1, "batch must be at least 1");
    }
}

/// Per-task outcome of a parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskOutcome {
    /// The task's id.
    pub id: usize,
    /// Finish time on the simulated-core timeline.
    pub finish: Duration,
    /// Signed deadline slack in microseconds (`deadline − finish`;
    /// negative = missed by that much).
    pub slack_us: i64,
    /// Whether the task finished past its deadline.
    pub missed: bool,
    /// Simulated core that executed it.
    pub core: usize,
    /// Whether it ran away from its cell's home core (was stolen).
    pub stolen: bool,
}

/// Aggregate outcome of one parallel run.
#[derive(Debug, Clone, Default)]
pub struct ParallelOutcome {
    /// One record per task, sorted by id.
    pub tasks: Vec<TaskOutcome>,
    /// Busy time accumulated per simulated core.
    pub core_busy: Vec<Duration>,
    /// Time the last task finished on the simulated timeline.
    pub makespan: Duration,
    /// Batches executed away from their home core.
    pub steals: u64,
}

impl ParallelOutcome {
    /// Number of missed deadlines.
    pub fn misses(&self) -> usize {
        self.tasks.iter().filter(|t| t.missed).count()
    }

    /// Fraction of tasks missing their deadline.
    pub fn miss_ratio(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.misses() as f64 / self.tasks.len() as f64
        }
    }

    /// Smallest slack across tasks (the tightest call of the run);
    /// `i64::MAX` when no tasks ran.
    pub fn min_slack_us(&self) -> i64 {
        self.tasks
            .iter()
            .map(|t| t.slack_us)
            .min()
            .unwrap_or(i64::MAX)
    }

    /// Mean slack across tasks in microseconds.
    pub fn mean_slack_us(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.tasks.iter().map(|t| t.slack_us as f64).sum::<f64>() / self.tasks.len() as f64
        }
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

/// A batch of same-cell tasks: the unit of dispatch and stealing.
struct Batch {
    home: usize,
    tasks: Vec<RtTask>,
}

/// Clock sentinel for a worker that has drained all reachable work.
const RETIRED: u64 = u64::MAX;

/// The executor. Cheap to construct; all state lives per run.
#[derive(Debug, Clone)]
pub struct ParallelExecutor {
    config: ParallelConfig,
}

impl ParallelExecutor {
    /// Create an executor.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(config: ParallelConfig) -> Self {
        config.validate();
        ParallelExecutor { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ParallelConfig {
        &self.config
    }

    /// Execute a task set on the simulated cores (no real payload).
    ///
    /// # Panics
    /// Panics if any task id is out of `0..tasks.len()`.
    pub fn execute(&self, tasks: &[RtTask]) -> ParallelOutcome {
        self.execute_with(tasks, |_| {})
    }

    /// Execute into a caller-owned outcome, reusing its record and
    /// busy-time buffers — the repeated-call entry point for hot loops
    /// (one executor per run, one outcome reused per server per step).
    ///
    /// # Panics
    /// Panics if any task id is out of `0..tasks.len()`.
    pub fn execute_into(&self, tasks: &[RtTask], out: &mut ParallelOutcome) {
        self.execute_into_with(tasks, out, |_| {});
    }

    /// Execute a task set, additionally running `payload` once per task
    /// (e.g. a real turbo decode). Payloads run concurrently on the host's
    /// physical cores; deadline accounting stays on the simulated-core
    /// timeline.
    ///
    /// # Panics
    /// Panics if any task id is out of `0..tasks.len()`.
    pub fn execute_with<F>(&self, tasks: &[RtTask], payload: F) -> ParallelOutcome
    where
        F: Fn(&RtTask) + Sync,
    {
        let mut out = ParallelOutcome {
            tasks: Vec::new(),
            core_busy: Vec::new(),
            makespan: Duration::ZERO,
            steals: 0,
        };
        self.execute_into_with(tasks, &mut out, payload);
        out
    }

    /// [`ParallelExecutor::execute_with`] writing into a caller-owned
    /// outcome (see [`ParallelExecutor::execute_into`]).
    ///
    /// # Panics
    /// Panics if any task id is out of `0..tasks.len()`.
    pub fn execute_into_with<F>(&self, tasks: &[RtTask], out: &mut ParallelOutcome, payload: F)
    where
        F: Fn(&RtTask) + Sync,
    {
        let cfg = self.config;
        let n = tasks.len();
        for t in tasks {
            assert!(t.id < n, "task id {} out of range", t.id);
        }
        out.core_busy.clear();
        out.core_busy.resize(cfg.cores, Duration::ZERO);
        out.makespan = Duration::ZERO;
        out.steals = 0;
        if n == 0 {
            out.tasks.clear();
            return;
        }

        // Batch per cell, then queue each batch on its cell's home core in
        // release order. Owners and thieves both consume from the front
        // (FIFO), so a steal always takes the victim's most urgent
        // pending batch — stealing from the far end would parallelize the
        // *future* while early deadlines serialize on the home core.
        let queues: Vec<Worker<Batch>> = (0..cfg.cores).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Batch>> = queues.iter().map(Worker::stealer).collect();
        for batch in make_batches(tasks, cfg.batch, cfg.cores) {
            queues[batch.home].push(batch);
        }

        let clocks: Vec<AtomicU64> = (0..cfg.cores).map(|_| AtomicU64::new(0)).collect();
        let busy_us: Vec<AtomicU64> = (0..cfg.cores).map(|_| AtomicU64::new(0)).collect();
        let steals = AtomicU64::new(0);
        // Reuse the caller's record buffer as the collection sink.
        let mut record_buf = std::mem::take(&mut out.tasks);
        record_buf.clear();
        record_buf.reserve(n);
        let records: Mutex<Vec<TaskOutcome>> = Mutex::new(record_buf);

        crossbeam::scope(|scope| {
            for core in 0..cfg.cores {
                let clocks = &clocks;
                let busy_us = &busy_us;
                let steals = &steals;
                let records = &records;
                let stealers = &stealers;
                let payload = &payload;
                scope.spawn(move |_| {
                    run_worker(
                        core, stealers, clocks, busy_us, steals, records, &cfg, payload,
                    )
                });
            }
        })
        .expect("worker panicked");

        let mut tasks = records.into_inner();
        tasks.sort_by_key(|t| t.id);
        out.makespan = tasks
            .iter()
            .map(|t| t.finish)
            .max()
            .unwrap_or(Duration::ZERO);
        for (slot, b) in out.core_busy.iter_mut().zip(&busy_us) {
            *slot = Duration::from_micros(b.load(Ordering::Relaxed));
        }
        out.steals = steals.load(Ordering::Relaxed);
        out.tasks = tasks;
    }
}

/// Group tasks into per-cell batches of at most `batch` tasks, preserving
/// input order within a cell, homed on `cell % cores`.
fn make_batches(tasks: &[RtTask], batch: usize, cores: usize) -> Vec<Batch> {
    let mut by_cell: BTreeMap<usize, Vec<RtTask>> = BTreeMap::new();
    for t in tasks {
        by_cell.entry(t.cell).or_default().push(*t);
    }
    let mut batches = Vec::new();
    for (cell, ts) in by_cell {
        for chunk in ts.chunks(batch) {
            batches.push(Batch {
                home: cell % cores,
                tasks: chunk.to_vec(),
            });
        }
    }
    // Earliest work at the front of each queue.
    batches.sort_by_key(|b| (b.tasks[0].release, b.tasks[0].id));
    batches
}

/// One worker's run loop. Grabs are gated on holding the minimal virtual
/// clock among live cores, which makes the recorded timeline a greedy
/// N-core schedule independent of host threading.
#[allow(clippy::too_many_arguments)] // bundle of per-run shared state
fn run_worker<F>(
    core: usize,
    stealers: &[Stealer<Batch>],
    clocks: &[AtomicU64],
    busy_us: &[AtomicU64],
    steals: &AtomicU64,
    records: &Mutex<Vec<TaskOutcome>>,
    cfg: &ParallelConfig,
    payload: &F,
) where
    F: Fn(&RtTask) + Sync,
{
    // Hoisted once per worker: when no consumer (buffered tracer or live
    // sink) wants events, the loop below must not even build event field
    // arrays.
    let telemetry_on = pran_telemetry::emitting();
    let mut clock = 0u64;
    let mut busy = 0u64;
    loop {
        let min = clocks
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .min()
            .unwrap_or(0);
        if clock > min {
            // A virtually-earlier core must pick first; let it run.
            std::thread::yield_now();
            continue;
        }

        // Consume the home queue through its stealer handle: the vendored
        // deque's owner-side `pop` is LIFO, and release order must be
        // preserved (true `new_fifo` semantics share the front end).
        //
        // Work conservation is the point of stealing, so the trigger is
        // "my next batch has not been released yet", not "my queue is
        // empty" — with queues filled upfront, the latter only fires at
        // the tail of the run while a backlogged peer's ready work
        // serializes. A grabbed own batch cannot be requeued (deques
        // only push at the back), so when a steal lands both batches run
        // here in release order; the own batch would have idled this
        // core until its release anyway.
        let mut grabbed: Vec<Batch> = Vec::new();
        match stealers[core].steal().success() {
            Some(own) => {
                let own_release = own.tasks[0].release.as_micros() as u64;
                if cfg.steal && own_release > clock {
                    // Only raid a peer with strictly more queued work:
                    // between balanced queues a "steal" would just swap
                    // future batches around and shred cell affinity.
                    let own_len = stealers[core].len();
                    if let Some(stolen) = steal_from_peers(core, stealers, own_len) {
                        grabbed.push(stolen);
                    }
                }
                grabbed.push(own);
                grabbed.sort_by_key(|b| (b.tasks[0].release, b.tasks[0].id));
            }
            None if cfg.steal => {
                if let Some(stolen) = steal_from_peers(core, stealers, 0) {
                    grabbed.push(stolen);
                }
            }
            None => {}
        }
        if grabbed.is_empty() {
            // No reachable work left: retire this core.
            busy_us[core].store(busy, Ordering::Release);
            clocks[core].store(RETIRED, Ordering::Release);
            return;
        }

        for batch in &grabbed {
            let stolen = batch.home != core;
            if stolen {
                steals.fetch_add(1, Ordering::Relaxed);
                if telemetry_on {
                    pran_telemetry::trace::sim_event(
                        "rt.steal",
                        clock,
                        &[
                            ("thief", core.into()),
                            ("home", batch.home.into()),
                            ("tasks", batch.tasks.len().into()),
                        ],
                    );
                }
            }

            // Account the whole batch on the virtual timeline *before*
            // running payloads, so other workers can proceed concurrently.
            let mut outcomes = Vec::with_capacity(batch.tasks.len());
            for t in &batch.tasks {
                let release = t.release.as_micros() as u64;
                let service = t.service.as_micros() as u64;
                let start = clock.max(release);
                let finish = start + service;
                busy += service;
                clock = finish;
                let deadline = t.deadline.as_micros() as u64;
                if telemetry_on {
                    pran_telemetry::trace::sim_event(
                        "subframe",
                        finish,
                        &[
                            ("cell", t.cell.into()),
                            ("release_us", release.into()),
                            ("start_us", start.into()),
                            ("finish_us", finish.into()),
                            ("deadline_us", deadline.into()),
                            ("core", core.into()),
                            ("stolen", stolen.into()),
                        ],
                    );
                }
                outcomes.push(TaskOutcome {
                    id: t.id,
                    finish: Duration::from_micros(finish),
                    slack_us: deadline as i64 - finish as i64,
                    missed: finish > deadline,
                    core,
                    stolen,
                });
            }
            clocks[core].store(clock, Ordering::Release);
            records.lock().extend(outcomes);
            for t in &batch.tasks {
                payload(t);
            }
        }
    }
}

/// Steal one batch from the most backlogged peer holding strictly more
/// than `min_len` queued batches. Queues only drain after setup, so an
/// empty victim stays empty — no retry loop needed.
fn steal_from_peers(core: usize, stealers: &[Stealer<Batch>], min_len: usize) -> Option<Batch> {
    let mut victims: Vec<(usize, usize)> = (0..stealers.len())
        .filter(|&v| v != core)
        .map(|v| (v, stealers[v].len()))
        .filter(|&(_, len)| len > min_len)
        .collect();
    victims.sort_by_key(|&(_, len)| std::cmp::Reverse(len));
    victims
        .into_iter()
        .find_map(|(v, _)| stealers[v].steal().success())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` equal tasks on `cells` cells, all released at time zero with a
    /// generous deadline — a pure throughput workload.
    fn burst(n: usize, cells: usize, service_us: u64, deadline_us: u64) -> Vec<RtTask> {
        (0..n)
            .map(|i| RtTask {
                id: i,
                cell: i % cells,
                release: Duration::ZERO,
                deadline: Duration::from_micros(deadline_us),
                service: Duration::from_micros(service_us),
            })
            .collect()
    }

    fn exec(cores: usize, batch: usize, steal: bool) -> ParallelExecutor {
        ParallelExecutor::new(ParallelConfig {
            cores,
            batch,
            steal,
        })
    }

    #[test]
    fn conserves_work_and_orders_records() {
        let tasks = burst(24, 6, 100, 1_000_000);
        let out = exec(4, 2, true).execute(&tasks);
        assert_eq!(out.tasks.len(), 24);
        for (i, t) in out.tasks.iter().enumerate() {
            assert_eq!(t.id, i);
        }
        let busy: Duration = out.core_busy.iter().sum();
        let total: Duration = tasks.iter().map(|t| t.service).sum();
        assert_eq!(busy, total, "work lost or invented");
        assert!(out.makespan >= total / 4, "below the critical-path bound");
        assert!(out.makespan <= total, "worse than serial");
    }

    #[test]
    fn four_simulated_cores_double_batched_throughput() {
        // The tentpole acceptance: a batched turbo-decode-scale burst
        // (hundreds of µs per subframe task) must run ≥ 2× faster on 4
        // simulated cores than on 1. Expected ≈ 4× minus batching slack.
        let tasks = burst(64, 8, 400, 60_000);
        let serial = exec(1, 4, true).execute(&tasks).makespan;
        let quad = exec(4, 4, true).execute(&tasks).makespan;
        assert!(
            quad * 2 <= serial,
            "4-core makespan {quad:?} not 2x better than serial {serial:?}"
        );
    }

    #[test]
    fn stealing_rescues_skewed_cells() {
        // All load on 2 of 8 cells → home cores 0 and 1 only. Without
        // stealing, 4 cores perform like 2; with it, like 4.
        let tasks = burst(32, 2, 200, 1_000_000);
        let pinned = exec(4, 1, false).execute(&tasks);
        let stolen = exec(4, 1, true).execute(&tasks);
        assert_eq!(pinned.steals, 0);
        assert!(stolen.steals > 0, "idle cores must steal");
        assert!(
            stolen.makespan * 3 <= pinned.makespan * 2,
            "stealing {:?} should clearly beat pinned {:?}",
            stolen.makespan,
            pinned.makespan
        );
    }

    #[test]
    fn no_steal_matches_partitioned_model_deterministically() {
        // steal=false is a deterministic static partition: repeated runs
        // agree exactly, and every task runs on its cell's home core.
        let tasks = burst(20, 5, 150, 1_000_000);
        let a = exec(4, 2, false).execute(&tasks);
        let b = exec(4, 2, false).execute(&tasks);
        assert_eq!(a.tasks, b.tasks);
        for t in &a.tasks {
            assert!(!t.stolen);
            assert_eq!(t.core, tasks[t.id].cell % 4);
        }
    }

    #[test]
    fn slack_and_misses_reported() {
        // One core, two tasks of 300 µs each, 500 µs deadline: the first
        // finishes at 300 (slack +200), the second at 600 (slack −100).
        let tasks = burst(2, 1, 300, 500);
        let out = exec(1, 1, false).execute(&tasks);
        assert_eq!(out.misses(), 1);
        assert_eq!(out.min_slack_us(), -100);
        let slacks: Vec<i64> = out.tasks.iter().map(|t| t.slack_us).collect();
        assert_eq!(slacks, vec![200, -100]);
        assert!((out.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn respects_release_times() {
        let tasks = vec![RtTask {
            id: 0,
            cell: 0,
            release: Duration::from_micros(900),
            deadline: Duration::from_micros(2_000),
            service: Duration::from_micros(100),
        }];
        let out = exec(2, 1, true).execute(&tasks);
        assert_eq!(out.tasks[0].finish, Duration::from_micros(1_000));
        assert!(!out.tasks[0].missed);
    }

    #[test]
    fn payload_runs_once_per_task() {
        use std::sync::atomic::AtomicUsize;
        let tasks = burst(12, 3, 50, 1_000_000);
        let calls = AtomicUsize::new(0);
        let out = exec(3, 2, true).execute_with(&tasks, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 12);
        assert_eq!(out.tasks.len(), 12);
    }

    #[test]
    fn empty_task_set() {
        let out = exec(4, 4, true).execute(&[]);
        assert!(out.tasks.is_empty());
        assert_eq!(out.makespan, Duration::ZERO);
        assert_eq!(out.miss_ratio(), 0.0);
        assert_eq!(out.min_slack_us(), i64::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        exec(0, 1, true);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_rejected() {
        exec(1, 0, true);
    }
}
