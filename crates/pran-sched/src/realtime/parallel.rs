//! Virtual-time parallel subframe executor: the pool-server compute model.
//!
//! The simulator in the parent module scores scheduling *policies*; this
//! executor models (and optionally really runs) the execution *mechanism*
//! PRAN assumes inside each pool server: per-cell subframe tasks are
//! batched onto N cores with cell affinity (`cell % cores`, preserving
//! per-cell processing locality), and idle cores steal whole batches from
//! loaded ones so per-cell load skew cannot strand compute — the property
//! that separates a pooled BBU from a fixed per-cell appliance.
//!
//! The timeline is a pure function of the task set (payload wall time
//! never feeds the simulated clocks), so it is computed by a
//! deterministic scheduler on the calling thread: the live simulated
//! core with the smallest clock — ties to the lowest index — grabs next,
//! which makes the recorded timeline a greedy non-preemptive N-core
//! schedule whatever the host machine looks like, and makes `steal: true`
//! exactly as repeatable as `steal: false`. Host threads appear only in
//! the optional payload stage: [`ParallelExecutor::execute_with`] first
//! schedules, then runs each simulated core's tasks (e.g. actual turbo
//! decodes) on one scoped thread per core, in schedule order.
//!
//! A call does only the work its rows leave open. Rows already in cell
//! order — every batch the pool simulator builds — skip the row sort
//! that groups them into per-cell batches; with stealing off, a core
//! whose queue starts empty or drains retires at once, since its later
//! turns could only retire it. The unit tests hold both shortcuts to the
//! sorting schedule they replaced, stealing on and off, in both row
//! orders.
//!
//! Per task the executor records finish time, signed deadline slack and a
//! miss flag; per run it reports per-core busy time, makespan and steal
//! count — the inputs to E6's miss-fraction-vs-cores curves.

use std::cmp::Reverse;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use super::{RtTask, TaskBatch};

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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskOutcome {
    /// The task's id.
    pub id: usize,
    /// Finish time on the simulated-core timeline, a whole number of
    /// microseconds (see [`ParallelExecutor`]): it can precede the
    /// task's nanosecond-exact release by under 1 µs when the service
    /// time truncates to zero.
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

    /// Task `id` of `batch` as the `subframe` record the executor emits
    /// for it, in its whole-µs domain: `start = max(clock, release)` is
    /// `finish − service` there.
    #[inline]
    pub fn subframe(&self, batch: &TaskBatch, id: usize) -> pran_telemetry::Subframe {
        let t = &self.tasks[id];
        let finish = t.finish.as_micros() as u64;
        pran_telemetry::Subframe {
            cell: u64::from(batch.cell[id]),
            release_us: batch.release_ns[id] / 1_000,
            start_us: finish - batch.service_ns[id] / 1_000,
            finish_us: finish,
            deadline_us: batch.deadline_ns[id] / 1_000,
            core: Some(t.core as u64),
            stolen: t.stolen,
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
#[derive(Debug, Clone, Copy)]
struct Batch {
    home: usize,
    /// Release (nanosecond-exact) and id of the first task: the key that
    /// orders batches within a queue.
    release_ns: u64,
    id: usize,
    /// The batch's tasks are `rows[start..start + len]`.
    start: usize,
    len: usize,
}

/// One simulated core: its queue (a run of the sorted batch list, only
/// ever consumed from the front), clock and busy time in whole µs.
#[derive(Debug, Clone, Copy, Default)]
struct Core {
    head: usize,
    end: usize,
    clock: u64,
    busy: u64,
    retired: bool,
}

impl Core {
    fn queued(&self) -> usize {
        self.end - self.head
    }

    /// Take the front (most urgent) batch of this core's queue.
    fn pop(&mut self) -> Option<usize> {
        (self.head < self.end).then(|| {
            self.head += 1;
            self.head - 1
        })
    }
}

/// Reusable scheduler state of [`ParallelExecutor::execute_batch_into`]:
/// one per hot loop, so repeated calls allocate only when a task set is
/// larger than any before.
#[derive(Debug, Default)]
pub struct ParallelScratch {
    /// Task ids (batch rows) grouped by cell, input order kept within a
    /// cell.
    rows: Vec<usize>,
    /// Batches sorted by (home core, first release, first id): each
    /// core's queue is one contiguous run, most urgent batch first.
    batches: Vec<Batch>,
    cores: Vec<Core>,
    /// `(thief core, grab instant µs)` of every steal of the last call.
    steals: Vec<(u64, u64)>,
}

impl ParallelScratch {
    /// `(thief core, grab instant µs)` of every batch stolen in the last
    /// call, in schedule order — what its `rt.steal` events carry.
    pub fn steals(&self) -> &[(u64, u64)] {
        &self.steals
    }
}

/// The executor. Cheap to construct; all state lives per run.
///
/// Time on the simulated cores is whole microseconds: release, service
/// and deadline are each truncated (as `Duration::as_micros()` does)
/// before any arithmetic, so a 1,999 ns service occupies its core for 1 µs and a
/// task released at 1,000,500 ns may start at 1,000 µs. Only the order
/// of batches within a queue reads the untruncated release. The
/// dispatcher of the parent module ([`simulate_into`](super::simulate_into))
/// schedules single tasks, not cell batches, on exact nanoseconds: its
/// miss counts are a different machine's and do not match this one's to
/// the last task.
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

    /// Execute a task set on the simulated cores (no real payload, no
    /// host threads).
    ///
    /// # Panics
    /// Panics unless task ids are dense (`tasks[i].id == i`).
    pub fn execute(&self, tasks: &[RtTask]) -> ParallelOutcome {
        let mut out = ParallelOutcome::default();
        self.execute_into(tasks, &mut out);
        out
    }

    /// Execute into a caller-owned outcome, reusing its record and
    /// busy-time buffers.
    ///
    /// # Panics
    /// Panics unless task ids are dense (`tasks[i].id == i`).
    pub fn execute_into(&self, tasks: &[RtTask], out: &mut ParallelOutcome) {
        let batch = TaskBatch::from_tasks(tasks);
        self.execute_batch_into(&batch, &mut ParallelScratch::default(), out);
    }

    /// Execute a [`TaskBatch`] (task id = row index) straight from its
    /// nanosecond columns, with every buffer caller-owned — the
    /// repeated-call entry point for hot loops (one executor and one
    /// scratch per run, one outcome reused per server per step).
    pub fn execute_batch_into(
        &self,
        batch: &TaskBatch,
        scratch: &mut ParallelScratch,
        out: &mut ParallelOutcome,
    ) {
        self.schedule(batch, scratch, out, |_, _| {});
    }

    /// Execute a task set, additionally running `payload` once per task
    /// (e.g. a real turbo decode). The schedule is computed first; then
    /// each simulated core's tasks run, in schedule order, on a host
    /// thread of their own, so payloads of different cores run
    /// concurrently on the host's physical cores while deadline
    /// accounting stays on the simulated-core timeline.
    ///
    /// # Panics
    /// Panics unless task ids are dense (`tasks[i].id == i`).
    pub fn execute_with<F>(&self, tasks: &[RtTask], payload: F) -> ParallelOutcome
    where
        F: Fn(&RtTask) + Sync,
    {
        let mut out = ParallelOutcome::default();
        let batch = TaskBatch::from_tasks(tasks);
        let mut ran: Vec<Vec<usize>> = vec![Vec::new(); self.config.cores];
        let record = |core: usize, id: usize| ran[core].push(id);
        self.schedule(&batch, &mut ParallelScratch::default(), &mut out, record);
        let payload = &payload;
        std::thread::scope(|scope| {
            for ids in ran.iter().filter(|ids| !ids.is_empty()) {
                scope.spawn(move || ids.iter().for_each(|&id| payload(&tasks[id])));
            }
        });
        out
    }

    /// The scheduler. `ran(core, id)` is told, in schedule order, which
    /// simulated core ran each task.
    fn schedule(
        &self,
        tasks: &TaskBatch,
        scratch: &mut ParallelScratch,
        out: &mut ParallelOutcome,
        mut ran: impl FnMut(usize, usize),
    ) {
        let n = tasks.len();
        let cfg = self.config;
        let ParallelScratch {
            rows,
            batches,
            cores,
            steals,
        } = scratch;
        steals.clear();

        // Batch per cell (input order kept within a cell, at most
        // `batch` tasks each), homed on `cell % cores`. Rows already in
        // cell order — every batch the pool builds — need no sort.
        rows.clear();
        rows.extend(0..n);
        if !tasks.cell.is_sorted() {
            rows.sort_unstable_by_key(|&id| (tasks.cell[id], id));
        }
        batches.clear();
        let mut start = 0;
        while start < n {
            let first = rows[start];
            let len = rows[start..]
                .iter()
                .take(cfg.batch)
                .take_while(|&&id| tasks.cell[id] == tasks.cell[first])
                .count();
            batches.push(Batch {
                home: tasks.cell[first] as usize % cfg.cores,
                release_ns: tasks.release_ns[first],
                id: first,
                start,
                len,
            });
            start += len;
        }
        // Queue each batch on its home core in release order. Owners and
        // thieves both consume from the front, so a steal always takes
        // the victim's most urgent pending batch — stealing from the far
        // end would parallelize the *future* while early deadlines
        // serialize on the home core.
        batches.sort_unstable_by_key(|b| (b.home, b.release_ns, b.id));
        cores.clear();
        cores.resize(cfg.cores, Core::default());
        let mut next = 0;
        for (home, core) in cores.iter_mut().enumerate() {
            core.head = next;
            next += batches[next..]
                .iter()
                .take_while(|b| b.home == home)
                .count();
            core.end = next;
            // Without stealing a core only ever runs its own queue: an
            // empty one has nothing to do but retire.
            core.retired = !cfg.steal && core.queued() == 0;
        }

        out.tasks.clear();
        out.tasks.resize(n, TaskOutcome::default());
        out.steals = 0;
        // Hoisted once per call: with the tracer off, the loop below
        // must not even build event field arrays.
        let telemetry_on = pran_telemetry::enabled();

        // The live core with the smallest clock grabs next; `min_by_key`
        // keeps the first minimum, so ties go to the lowest core index.
        while let Some(c) = (0..cfg.cores)
            .filter(|&c| !cores[c].retired)
            .min_by_key(|&c| cores[c].clock)
        {
            // Work conservation is the point of stealing, so the trigger
            // is "my next batch has not been released yet", not "my
            // queue is empty" — with queues filled upfront, the latter
            // only fires at the tail of the run while a backlogged
            // peer's ready work serializes. When a steal lands beside an
            // own batch both run here in release order; the own batch
            // would have idled this core until its release anyway.
            let own = cores[c].pop();
            let idle = own.is_none_or(|b| batches[b].release_ns / 1_000 > cores[c].clock);
            let stolen = if cfg.steal && idle {
                // Only raid a peer with strictly more queued work:
                // between balanced queues a "steal" would just swap
                // future batches around and shred cell affinity.
                let queued = cores[c].queued();
                steal_from_peers(cores, c, queued)
            } else {
                None
            };
            // Both grabbed batches run here, in (release, id) order.
            let key = |b: usize| (batches[b].release_ns, batches[b].id);
            let grabbed = match (own, stolen) {
                (None, None) => {
                    // No reachable work left: retire this core.
                    cores[c].retired = true;
                    continue;
                }
                (Some(o), Some(s)) if key(s) < key(o) => [stolen, own],
                _ => [own, stolen],
            };

            let core = &mut cores[c];
            for batch in grabbed.into_iter().flatten().map(|b| batches[b]) {
                let stolen = batch.home != c;
                if stolen {
                    out.steals += 1;
                    steals.push((c as u64, core.clock));
                    if telemetry_on {
                        pran_telemetry::trace::sim_event_buffered(
                            "rt.steal",
                            core.clock,
                            &[
                                ("thief", c.into()),
                                ("home", batch.home.into()),
                                ("tasks", batch.len.into()),
                            ],
                        );
                    }
                }
                for &id in &rows[batch.start..batch.start + batch.len] {
                    let release = tasks.release_ns[id] / 1_000;
                    let service = tasks.service_ns[id] / 1_000;
                    let deadline = tasks.deadline_ns[id] / 1_000;
                    let start = core.clock.max(release);
                    let finish = start + service;
                    core.busy += service;
                    core.clock = finish;
                    out.tasks[id] = TaskOutcome {
                        id,
                        finish: Duration::from_micros(finish),
                        slack_us: deadline as i64 - finish as i64,
                        missed: finish > deadline,
                        core: c,
                        stolen,
                    };
                    if telemetry_on {
                        out.subframe(tasks, id).emit(None);
                    }
                    ran(c, id);
                }
            }
            // Without stealing, a drained queue's later turns could only
            // retire the core: retire it now.
            if !cfg.steal && core.queued() == 0 {
                core.retired = true;
            }
        }

        // Clocks only move forward, so a core's last finish is its clock.
        out.makespan = Duration::from_micros(cores.iter().map(|c| c.clock).max().unwrap_or(0));
        out.core_busy.clear();
        out.core_busy
            .extend(cores.iter().map(|c| Duration::from_micros(c.busy)));
    }
}

/// Take the front batch of the most backlogged peer holding strictly
/// more than `min_queued` batches (ties to the lowest core index).
fn steal_from_peers(cores: &mut [Core], thief: usize, min_queued: usize) -> Option<usize> {
    let victim = (0..cores.len())
        .filter(|&v| v != thief && cores[v].queued() > min_queued)
        .min_by_key(|&v| Reverse(cores[v].queued()))?;
    cores[victim].pop()
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
        use std::sync::atomic::{AtomicUsize, Ordering};
        let tasks = burst(12, 3, 50, 1_000_000);
        let calls = AtomicUsize::new(0);
        let out = exec(3, 2, true).execute_with(&tasks, |_| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 12);
        assert_eq!(out.tasks.len(), 12);
    }

    /// The pinned executor, written the obvious way: partition by
    /// `cell % cores`, chunk per cell by `batch`, order chunks by
    /// `(release, id)`, fold each core sequentially in whole µs.
    fn pinned_oracle(tasks: &[RtTask], cores: usize, batch: usize) -> ParallelOutcome {
        let mut by_cell = tasks.to_vec();
        by_cell.sort_by_key(|t| t.cell); // stable: input order kept within a cell
        let mut chunks: Vec<&[RtTask]> = by_cell
            .chunk_by(|a, b| a.cell == b.cell)
            .flat_map(|cell| cell.chunks(batch))
            .collect();
        chunks.sort_by_key(|c| (c[0].release, c[0].id));
        let mut out = ParallelOutcome::default();
        for core in 0..cores {
            let (mut clock, mut busy) = (0u64, 0u64);
            let mine = chunks.iter().filter(|c| c[0].cell % cores == core);
            for t in mine.copied().flatten() {
                let service = t.service.as_micros() as u64;
                let deadline = t.deadline.as_micros() as u64;
                clock = clock.max(t.release.as_micros() as u64) + service;
                busy += service;
                out.tasks.push(TaskOutcome {
                    id: t.id,
                    finish: Duration::from_micros(clock),
                    slack_us: deadline as i64 - clock as i64,
                    missed: clock > deadline,
                    core,
                    stolen: false,
                });
            }
            out.core_busy.push(Duration::from_micros(busy));
            out.makespan = out.makespan.max(Duration::from_micros(clock));
        }
        out.tasks.sort_by_key(|t| t.id);
        out
    }

    /// Deterministic xorshift so the sweeps need no RNG dependency.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// Up to 60 tasks on a TTI grid with jittered (odd-nanosecond)
    /// releases, as a faulted fronthaul produces them.
    fn jittered_tasks(rng: &mut Rng) -> Vec<RtTask> {
        let cells = 1 + rng.below(12) as usize;
        (0..rng.below(61) as usize)
            .map(|id| {
                let tti = Duration::from_millis(rng.below(5));
                RtTask {
                    id,
                    cell: rng.below(cells as u64) as usize,
                    release: tti + Duration::from_nanos(rng.below(800_000)),
                    deadline: tti + Duration::from_micros(2_000),
                    service: Duration::from_nanos(rng.below(900_000)),
                }
            })
            .collect()
    }

    /// `tasks` with its rows stably sorted by cell and renumbered — the
    /// shape every batch the pool builds has, which skips the row sort.
    fn in_cell_order(tasks: &[RtTask]) -> Vec<RtTask> {
        let mut sorted = tasks.to_vec();
        sorted.sort_by_key(|t| t.cell);
        for (id, t) in sorted.iter_mut().enumerate() {
            t.id = id;
        }
        sorted
    }

    #[test]
    fn pinned_schedule_matches_oracle_on_random_task_sets() {
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for round in 0..300 {
            let drawn = jittered_tasks(&mut rng);
            let (cores, batch) = (1 + rng.below(8) as usize, 1 + rng.below(8) as usize);
            for tasks in [in_cell_order(&drawn), drawn] {
                let got = exec(cores, batch, false).execute(&tasks);
                let want = pinned_oracle(&tasks, cores, batch);
                assert_eq!(
                    got.tasks, want.tasks,
                    "round {round}: {cores} cores, batch {batch}"
                );
                assert_eq!(got.core_busy, want.core_busy, "round {round}");
                assert_eq!(got.makespan, want.makespan, "round {round}");
                assert_eq!(got.steals, 0);
            }
        }
    }

    /// The scheduler without its shortcuts: every row set sorted, the
    /// grabbed pair sorted by `Option` key, a core retired only on a turn
    /// that finds nothing. The oracle for stealing, which no simpler
    /// model covers.
    fn sorting_schedule(
        cfg: ParallelConfig,
        tasks: &TaskBatch,
        scratch: &mut ParallelScratch,
        out: &mut ParallelOutcome,
    ) {
        let n = tasks.len();
        let ParallelScratch {
            rows,
            batches,
            cores,
            steals,
        } = scratch;
        steals.clear();

        rows.clear();
        rows.extend(0..n);
        rows.sort_unstable_by_key(|&id| (tasks.cell[id], id));
        batches.clear();
        let mut start = 0;
        while start < n {
            let first = rows[start];
            let len = rows[start..]
                .iter()
                .take(cfg.batch)
                .take_while(|&&id| tasks.cell[id] == tasks.cell[first])
                .count();
            batches.push(Batch {
                home: tasks.cell[first] as usize % cfg.cores,
                release_ns: tasks.release_ns[first],
                id: first,
                start,
                len,
            });
            start += len;
        }
        batches.sort_unstable_by_key(|b| (b.home, b.release_ns, b.id));
        cores.clear();
        cores.resize(cfg.cores, Core::default());
        let mut next = 0;
        for (home, core) in cores.iter_mut().enumerate() {
            core.head = next;
            next += batches[next..]
                .iter()
                .take_while(|b| b.home == home)
                .count();
            core.end = next;
        }

        out.tasks.clear();
        out.tasks.resize(n, TaskOutcome::default());
        out.steals = 0;
        while let Some(c) = (0..cfg.cores)
            .filter(|&c| !cores[c].retired)
            .min_by_key(|&c| cores[c].clock)
        {
            let own = cores[c].pop();
            let idle = own.is_none_or(|b| batches[b].release_ns / 1_000 > cores[c].clock);
            let stolen = if cfg.steal && idle {
                let queued = cores[c].queued();
                steal_from_peers(cores, c, queued)
            } else {
                None
            };
            let mut grabbed = [own, stolen];
            if grabbed == [None, None] {
                cores[c].retired = true;
                continue;
            }
            grabbed.sort_unstable_by_key(|b| b.map(|b| (batches[b].release_ns, batches[b].id)));

            let core = &mut cores[c];
            for batch in grabbed.into_iter().flatten().map(|b| batches[b]) {
                let stolen = batch.home != c;
                if stolen {
                    out.steals += 1;
                    steals.push((c as u64, core.clock));
                }
                for &id in &rows[batch.start..batch.start + batch.len] {
                    let release = tasks.release_ns[id] / 1_000;
                    let service = tasks.service_ns[id] / 1_000;
                    let deadline = tasks.deadline_ns[id] / 1_000;
                    let start = core.clock.max(release);
                    let finish = start + service;
                    core.busy += service;
                    core.clock = finish;
                    out.tasks[id] = TaskOutcome {
                        id,
                        finish: Duration::from_micros(finish),
                        slack_us: deadline as i64 - finish as i64,
                        missed: finish > deadline,
                        core: c,
                        stolen,
                    };
                }
            }
        }

        out.makespan = Duration::from_micros(cores.iter().map(|c| c.clock).max().unwrap_or(0));
        out.core_busy.clear();
        out.core_busy
            .extend(cores.iter().map(|c| Duration::from_micros(c.busy)));
    }

    #[test]
    fn schedule_matches_the_sorting_schedule_in_both_row_orders() {
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let (mut scratch, mut want_scratch) =
            (ParallelScratch::default(), ParallelScratch::default());
        let (mut got, mut want) = (ParallelOutcome::default(), ParallelOutcome::default());
        let mut total_steals = 0;
        for round in 0..500 {
            let drawn = jittered_tasks(&mut rng);
            let (cores, batch) = (1 + rng.below(8) as usize, 1 + rng.below(8) as usize);
            for steal in [true, false] {
                let cfg = ParallelConfig {
                    cores,
                    batch,
                    steal,
                };
                for tasks in [in_cell_order(&drawn), drawn.clone()] {
                    let tasks = TaskBatch::from_tasks(&tasks);
                    ParallelExecutor::new(cfg).execute_batch_into(&tasks, &mut scratch, &mut got);
                    sorting_schedule(cfg, &tasks, &mut want_scratch, &mut want);
                    let at = format!("round {round}: {cfg:?}");
                    assert_eq!(got.tasks, want.tasks, "{at}");
                    assert_eq!(got.core_busy, want.core_busy, "{at}");
                    assert_eq!(got.makespan, want.makespan, "{at}");
                    assert_eq!(got.steals, want.steals, "{at}");
                    assert_eq!(scratch.steals(), want_scratch.steals(), "{at}");
                    total_steals += got.steals;
                }
            }
        }
        assert!(total_steals > 0, "sweep never exercised a steal");
    }

    #[test]
    fn stealing_repeats_exactly_and_reused_buffers_carry_nothing_over() {
        // A fresh scratch and outcome per call against one of each reused
        // across every round: one timeline, steals included.
        let mut rng = Rng(0xD1B5_4A32_D192_ED03);
        let mut scratch = ParallelScratch::default();
        let mut reused = ParallelOutcome::default();
        let mut total_steals = 0;
        for round in 0..300 {
            let tasks = jittered_tasks(&mut rng);
            let ex = exec(1 + rng.below(8) as usize, 1 + rng.below(8) as usize, true);
            let fresh = ex.execute(&tasks);
            ex.execute_batch_into(&TaskBatch::from_tasks(&tasks), &mut scratch, &mut reused);
            assert_eq!(fresh.tasks, reused.tasks, "round {round}");
            assert_eq!(fresh.core_busy, reused.core_busy, "round {round}");
            assert_eq!(fresh.makespan, reused.makespan, "round {round}");
            assert_eq!(fresh.steals, reused.steals, "round {round}");
            let busy: Duration = fresh.core_busy.iter().sum();
            let total: u64 = tasks.iter().map(|t| t.service.as_micros() as u64).sum();
            assert_eq!(busy, Duration::from_micros(total), "work lost or invented");
            total_steals += fresh.steals;
        }
        assert!(total_steals > 0, "sweep never exercised a steal");
    }

    #[test]
    fn time_is_truncated_to_whole_microseconds() {
        // Pinned, not fixed: moving to nanosecond-exact accounting would
        // move every deadline-miss count recorded with this executor.
        let task = |id, release_ns, service_ns| RtTask {
            id,
            cell: 0,
            release: Duration::from_nanos(release_ns),
            deadline: Duration::from_nanos(release_ns + 2_000_999),
            service: Duration::from_nanos(service_ns),
        };
        let out = exec(1, 1, false).execute(&[task(0, 0, 1_999), task(1, 1_000_500, 999)]);
        // 1,999 ns of service runs as 1 µs.
        assert_eq!(out.tasks[0].finish, Duration::from_micros(1));
        assert_eq!(out.core_busy[0], Duration::from_micros(1));
        // Released at 1,000,500 ns, started at 1,000 µs, 0 µs of service:
        // done before its nanosecond-exact release.
        assert_eq!(out.tasks[1].finish, Duration::from_micros(1_000));
        assert!(out.tasks[1].finish < Duration::from_nanos(1_000_500));
        // The deadline truncates too: 3,001,499 ns reads as 3,001 µs.
        assert_eq!(out.tasks[1].slack_us, 3_001 - 1_000);
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
