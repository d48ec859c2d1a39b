//! The greedy non-preemptive dispatcher, on struct-of-arrays task sets.
//!
//! A metro run dispatches once per server per trace step (millions of
//! calls of ~10 tasks each), so nothing here allocates in steady state:
//!
//! * [`TaskBatch`] keeps release/deadline/service as flat `u64`
//!   nanosecond columns (task id = row index), so batched cost
//!   evaluation walks each column cache-linearly;
//! * [`SimScratch`] owns the sort order and the ready/core heaps, reused
//!   across calls;
//! * [`simulate_into`] writes finish/missed columns into a caller-owned
//!   [`BatchOutcome`].
//!
//! Dispatch has two paths. The general one keeps a ready heap keyed by
//! the policy and a heap of core free times. When the ready heap would
//! pop in admission order anyway — global FIFO, one partitioned core, or
//! EDF with one `deadline − release` budget for every task (the subframe
//! shape) — a heap-free path dispatches straight down the sorted order.
//! `tests` below hold the two equal on randomized batches, and
//! `realtime`'s hand-worked cases pin the dispatcher's answers.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{Policy, RtTask};

/// Flat struct-of-arrays task set: row `i` is task `i`.
#[derive(Debug, Clone, Default)]
pub struct TaskBatch {
    /// Cell of each task (partitioned policies key on this).
    pub cell: Vec<u32>,
    /// Absolute release time in nanoseconds.
    pub release_ns: Vec<u64>,
    /// Absolute deadline in nanoseconds.
    pub deadline_ns: Vec<u64>,
    /// Service time on one core in nanoseconds.
    pub service_ns: Vec<u64>,
}

impl TaskBatch {
    /// Empty batch.
    pub fn new() -> Self {
        TaskBatch::default()
    }

    /// Append one task row.
    #[inline]
    pub fn push(&mut self, cell: u32, release_ns: u64, deadline_ns: u64, service_ns: u64) {
        self.cell.push(cell);
        self.release_ns.push(release_ns);
        self.deadline_ns.push(deadline_ns);
        self.service_ns.push(service_ns);
    }

    /// Append one task per `(releases[i], deadlines[i])` pair, all for the
    /// same cell with the same service time — the per-cell subframe-grid
    /// shape, appended column-wise instead of `releases.len()` pushes.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    #[inline]
    pub fn push_run(&mut self, cell: u32, releases: &[u64], deadlines: &[u64], service_ns: u64) {
        assert_eq!(releases.len(), deadlines.len(), "grid slices must match");
        let n = releases.len();
        self.cell.resize(self.cell.len() + n, cell);
        self.release_ns.extend_from_slice(releases);
        self.deadline_ns.extend_from_slice(deadlines);
        self.service_ns
            .resize(self.service_ns.len() + n, service_ns);
    }

    /// Drop all rows, keeping the columns' capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.cell.clear();
        self.release_ns.clear();
        self.deadline_ns.clear();
        self.service_ns.clear();
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.cell.len()
    }

    /// Whether the batch holds no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cell.is_empty()
    }

    /// Build a batch from [`RtTask`]s. Requires dense ids
    /// (`tasks[i].id == i`), the layout the pool generates.
    ///
    /// # Panics
    /// Panics when ids are not dense or a time does not fit `u64` ns.
    pub fn from_tasks(tasks: &[RtTask]) -> Self {
        let n = tasks.len();
        let mut batch = TaskBatch {
            cell: Vec::with_capacity(n),
            release_ns: Vec::with_capacity(n),
            deadline_ns: Vec::with_capacity(n),
            service_ns: Vec::with_capacity(n),
        };
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id, i, "task ids must be dense row indices");
            batch.push(
                t.cell as u32,
                u64::try_from(t.release.as_nanos()).expect("release fits u64 ns"),
                u64::try_from(t.deadline.as_nanos()).expect("deadline fits u64 ns"),
                u64::try_from(t.service.as_nanos()).expect("service fits u64 ns"),
            );
        }
        batch
    }
}

/// Reusable scheduler scratch: sort order and dispatch heaps.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Task indices in dispatch-admission order.
    order: Vec<u32>,
    /// Min-heap of `(free_at_ns, core)`.
    core_free: BinaryHeap<Reverse<(u64, u32)>>,
    /// Min-heap of `(policy key ns, task index)`.
    ready: BinaryHeap<Reverse<(u64, u32)>>,
    /// Flat per-core free times for the heap-free FIFO dispatch path.
    core_free_flat: Vec<u64>,
}

impl SimScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        SimScratch::default()
    }
}

/// Caller-owned output columns of [`simulate_into`].
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Finish time per task in nanoseconds.
    pub finish_ns: Vec<u64>,
    /// Deadline-miss flag per task.
    pub missed: Vec<bool>,
    /// Busy time accumulated per core, nanoseconds.
    pub core_busy_ns: Vec<u64>,
    /// Time the last task finished, nanoseconds.
    pub makespan_ns: u64,
}

impl BatchOutcome {
    /// Empty outcome.
    pub fn new() -> Self {
        BatchOutcome::default()
    }

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

    /// Task `i` of `batch` as the `subframe` record [`simulate_into`]
    /// emits for it: every column truncated to whole µs, start
    /// reconstructed as finish − service on the µs grid (non-preemptive
    /// dispatch runs each task contiguously).
    #[inline]
    pub fn subframe(&self, batch: &TaskBatch, i: usize) -> pran_telemetry::Subframe {
        let finish = self.finish_ns[i] / 1_000;
        pran_telemetry::Subframe {
            cell: u64::from(batch.cell[i]),
            release_us: batch.release_ns[i] / 1_000,
            start_us: finish.saturating_sub(batch.service_ns[i] / 1_000),
            finish_us: finish,
            deadline_us: batch.deadline_ns[i] / 1_000,
            core: None,
            stolen: false,
        }
    }
}

/// Ready-queue ordering key of the heap dispatch path.
#[derive(Clone, Copy)]
enum SelectBy {
    Deadline,
    Release,
    /// `deadline − service` (static laxity).
    Slack,
}

/// Simulate a batch on `cores` identical cores under `policy`, writing
/// results into `out`. Non-preemptive and work-conserving: whenever a
/// core is free and tasks are ready, the policy's best ready task starts
/// immediately. Emits one `subframe` trace event per task, in row order,
/// when telemetry is on.
///
/// # Panics
/// Panics if `cores == 0`.
pub fn simulate_into(
    batch: &TaskBatch,
    cores: usize,
    policy: Policy,
    scratch: &mut SimScratch,
    out: &mut BatchOutcome,
) {
    assert!(cores >= 1, "need at least one core");
    let n = batch.len();
    out.finish_ns.clear();
    out.finish_ns.resize(n, 0);
    out.missed.clear();
    out.missed.resize(n, false);
    out.core_busy_ns.clear();
    out.core_busy_ns.resize(cores, 0);
    out.makespan_ns = 0;

    match policy {
        Policy::Partitioned => {
            // Split by cell % cores; each partition runs FIFO on one core
            // — single-core FIFO is always dispatch-order scheduling, so
            // the heap-free path applies unconditionally.
            for core in 0..cores {
                scratch.order.clear();
                scratch.order.extend(
                    (0..n as u32).filter(|&i| batch.cell[i as usize] as usize % cores == core),
                );
                sort_order(batch, &mut scratch.order);
                let makespan = run_queue_fifo(
                    batch,
                    &scratch.order,
                    1,
                    &mut scratch.core_free_flat,
                    &mut out.finish_ns,
                    &mut out.missed,
                    &mut out.core_busy_ns[core..core + 1],
                );
                out.makespan_ns = out.makespan_ns.max(makespan);
            }
        }
        Policy::GlobalEdf | Policy::GlobalLlf | Policy::GlobalFifo => {
            scratch.order.clear();
            scratch.order.extend(0..n as u32);
            sort_order(batch, &mut scratch.order);
            // FIFO pops the ready heap in exactly admission order, and so
            // does EDF whenever `deadline − release` is one constant (the
            // subframe case: every task gets the same compute budget) —
            // then `(deadline, id)` and `(release, id)` order identically,
            // so greedy dispatch never needs the heaps at all.
            let fifo_equivalent = match policy {
                Policy::GlobalFifo => true,
                Policy::GlobalEdf => uniform_deadline_offset(batch),
                _ => false,
            };
            out.makespan_ns = if fifo_equivalent {
                run_queue_fifo(
                    batch,
                    &scratch.order,
                    cores,
                    &mut scratch.core_free_flat,
                    &mut out.finish_ns,
                    &mut out.missed,
                    &mut out.core_busy_ns,
                )
            } else {
                let select = match policy {
                    Policy::GlobalEdf => SelectBy::Deadline,
                    Policy::GlobalLlf => SelectBy::Slack,
                    _ => SelectBy::Release,
                };
                run_queue(
                    batch,
                    &scratch.order,
                    cores,
                    select,
                    &mut scratch.core_free,
                    &mut scratch.ready,
                    &mut out.finish_ns,
                    &mut out.missed,
                    &mut out.core_busy_ns,
                )
            };
        }
    }

    if pran_telemetry::enabled() {
        for i in 0..n {
            out.subframe(batch, i).emit(Some(policy.label()));
        }
    }
}

/// Sort task indices by (release, index) — the admission order.
fn sort_order(batch: &TaskBatch, order: &mut [u32]) {
    order.sort_unstable_by_key(|&i| (batch.release_ns[i as usize], i));
}

/// Whether every task has the same `deadline − release` budget — the
/// condition under which EDF's ready ordering coincides with admission
/// order (see the fast-path comment in [`simulate_into`]).
fn uniform_deadline_offset(batch: &TaskBatch) -> bool {
    let n = batch.len();
    if n == 0 {
        return true;
    }
    let off = batch.deadline_ns[0].wrapping_sub(batch.release_ns[0]);
    (1..n).all(|i| batch.deadline_ns[i].wrapping_sub(batch.release_ns[i]) == off)
}

/// [`run_queue`] without heaps, for policies whose ready queue pops in
/// admission order: tasks dispatch strictly in `order`, each to the core
/// with the least `(free_at, core)` — the exact task→core→begin mapping
/// the heap version produces, without its per-task heap traffic.
fn run_queue_fifo(
    batch: &TaskBatch,
    order: &[u32],
    cores: usize,
    core_free: &mut Vec<u64>,
    finish_ns: &mut [u64],
    missed: &mut [bool],
    core_busy_ns: &mut [u64],
) -> u64 {
    core_free.clear();
    core_free.resize(cores, 0);
    let mut makespan = 0u64;
    for &i in order {
        let i = i as usize;
        // First minimum wins: ties pick the lowest core id, matching the
        // heap's `(free_at, core)` ordering.
        let mut c = 0usize;
        for k in 1..cores {
            if core_free[k] < core_free[c] {
                c = k;
            }
        }
        let begin = core_free[c].max(batch.release_ns[i]);
        let end = begin + batch.service_ns[i];
        finish_ns[i] = end;
        missed[i] = end > batch.deadline_ns[i];
        core_busy_ns[c] += batch.service_ns[i];
        makespan = makespan.max(end);
        core_free[c] = end;
    }
    makespan
}

/// Greedy non-preemptive dispatch of `order`'s tasks over `cores` cores,
/// writing finish/missed at the tasks' global indices. `core_busy_ns`
/// has one slot per core in this run. Returns the makespan.
#[allow(clippy::too_many_arguments)] // split borrows of scratch and outcome
fn run_queue(
    batch: &TaskBatch,
    order: &[u32],
    cores: usize,
    select: SelectBy,
    core_free: &mut BinaryHeap<Reverse<(u64, u32)>>,
    ready: &mut BinaryHeap<Reverse<(u64, u32)>>,
    finish_ns: &mut [u64],
    missed: &mut [bool],
    core_busy_ns: &mut [u64],
) -> u64 {
    let n = order.len();
    core_free.clear();
    for c in 0..cores {
        core_free.push(Reverse((0, c as u32)));
    }
    ready.clear();
    // The ready set never exceeds the batch: size it once per batch size
    // rather than whenever a release order builds a deeper backlog.
    ready.reserve(n);

    let key = |i: usize| match select {
        SelectBy::Deadline => batch.deadline_ns[i],
        SelectBy::Release => batch.release_ns[i],
        SelectBy::Slack => batch.deadline_ns[i].saturating_sub(batch.service_ns[i]),
    };

    let mut makespan = 0u64;
    let mut next = 0usize;
    while next < n || !ready.is_empty() {
        let Reverse((free_at, core)) = *core_free.peek().expect("cores exist");
        if ready.is_empty() {
            // Jump to the next release.
            let t = batch.release_ns[order[next] as usize].max(free_at);
            while next < n && batch.release_ns[order[next] as usize] <= t {
                let i = order[next];
                ready.push(Reverse((key(i as usize), i)));
                next += 1;
            }
            continue;
        }
        // Start time is when the earliest core frees up; admit everything
        // released by then so the policy chooses among all ready tasks.
        let start = free_at;
        while next < n && batch.release_ns[order[next] as usize] <= start {
            let i = order[next];
            ready.push(Reverse((key(i as usize), i)));
            next += 1;
        }
        let Reverse((_, i)) = ready.pop().expect("ready non-empty");
        let i = i as usize;
        let begin = start.max(batch.release_ns[i]);
        let end = begin + batch.service_ns[i];
        finish_ns[i] = end;
        missed[i] = end > batch.deadline_ns[i];
        core_busy_ns[core as usize] += batch.service_ns[i];
        makespan = makespan.max(end);
        core_free.pop();
        core_free.push(Reverse((end, core)));
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift so the differential sweep needs no RNG dep.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn random_batch(rng: &mut Rng, n: usize, cells: u64) -> TaskBatch {
        let mut batch = TaskBatch::new();
        for _ in 0..n {
            let release = rng.next() % 4_000_000;
            // Mix exact-µs and odd-ns values so truncation paths and
            // tie-breaking both get exercised.
            let service = 100_000 + rng.next() % 2_000_003;
            let deadline = release + rng.next() % 3_000_001;
            batch.push((rng.next() % cells) as u32, release, deadline, service);
        }
        batch
    }

    /// [`simulate_into`] with every dispatch forced through the heap
    /// [`run_queue`], on fresh buffers: what the heap-free path must equal.
    fn heap_only(batch: &TaskBatch, cores: usize, policy: Policy) -> BatchOutcome {
        let n = batch.len();
        let mut out = BatchOutcome {
            finish_ns: vec![0; n],
            missed: vec![false; n],
            core_busy_ns: vec![0; cores],
            makespan_ns: 0,
        };
        let select = match policy {
            Policy::GlobalEdf => SelectBy::Deadline,
            Policy::GlobalLlf => SelectBy::Slack,
            Policy::GlobalFifo | Policy::Partitioned => SelectBy::Release,
        };
        // One dispatch run per (tasks, the cores they may use).
        let runs: Vec<(Vec<u32>, std::ops::Range<usize>)> = match policy {
            Policy::Partitioned => (0..cores)
                .map(|c| {
                    let mine =
                        (0..n as u32).filter(|&i| batch.cell[i as usize] as usize % cores == c);
                    (mine.collect(), c..c + 1)
                })
                .collect(),
            _ => vec![((0..n as u32).collect(), 0..cores)],
        };
        for (mut order, slots) in runs {
            sort_order(batch, &mut order);
            let makespan = run_queue(
                batch,
                &order,
                slots.len(),
                select,
                &mut BinaryHeap::new(),
                &mut BinaryHeap::new(),
                &mut out.finish_ns,
                &mut out.missed,
                &mut out.core_busy_ns[slots],
            );
            out.makespan_ns = out.makespan_ns.max(makespan);
        }
        out
    }

    /// [`simulate_into`] on a fresh scratch and outcome.
    fn fresh(batch: &TaskBatch, cores: usize, policy: Policy) -> BatchOutcome {
        let mut out = BatchOutcome::new();
        simulate_into(batch, cores, policy, &mut SimScratch::new(), &mut out);
        out
    }

    /// Every column of an outcome, for whole-outcome comparisons.
    fn columns(out: &BatchOutcome) -> (Vec<u64>, Vec<bool>, Vec<u64>, u64) {
        let (finish, missed) = (out.finish_ns.clone(), out.missed.clone());
        (finish, missed, out.core_busy_ns.clone(), out.makespan_ns)
    }

    /// The EDF fast path (constant `deadline − release`, heap-free
    /// dispatch) must match heap dispatch exactly — this is the shape
    /// every subframe batch has, so it is the path the pool lives on.
    #[test]
    fn edf_fast_path_matches_reference_on_uniform_offset() {
        let mut rng = Rng(0xDEADBEEFCAFEF00D);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        for round in 0..40 {
            let n = 1 + (round % 23);
            let offset = 1_500_000 + rng.next() % 1_000_000;
            let mut batch = TaskBatch::new();
            for _ in 0..n {
                let release = (rng.next() % 4) * 1_000_000;
                let cell = (rng.next() % 7) as u32;
                let service = 100_000 + rng.next() % 2_000_003;
                batch.push(cell, release, release + offset, service);
            }
            assert!(uniform_deadline_offset(&batch), "test shape broken");
            for cores in [1, 2, 4] {
                simulate_into(&batch, cores, Policy::GlobalEdf, &mut scratch, &mut out);
                let heap = heap_only(&batch, cores, Policy::GlobalEdf);
                assert_eq!(
                    columns(&out),
                    columns(&heap),
                    "round {round}, cores {cores}"
                );
            }
        }
    }

    /// FIFO and partitioned dispatch take the heap-free path on any
    /// batch; reused buffers must give what fresh ones give.
    #[test]
    fn matches_reference_on_random_sets() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        for round in 0..40 {
            let n = 1 + (round % 17);
            let batch = random_batch(&mut rng, n, 5);
            for cores in [1, 2, 4] {
                for policy in [Policy::GlobalFifo, Policy::Partitioned] {
                    simulate_into(&batch, cores, policy, &mut scratch, &mut out);
                    let label = format!("round {round}, {policy:?}, cores {cores}");
                    let heap = heap_only(&batch, cores, policy);
                    assert_eq!(columns(&out), columns(&heap), "{label}");
                    let fresh = fresh(&batch, cores, policy);
                    assert_eq!(columns(&out), columns(&fresh), "{label}");
                }
            }
        }
    }

    #[test]
    fn reuse_across_differently_sized_batches() {
        let mut rng = Rng(42);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        // Shrinking sizes must not leave stale rows behind, on any path.
        for n in [13usize, 4, 9, 1] {
            let batch = random_batch(&mut rng, n, 3);
            for policy in Policy::all() {
                simulate_into(&batch, 2, policy, &mut scratch, &mut out);
                assert_eq!(out.finish_ns.len(), n);
                let fresh = fresh(&batch, 2, policy);
                assert_eq!(columns(&out), columns(&fresh), "{policy:?}, {n} tasks");
            }
        }
    }

    #[test]
    fn empty_batch() {
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        simulate_into(
            &TaskBatch::new(),
            4,
            Policy::GlobalEdf,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.misses(), 0);
        assert_eq!(out.makespan_ns, 0);
        assert_eq!(out.core_busy_ns, vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        simulate_into(
            &TaskBatch::new(),
            0,
            Policy::GlobalEdf,
            &mut SimScratch::new(),
            &mut BatchOutcome::new(),
        );
    }
}
