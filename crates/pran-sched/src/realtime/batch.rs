//! The greedy non-preemptive dispatcher, on struct-of-arrays task sets.
//!
//! The pool dispatches once per server per trace step (millions of calls
//! of a few cells each), so nothing here allocates in steady state:
//!
//! * [`TaskBatch`] keeps release/deadline/service as flat `u64`
//!   nanosecond columns (task id = row index), so batched cost
//!   evaluation walks each column cache-linearly;
//! * [`SimScratch`] owns the sort order and the ready/core heaps, reused
//!   across calls;
//! * [`simulate_into`] writes finish/missed columns into a caller-owned
//!   [`BatchOutcome`], [`dispatch_grid`] its responses into a
//!   [`GridOutcome`].
//!
//! Dispatch has three paths:
//!
//! * **heap** — a ready heap keyed by the policy and a heap of core free
//!   times, for any batch;
//! * **FIFO** (`run_queue_fifo`) — when the ready heap would pop in
//!   admission order anyway (global FIFO, one partitioned core, or EDF
//!   with one `deadline − release` budget for every task, the subframe
//!   shape), straight down the sorted order with no heap;
//! * **grid** ([`dispatch_grid`]) — when every cell releases one task on
//!   each TTI of one grid under one budget (an ideal fronthaul), that
//!   sorted order is TTI-major with the cells ascending, so the FIFO
//!   path's assignment is made TTI by TTI with no task rows, sort or
//!   order at all, and a TTI that finds every core free replays TTI 0.
//!
//! `tests` below hold the FIFO and grid paths to the heap path on
//! randomized batches, and `realtime`'s hand-worked cases pin the
//! dispatcher's answers.

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
    /// emits for it.
    #[inline]
    pub fn subframe(&self, batch: &TaskBatch, i: usize) -> pran_telemetry::Subframe {
        subframe_record(
            batch.cell[i],
            batch.release_ns[i],
            batch.deadline_ns[i],
            batch.service_ns[i],
            self.finish_ns[i],
        )
    }
}

/// One dispatched task as its `subframe` record: every time truncated to
/// whole µs, start reconstructed as finish − service on the µs grid
/// (non-preemptive dispatch runs each task contiguously).
#[inline]
fn subframe_record(
    cell: u32,
    release_ns: u64,
    deadline_ns: u64,
    service_ns: u64,
    finish_ns: u64,
) -> pran_telemetry::Subframe {
    let finish = finish_ns / 1_000;
    pran_telemetry::Subframe {
        cell: u64::from(cell),
        release_us: release_ns / 1_000,
        start_us: finish.saturating_sub(service_ns / 1_000),
        finish_us: finish,
        deadline_us: deadline_ns / 1_000,
        core: None,
        stolen: false,
    }
}

/// Caller-owned output of [`dispatch_grid`]: the response
/// (`finish − release`) of every (TTI, cell) task, stored once per
/// distinct schedule — a TTI that replays TTI 0 shares TTI 0's block.
#[derive(Debug, Clone, Default)]
pub struct GridOutcome {
    /// Cells per TTI (rows per block).
    cells: usize,
    /// The grid's one `deadline − release`, ns.
    budget_ns: u64,
    /// Release of each TTI, ns.
    release_ns: Vec<u64>,
    /// Per TTI, the block holding its responses: 0 for TTI 0 and every
    /// TTI that replays it.
    block: Vec<u32>,
    /// TTIs that replayed TTI 0.
    replays: usize,
    /// Responses in ns: block `b` holds cell `c` at row `b × cells + c`.
    response_ns: Vec<u64>,
}

impl GridOutcome {
    /// Empty outcome.
    pub fn new() -> Self {
        GridOutcome::default()
    }

    /// The grid's one `deadline − release` budget, ns: a task misses its
    /// deadline exactly when its response exceeds this.
    pub fn budget_ns(&self) -> u64 {
        self.budget_ns
    }

    /// Responses of TTI `t`'s tasks, ns, one per cell in cell order.
    #[inline]
    fn responses(&self, t: usize) -> &[u64] {
        let first = self.block[t] as usize * self.cells;
        &self.response_ns[first..first + self.cells]
    }

    /// Each distinct block of responses with the number of TTIs it stands
    /// for: TTI 0's first, counting every TTI that replayed it, then one
    /// per TTI dispatched on its own. Folding each block with its
    /// multiplicity folds every task exactly once.
    pub fn blocks(&self) -> impl Iterator<Item = (&[u64], u64)> + '_ {
        let first_multiplicity = 1 + self.replays as u64;
        (0..self.block.len() - self.replays).map(move |b| {
            let block = &self.response_ns[b * self.cells..(b + 1) * self.cells];
            (block, if b == 0 { first_multiplicity } else { 1 })
        })
    }

    /// Finish time of cell `c`'s task of TTI `t`, ns.
    #[inline]
    fn finish_ns(&self, t: usize, c: usize) -> u64 {
        self.release_ns[t] + self.responses(t)[c]
    }

    /// Cell `c`'s task of TTI `t` as the `subframe` record
    /// [`simulate_into`] emits for the same task of the expanded batch;
    /// `cell` and `service_ns` are that cell's id and service time.
    #[inline]
    pub fn subframe(
        &self,
        t: usize,
        c: usize,
        cell: u32,
        service_ns: u64,
    ) -> pran_telemetry::Subframe {
        let release = self.release_ns[t];
        subframe_record(
            cell,
            release,
            release + self.budget_ns,
            service_ns,
            self.finish_ns(t, c),
        )
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

/// The core that frees first, ties to the lowest id as in
/// `run_queue_fifo`. Selects rather than branches: across server-steps,
/// which core wins is data the branch predictor cannot learn.
#[inline]
fn first_free(core_free: &[u64]) -> usize {
    let (mut c, mut best) = (0usize, core_free[0]);
    for (k, &free) in core_free.iter().enumerate().skip(1) {
        let earlier = free < best;
        c = if earlier { k } else { c };
        best = if earlier { free } else { best };
    }
    c
}

/// Dispatch a TTI grid on `CORES` identical cores: each of the cells
/// releases one task at every `release_ns[t]`, due at `deadline_ns[t]`,
/// that needs `service_ns[cell]` on one core. Responses go to `out`.
///
/// This is [`simulate_into`] under `GlobalEdf` (or `GlobalFifo`) on the
/// expanded batch — one row per (cell, TTI), cell-major, as
/// [`TaskBatch::push_run`] writes it — without building it: sorted by
/// `(release, row)` those rows are TTI-major with the cells ascending,
/// and one budget makes EDF pop in that order, so the FIFO path's
/// assignment is made here TTI by TTI, each TTI's cells in cell order
/// onto the first core to free, the core clocks carried from TTI to TTI.
/// The clocks are a `[u64; CORES]`, so they stay in registers.
///
/// A TTI whose release finds every core free starts from TTI 0's state
/// shifted by its release, so each of its tasks finishes as long after
/// its release as in TTI 0, and misses where it missed. Such a TTI costs
/// one check and a shift of TTI 0's end state, and shares TTI 0's block
/// in `out`. Which free core takes a task can then differ from
/// [`simulate_into`]'s choice (and with it the per-core busy time, which
/// `out` does not carry); no finish time can.
///
/// # Panics
/// Panics if the grid is empty, its slices differ in length, its
/// releases do not strictly increase or its `deadline − release` is not
/// one non-negative value. `CORES == 0` does not compile.
pub fn dispatch_grid<const CORES: usize>(
    service_ns: &[u64],
    release_ns: &[u64],
    deadline_ns: &[u64],
    out: &mut GridOutcome,
) {
    const { assert!(CORES >= 1, "need at least one core") };
    assert_eq!(
        release_ns.len(),
        deadline_ns.len(),
        "grid slices must match"
    );
    let first = *release_ns.first().expect("a grid has a TTI");
    let budget = deadline_ns[0].wrapping_sub(first);
    assert!(
        release_ns.windows(2).all(|w| w[0] < w[1])
            && (release_ns.iter().zip(deadline_ns))
                .all(|(&r, &d)| d.checked_sub(r) == Some(budget)),
        "a grid's releases strictly increase under one deadline budget"
    );
    let cells = service_ns.len();
    out.cells = cells;
    out.budget_ns = budget;
    out.release_ns.clear();
    out.release_ns.extend_from_slice(release_ns);
    out.block.clear();
    out.replays = 0;
    out.response_ns.clear();
    let mut core_free = [0u64; CORES];
    let mut first_tti_end = core_free;
    let mut blocks = 0u32;
    for (t, &release) in release_ns.iter().enumerate() {
        if t > 0 && core_free.iter().all(|&f| f <= release) {
            let shift = release - first;
            core_free = first_tti_end.map(|end| end + shift);
            out.block.push(0);
            out.replays += 1;
            continue;
        }
        out.block.push(blocks);
        blocks += 1;
        for &service in service_ns {
            let c = first_free(&core_free);
            let end = core_free[c].max(release) + service;
            // A select per core, not a store at `c`, keeps the clocks in
            // registers.
            for (k, free) in core_free.iter_mut().enumerate() {
                *free = if k == c { end } else { *free };
            }
            out.response_ns.push(end - release);
        }
        if t == 0 {
            first_tti_end = core_free;
        }
    }
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

    /// [`dispatch_grid`] into `out`, held to
    /// [`simulate_into`]`(GlobalEdf)` on the expanded cell-major batch:
    /// the same finish and missed values for every (cell, TTI).
    fn assert_grid_is_edf<const CORES: usize>(
        service: &[u64],
        releases: &[u64],
        deadlines: &[u64],
        out: &mut GridOutcome,
    ) {
        dispatch_grid::<CORES>(service, releases, deadlines, out);
        let mut batch = TaskBatch::new();
        for (cell, &s) in service.iter().enumerate() {
            batch.push_run(cell as u32, releases, deadlines, s);
        }
        let edf = fresh(&batch, CORES, Policy::GlobalEdf);
        let ttis = releases.len();
        for (cell, &s) in service.iter().enumerate() {
            for (t, &deadline) in deadlines.iter().enumerate() {
                let row = cell * ttis + t;
                let finish = out.finish_ns(t, cell);
                assert_eq!(
                    (finish, finish > deadline),
                    (edf.finish_ns[row], edf.missed[row]),
                    "cell {cell}, TTI {t}, {CORES} cores, services {service:?}"
                );
                assert_eq!(
                    out.subframe(t, cell, cell as u32, s),
                    edf.subframe(&batch, row)
                );
            }
        }
        let folded: u64 = out.blocks().map(|(b, n)| b.len() as u64 * n).sum();
        assert_eq!(folded, batch.len() as u64, "blocks fold every task once");
    }

    /// Random grids with a 2 ms budget and 0–3 ms services, so TTIs carry
    /// over, replay TTI 0 and miss; the outcome is reused across
    /// differently sized grids. Half the grids have the 1 ms period, half
    /// 1–3 ms gaps, where a TTI can carry over from one that replayed.
    #[test]
    fn grid_dispatch_is_edf_on_the_expanded_batch() {
        let mut rng = Rng(0x6B1D_5EED_0F0F_2026);
        let mut out = GridOutcome::new();
        let (mut carried, mut replayed, mut missed, mut after_replay) = (0, 0, 0, 0);
        for round in 0..800 {
            let ttis = 1 + (rng.next() % 10) as usize;
            let cells = 1 + (rng.next() % 12) as usize;
            let mut releases = vec![0u64];
            for _ in 1..ttis {
                let gap = match round / 4 % 2 {
                    0 => 1_000_000,
                    _ => 1_000_000 + rng.next() % 2_000_001,
                };
                releases.push(releases.last().unwrap() + gap);
            }
            let deadlines: Vec<u64> = releases.iter().map(|r| r + 2_000_000).collect();
            let service: Vec<u64> = (0..cells).map(|_| rng.next() % 3_000_001).collect();
            let (s, r, d) = (&service[..], &releases[..], &deadlines[..]);
            match round % 4 {
                0 => assert_grid_is_edf::<1>(s, r, d, &mut out),
                1 => assert_grid_is_edf::<2>(s, r, d, &mut out),
                2 => assert_grid_is_edf::<4>(s, r, d, &mut out),
                _ => assert_grid_is_edf::<8>(s, r, d, &mut out),
            }
            replayed += out.block[1..].iter().filter(|&&b| b == 0).count();
            carried += out.block[1..].iter().filter(|&&b| b != 0).count();
            after_replay += out
                .block
                .windows(2)
                .skip(1)
                .filter(|w| w[0] == 0 && w[1] != 0)
                .count();
            missed += (0..ttis)
                .flat_map(|t| out.responses(t))
                .filter(|&&r| r > out.budget_ns())
                .count();
        }
        assert!(
            carried > 0 && replayed > 0 && missed > 0 && after_replay > 0,
            "the sweep must carry ({carried}), replay ({replayed}), miss ({missed}) \
             and carry over from a replay ({after_replay})"
        );
    }

    /// Five 600 µs cells on four cores, released at 0, 1, 3 and 4 ms with
    /// a 1 ms budget. TTI 0: cells 0–3 start at once, cell 4 waits for
    /// core 0 and finishes at 1.2 ms, past its deadline and past TTI 1's
    /// release. TTI 1 therefore carries over: cells 0–2 take the free
    /// cores at 1 ms, cell 3 waits for core 0 (1.2 → 1.8 ms) and cell 4
    /// for core 1 (1.6 → 2.2 ms). Every core is free again by 3 ms, so
    /// TTI 2 replays TTI 0, its miss included, and leaves core 0 busy
    /// until 4.2 ms: TTI 3 carries over from it exactly as TTI 1 did.
    #[test]
    fn hand_worked_grid_carries_then_replays() {
        let us = 1_000u64;
        let service = [600 * us; 5];
        let releases = [0, 1_000 * us, 3_000 * us, 4_000 * us];
        let deadlines = releases.map(|r| r + 1_000 * us);
        let mut out = GridOutcome::new();
        assert_grid_is_edf::<4>(&service, &releases, &deadlines, &mut out);
        let tti0 = [600 * us, 600 * us, 600 * us, 600 * us, 1_200 * us];
        let carried = [600 * us, 600 * us, 600 * us, 800 * us, 1_200 * us];
        assert_eq!(out.responses(0), tti0);
        assert_eq!(out.responses(1), carried);
        assert_eq!(out.responses(2), tti0);
        assert_eq!(out.responses(3), carried);
        assert_eq!(out.block, [0, 1, 0, 2]);
        let blocks: Vec<(&[u64], u64)> = out.blocks().collect();
        assert_eq!(blocks, [(&tti0[..], 2), (&carried, 1), (&carried, 1)]);
        assert_eq!(out.finish_ns(2, 4), 4_200 * us);
    }

    #[test]
    #[should_panic(expected = "one deadline budget")]
    fn grid_rejects_a_second_budget() {
        dispatch_grid::<1>(&[1], &[0, 1_000], &[2_000, 2_500], &mut GridOutcome::new());
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
